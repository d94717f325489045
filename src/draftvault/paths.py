"""Naming conventions for the files that accompany a document.

Inside the engine a path is a ``str``.  A public call takes a ``str`` or
any ``os.PathLike`` and converts it once; ``os`` and ``os.path`` do the
rest, so a cold command loads no ``pathlib``.
"""
from __future__ import annotations

import os

from .errors import BadPath

AUTOSAVE_DIR_ENV = "DRAFTVAULT_AUTOSAVE_DIR"
# The autosave set of a document is ``<doc>`` plus this, in the autosave
# directory.  Backup skips a file whose name ends in it, not one whose name
# merely contains ``.autosave.``.
AUTOSAVE_SET_SUFFIX = ".autosave.set"

# The file streams of a document that the crash harness can cut, by the
# names ``crash-sim --target`` takes (see faultsim.FaultyIO.classify).
STREAMS = ("journal", "autosave", "pp-log", "envelope")


def normalize(path: str | os.PathLike) -> str:
    """``path`` as a str spelled the way ``pathlib`` spells it: ``.``
    components and repeated or trailing slashes dropped, a leading ``//``
    kept (POSIX gives it a meaning of its own), ``..`` kept (it may cross
    a symlink), ``.`` for nothing left.  So ``w/`` names ``w``, and
    ``./d.tcgd`` is printed back as ``d.tcgd``."""
    path = os.fspath(path)
    head = "//" if path[:2] == "//" and path[2:3] != "/" else path[:1] if path[:1] == "/" else ""
    return head + "/".join(part for part in path.split("/") if part not in ("", ".")) or "."


class DocPaths:
    """The files that accompany the document at ``doc``, a normalized str."""

    def __init__(self, doc: str):
        self.doc, self.name = doc, os.path.basename(doc)
        if self.name in ("", "."):  # "", "." or "/": a directory, whose files would be "..journal"
            raise BadPath(f"{doc!r} names no document file")
        self.journal, self.pp_log, self.sidecar, self.siglog = (
            doc + suffix for suffix in (".journal", ".pp", ".session", ".siglog"))

    def autosave_dir(self, configured=None) -> str:
        """The directory given by the caller, else the one the environment
        names, else the document's own (``.`` for a bare file name)."""
        if configured is None:
            configured = os.environ.get(AUTOSAVE_DIR_ENV) or os.path.dirname(self.doc)
        return normalize(configured)


def for_doc(doc: str | os.PathLike) -> DocPaths:
    return DocPaths(normalize(doc))
