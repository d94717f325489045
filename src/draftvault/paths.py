"""Naming conventions for the files that accompany a document."""
from __future__ import annotations

import os
from pathlib import Path

AUTOSAVE_DIR_ENV = "DRAFTVAULT_AUTOSAVE_DIR"

# The file streams of a document that the crash harness can cut, by the
# names ``crash-sim --target`` takes (see faultsim.FaultyIO.classify).
STREAMS = ("journal", "autosave", "pp-log", "envelope")


class DocPaths:
    """The files that accompany the document at ``doc``.  A plain class, not
    a dataclass: the CLI loads this module before it knows its command."""

    __slots__ = ("doc",)

    def __init__(self, doc: Path):
        self.doc = doc

    @property
    def name(self) -> str:
        return self.doc.name

    @property
    def journal(self) -> Path:
        return self.doc.with_name(self.doc.name + ".journal")

    @property
    def pp_log(self) -> Path:
        return self.doc.with_name(self.doc.name + ".pp")

    @property
    def sidecar(self) -> Path:
        return self.doc.with_name(self.doc.name + ".session")

    @property
    def siglog(self) -> Path:
        return self.doc.with_name(self.doc.name + ".siglog")

    def autosave_dir(self, configured: Path | None = None) -> Path:
        """The directory given by the caller, else the one the environment
        names, else the document's own."""
        if configured is not None:
            return Path(configured)
        return Path(os.environ.get(AUTOSAVE_DIR_ENV) or self.doc.parent)


def for_doc(doc: str | Path) -> DocPaths:
    return DocPaths(Path(doc))
