"""Spans around the program's layer boundaries, recorded from outside.

``instrument`` wraps, in the traced process only:

* class methods of the public types (``Journal``, ``PPVersionLog``,
  ``AutosaveSession``, ``Drawing``, ``ScriptRunner``, ``SessionLock``);
* every ``draftvault`` module's imported binding of a public function, so a
  call through ``cli`` or ``script`` is caught as well as a direct one;
* ``os.fsync``;
* ``FileIO``, by a subclass that times its ``super()`` calls and replaces the
  class in every module that constructs one.

A span is ``[name, start, end, parent index, op id, info]``; spans stay in
memory until the pass ends.  A target missing from a later version of the
program is skipped and listed, so the benchmark keeps running unchanged.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from common import median


class Tracer:
    """Span recorder; ``op`` is the id given to the spans opened next."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0
        self.paused = False

    def open(self, name: str, info=None) -> int | None:
        if self.paused:
            return None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, info])
        self._stack.append(idx)
        return idx

    def close(self, idx: int | None) -> None:
        if idx is not None:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        idx = self.open(name, info)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, info=None):
        """``fn`` inside a span; ``info(args, kwargs, result)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if idx is not None and info is not None:
                try:
                    self.spans[idx][5] = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    pass
            return result

        return traced


# -- instrumentation ---------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _tick_info(args, kwargs, result):
    if result is None:
        return {"wrote": False}
    return {"wrote": True, "bytes": result.drawing_size + (result.pp_size or 0)}


def _backup_info(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    backup_set, manifest = result
    roots = {Path(root).name: Path(root) for root in config.watch_roots}
    hashed = 0
    for relpath in manifest.entries:
        label, _, rest = relpath.partition("/")
        if label in roots:
            hashed += (roots[label] / rest).stat().st_size
    return {"scanned": len(manifest.entries), "copied": len(backup_set.copied), "bytes": hashed}


METHODS = {  # span name: (module, class, attribute, info)
    "journal.begin_session": ("journal", "Journal", "begin_session", None),
    "journal.resume": ("journal", "Journal", "resume", None),
    "journal.commit_step": ("journal", "Journal", "commit_step", None),
    "journal.undo_step": ("journal", "Journal", "undo_step", None),
    "journal.redo_step": ("journal", "Journal", "redo_step", None),
    "pp.open": ("ppversions", "PPVersionLog", "open",
                lambda a, k, r: {"versions": r.version_count}),
    "pp.commit": ("ppversions", "PPVersionLog", "commit_pp", None),
    "pp.jump": ("ppversions", "PPVersionLog", "jump_pp", None),
    "autosave.tick": ("autosave", "AutosaveSession", "autosave_tick", _tick_info),
    "autosave.shutdown": ("autosave", "AutosaveSession", "clean_shutdown", None),
    "model.canonical_bytes": ("model", "Drawing", "canonical_bytes", None),
    "model.parse": ("model", "Drawing", "from_canonical_bytes", None),
    "script.run": ("script", "ScriptRunner", "run",
                   lambda a, k, r: {"steps": r.steps_committed}),
    "locks.acquire": ("locks", "SessionLock", "acquire", None),
}

FUNCTIONS = {  # span name: (defining module, function, info)
    "journal.encode": ("journal", "encode_step", None),
    "journal.parse": ("journal", "parse_journal_bytes",
                      lambda a, k, r: {"bytes": len(_arg(a, k, 0, "data"))}),
    "journal.inspect": ("journal", "inspect_journal", None),
    "sig.load_document": ("signatures", "load_document", None),
    "sig.save_document": ("signatures", "save_document", None),
    "sig.sign": ("signatures", "sign", None),
    "sig.verify": ("signatures", "verify_integrity", None),
    "sidecar.read": ("sidecar", "read_sidecar", None),
    "sidecar.write": ("sidecar", "write_sidecar",
                      lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    "autosave.probe": ("autosave", "probe_recovery", None),
    "backup.run": ("backup", "run_backup", _backup_info),
}


def _traced_fileio(tracer: Tracer, base: type) -> type:
    class TracedFileIO(base):
        def read_bytes(self, path):
            with tracer.span("fileio.read"):
                return super().read_bytes(path)

        def write_file(self, path, data):
            with tracer.span("fileio.write", {"bytes": len(data)}):
                return super().write_file(path, data)

        def append(self, path, data):
            with tracer.span("fileio.append", {"bytes": len(data)}):
                return super().append(path, data)

        def truncate(self, path, size):
            with tracer.span("fileio.truncate"):
                return super().truncate(path, size)

        def replace(self, src, dst):
            with tracer.span("fileio.replace"):
                return super().replace(src, dst)

        def unlink(self, path):
            with tracer.span("fileio.unlink"):
                return super().unlink(path)

    return TracedFileIO


def _rebind(original, replacement) -> None:
    """Replace ``original`` wherever a program module binds it."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "draftvault"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _lookup(module: str, name: str):
    try:
        return getattr(importlib.import_module(f"draftvault.{module}"), name, None)
    except ImportError:
        return None


def instrument(tracer: Tracer) -> list[str]:
    """Install every wrapper; returns the targets this program lacks."""
    import draftvault  # noqa: F401  (loads the submodules the package exports)
    import draftvault.cli  # noqa: F401

    missing = []
    for name, (mod, cls_name, attr, info) in METHODS.items():
        cls = _lookup(mod, cls_name)
        # The method may be defined on a base class; the wrapper goes on ``cls``.
        raw = next((k.__dict__[attr] for k in getattr(cls, "__mro__", ()) if attr in k.__dict__), None)
        if raw is None:
            missing.append(name)
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, info)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, info))
    for name, (mod, fn_name, info) in FUNCTIONS.items():
        fn = _lookup(mod, fn_name)
        if fn is None:
            missing.append(name)
        else:
            _rebind(fn, tracer.wrap(name, fn, info))
    base = importlib.import_module("draftvault.fileio").FileIO
    _rebind(base, _traced_fileio(tracer, base))
    os.fsync = tracer.wrap("os.fsync", os.fsync)
    return missing


# -- per-layer metrics -----------------------------------------------------------------

CLI_COMMANDS = ("undo", "redo", "history", "verify", "sign", "unsign", "recover", "pp_jump",
                "backup", "autosave_run")

PER_LAYER = {
    "journal.commit_ms": "ms", "journal.commit_self_ms": "ms", "journal.encode_ms": "ms",
    "journal.undo_redo_ms": "ms", "journal.load_ms": "ms", "journal.parse_ms": "ms",
    "journal.parse_mb_per_s": "MB/s",
    "model.canonical_bytes_ms": "ms/op", "model.canonical_bytes_calls": "count/op",
    "model.parse_ms": "ms/op", "model.parse_calls": "count/op", "model.parse_calls_per_undo": "count",
    "script.self_ms_per_step_500": "ms", "script.self_ms_per_step_2000": "ms",
    "fileio.fsync_count": "count/op", "fileio.fsync_ms": "ms/op",
    "fileio.write_ops": "count/op", "fileio.append_ops": "count/op", "fileio.truncate_ops": "count/op",
    "fileio.replace_ops": "count/op", "fileio.unlink_ops": "count/op",
    "fileio.bytes_written": "B/op", "fileio.write_amp": "x",
    "autosave.tick_write_ms": "ms", "autosave.write_ratio": "fraction", "autosave.set_bytes": "B",
    "autosave.probe_ms": "ms",
    "pp.commit_ms": "ms", "pp.open_ms": "ms", "pp.versions_scanned": "count",
    "sig.sign_ms": "ms", "sig.verify_ms": "ms", "sig.load_document_ms": "ms",
    "sig.load_document_calls": "count/op", "sig.save_document_ms": "ms",
    "sidecar.read_ms": "ms", "sidecar.write_ms": "ms", "sidecar.bytes": "B",
    "backup.run_ms": "ms", "backup.bytes_hashed": "B", "backup.files_scanned": "count",
    "backup.copy_ratio": "fraction",
    "locks.acquire_count": "count/op", "locks.acquire_ms": "ms/op",
    "cli.import_ms": "ms",
    **{f"cli.{c}_ms": "ms" for c in CLI_COMMANDS},
    "trace_overhead_frac": "fraction",
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[list], ops: int, payload_bytes: int) -> dict[str, float]:
    """Per-layer figures from one traced pass.  ``ops`` normalises the
    per-op figures (editor ops, script steps or CLI calls); ``payload_bytes``
    is the new content the user committed, the base of the write ratio."""
    dur = [(s[2] - s[1]) * 1e3 for s in spans]
    by_name: dict[str, list[int]] = defaultdict(list)
    child_ms = [0.0] * len(spans)
    io_ms = [0.0] * len(spans)  # time in outermost fileio spans below each span
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[3] >= 0:
            child_ms[s[3]] += dur[i]
        if s[0].startswith("fileio.") and (s[3] < 0 or not spans[s[3]][0].startswith("fileio.")):
            p = s[3]
            while p >= 0:
                io_ms[p] += dur[i]
                p = spans[p][3]

    def durs(*names):
        return [dur[i] for n in names for i in by_name[n]]

    def infos(name, key):
        return [spans[i][5][key] for i in by_name[name] if spans[i][5] and key in spans[i][5]]

    def per_op(x):
        return x / ops if ops else 0.0

    parse_bytes, parse_ms = sum(infos("journal.parse", "bytes")), sum(durs("journal.parse"))
    ticks = by_name["autosave.tick"]
    writes = [i for i in ticks if spans[i][5] and spans[i][5]["wrote"]]
    runs = by_name["script.run"]
    script_self = [(dur[i] - child_ms[i]) / max(1, spans[i][5]["steps"] if spans[i][5] else 1)
                   for i in runs]
    top_names = {s[4]: s[0] for s in spans if s[3] == -1}
    undo_ops = {op for op, name in top_names.items() if name == "cli.undo"}
    scanned = sum(infos("backup.run", "scanned"))
    written = sum(infos("fileio.write", "bytes")) + sum(infos("fileio.append", "bytes"))

    m = {
        "journal.commit_ms": median(durs("journal.commit_step")),
        "journal.commit_self_ms": median([dur[i] - io_ms[i] for i in by_name["journal.commit_step"]]),
        "journal.encode_ms": median(durs("journal.encode")),
        "journal.undo_redo_ms": median(durs("journal.undo_step", "journal.redo_step")),
        "journal.load_ms": median(durs("journal.resume", "journal.inspect")),
        "journal.parse_ms": median(durs("journal.parse")),
        "journal.parse_mb_per_s": parse_bytes / 1e6 / (parse_ms / 1e3) if parse_ms else 0.0,
        "model.canonical_bytes_ms": per_op(sum(durs("model.canonical_bytes"))),
        "model.canonical_bytes_calls": per_op(len(by_name["model.canonical_bytes"])),
        "model.parse_ms": per_op(sum(durs("model.parse"))),
        "model.parse_calls": per_op(len(by_name["model.parse"])),
        "model.parse_calls_per_undo": (
            sum(1 for i in by_name["model.parse"] if spans[i][4] in undo_ops) / len(undo_ops)
            if undo_ops else 0.0),
        "script.self_ms_per_step_500": script_self[0] if script_self else 0.0,
        "script.self_ms_per_step_2000": script_self[1] if len(script_self) > 1 else 0.0,
        "fileio.fsync_count": per_op(len(by_name["os.fsync"])),
        "fileio.fsync_ms": per_op(sum(durs("os.fsync"))),
        **{f"fileio.{kind}_ops": per_op(len(by_name[f"fileio.{kind}"]))
           for kind in ("write", "append", "truncate", "replace", "unlink")},
        "fileio.bytes_written": per_op(written),
        "fileio.write_amp": written / payload_bytes if payload_bytes else 0.0,
        "autosave.tick_write_ms": median([dur[i] for i in writes]),
        "autosave.write_ratio": len(writes) / len(ticks) if ticks else 0.0,
        "autosave.set_bytes": _mean([spans[i][5]["bytes"] for i in writes]),
        "autosave.probe_ms": median(durs("autosave.probe")),
        "pp.commit_ms": median(durs("pp.commit")),
        "pp.open_ms": median(durs("pp.open")),
        "pp.versions_scanned": _mean(infos("pp.open", "versions")),
        "sig.sign_ms": median(durs("sig.sign")),
        "sig.verify_ms": median(durs("sig.verify")),
        "sig.load_document_ms": median(durs("sig.load_document")),
        "sig.load_document_calls": per_op(len(by_name["sig.load_document"])),
        "sig.save_document_ms": median(durs("sig.save_document")),
        "sidecar.read_ms": median(durs("sidecar.read")),
        "sidecar.write_ms": median(durs("sidecar.write")),
        "sidecar.bytes": _mean(infos("sidecar.write", "bytes")),
        "backup.run_ms": median(durs("backup.run")),
        "backup.bytes_hashed": _mean(infos("backup.run", "bytes")),
        "backup.files_scanned": _mean(infos("backup.run", "scanned")),
        "backup.copy_ratio": sum(infos("backup.run", "copied")) / scanned if scanned else 0.0,
        "locks.acquire_count": per_op(len(by_name["locks.acquire"])),
        "locks.acquire_ms": per_op(sum(durs("locks.acquire"))),
    }
    for c in CLI_COMMANDS:
        m[f"cli.{c}_ms"] = median(durs(f"cli.{c}"))
    return m
