"""Child process of the benchmark: ``python3 worker.py CONFIG.json``.

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and reads the last line
of its standard output.  Two modes:

* ``edit``: the end-to-end ``edit_session`` run, replaying the sessions the
  parent planned, in a process of its own so that the parent can read its
  peak RSS;
* ``pass``: one fixed-size pass of a workload, traced or not, run in-process
  (``draftvault.cli.main`` for the CLI workloads) so that the wrappers of
  ``spans.instrument`` see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from time import perf_counter

from common import SIZES
from spans import Tracer, instrument
from workloads import ColdFixture, build_scripts, edit_rounds, fresh_dir, scripted_session


def edit_end_to_end(cfg: dict) -> dict:
    run = edit_rounds(Path(cfg["plan"]), SIZES[cfg["size"]]["edit"], Path(cfg["tmp"]),
                      seconds=cfg["seconds"], corrupt_output=cfg["corrupt"])
    return run.summary()


def in_process_call(tracer: Tracer | None, times: list | None):
    from draftvault import cli

    def call(name, argv):
        buf = io.StringIO()
        if tracer is not None:
            tracer.op += 1
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span(f"cli.{name}"):
                    rc = cli.main(argv)
        if times is not None:
            times.append(perf_counter() - t0)
        return rc, buf.getvalue()

    return call


def one_pass(cfg: dict) -> dict:
    """A fixed amount of work; ``wall`` is the time spent in program calls,
    measured the same way traced and untraced."""
    tracer = Tracer() if cfg["traced"] else None
    missing = instrument(tracer) if tracer is not None else []
    if tracer is not None:
        tracer.paused = True
    seed, tmp, workload = cfg["seed"], Path(cfg["tmp"]), cfg["workload"]
    sizes = SIZES[cfg["size"]]
    out = {"missing": missing, "failed": 0}

    if workload == "edit_session":
        sz = sizes["edit"]
        if tracer is not None:
            tracer.paused = False
        run = edit_rounds(Path(cfg["plan"]), sz, tmp, rounds=sz["trace_rounds"], tracer=tracer)
        out.update(wall=run.program_s, ops=run.ops, attempted=run.ops, failed=run.failed,
                   payload_bytes=run.payload_bytes)
    elif workload == "scripted_session":
        sz = sizes["scripted"]
        scripts = build_scripts(seed, sz, fresh_dir(tmp / "scripts"))
        os.environ["DRAFTVAULT_AUTOSAVE_DIR"] = str(fresh_dir(tmp / "autosave"))
        if tracer is not None:
            tracer.paused = False
        times = []
        call = in_process_call(tracer, times)
        for i, script in enumerate(scripts):
            out["failed"] += not scripted_session(call, script, sz, tmp, f"s{i}")
        out.update(wall=sum(times), ops=sum(s.steps for s in scripts), attempted=len(scripts),
                   payload_bytes=sum(s.payload_bytes for s in scripts))
    else:
        sz = sizes["cold"]
        fx = ColdFixture(seed, sz, tmp / "cold")
        os.environ["DRAFTVAULT_AUTOSAVE_DIR"] = str(fx.autosave_dir)
        os.environ["DRAFTVAULT_PASSWORD"] = fx.password
        out["failed"] += not fx.seed_backup(in_process_call(None, None))
        if tracer is not None:
            tracer.paused = False
        times = []
        call = in_process_call(tracer, times)
        for r in range(sz["trace_rounds"]):
            out["failed"] += fx.round(call, r)
        out.update(wall=sum(times), ops=len(times), attempted=len(times), payload_bytes=0)

    if tracer is not None:
        Path(cfg["spans_out"]).write_text(json.dumps(tracer.spans))
    return out


def main() -> None:
    cfg = json.loads(Path(sys.argv[1]).read_text())
    result = edit_end_to_end(cfg) if cfg["mode"] == "edit" else one_pass(cfg)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
