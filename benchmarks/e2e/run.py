#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of draftvault.

Run from the root of a checkout; the program is used from ``src`` as is:

    python3 benchmarks/e2e/run.py --workload edit_session --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one process, fsync on):

* ``edit_session``: an editor host embedding the library on a ~20k-element
  drawing: commits, undo/redo, blob versions, autosave ticks, save.
* ``scripted_session``: ``python -m draftvault autosave-run`` over generated
  scripts of 500 and 2000 steps from an empty document.
* ``cold_cli``: rounds of ten cold ``python -m draftvault`` calls against one
  large session.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
four times in-process (untraced, traced, traced, untraced) and prints the
per-layer metrics.  The last line of standard output is the result object;
the line before it carries the run's inputs, environment and secondary
figures.
The exit code is 0 only when every output check passed.  Everything is
written under a temporary directory in the checkout, removed at the end.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no bytecode cache in the checkout

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections.abc import Callable  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from common import SIZES, SetupClock, median, percentile  # noqa: E402
from spans import PER_LAYER, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
# Children skip site-packages: draftvault needs none, and start-up hooks
# installed there belong to the host, not to the program.  The bytecode
# cache lives in the run's temporary directory and is filled before timing.
PYTHON = [sys.executable, "-S"]
WORKLOADS = {"edit_session": "edit", "scripted_session": "scripted", "cold_cli": "cold"}  # size key
SETUP_BUILDS = 5  # builds of a workload's inputs per run; setup_s is their median
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ops_per_s": "1/s"}


class Bench:
    def __init__(self, args, root: Path, tmp: Path):
        self.args = args
        self.seed = args.seed
        self.src = root / "src"
        self.tmp = tmp
        self.sizes = SIZES[args.size]
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("DRAFTVAULT_") and k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(self.src), PYTHONPYCACHEPREFIX=str(tmp / "pycache"))
        self.errors: list[str] = []
        self.calls: list[tuple[str, float, float]] = []  # (command, wall s, peak RSS MB)
        # Started while this process is still small; see launcher.py.
        self.launcher = subprocess.Popen([*PYTHON, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True, env=self.env, cwd=tmp)

    # -- child processes -------------------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[int, str, float, float]:
        """Run a child to completion through the launcher: exit code,
        stdout, wall seconds and peak RSS in MB."""
        self.launcher.stdin.write(json.dumps({"argv": argv, "env": self.env,
                                              "cwd": str(self.tmp)}) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if reply["rc"] != 0:
            self.errors.append(f"{' '.join(argv[1:4])} exited {reply['rc']}: {reply['err']}")
        return reply["rc"], reply["out"], reply["wall"], reply["rss_mb"]

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def cli(self, name: str, argv: list[str]) -> tuple[int, str]:
        rc, out, wall, rss = self.spawn([*PYTHON, "-m", "draftvault", *argv])
        self.calls.append((name, wall, rss))
        return rc, out

    def warm_bytecode(self) -> None:
        """Fill the bytecode cache once, as an installed package has it."""
        self.spawn([*PYTHON, "-c", "import draftvault.cli"])

    def worker(self, cfg: dict) -> tuple[dict, float]:
        path = self.tmp / "worker.json"
        work = self.tmp / "work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        path.write_text(json.dumps({"seed": self.seed, "size": self.args.size, "tmp": str(work),
                                    "src": str(self.src), "plan": str(self.tmp / "plan"), **cfg}))
        rc, out, _, rss = self.spawn([*PYTHON, str(HERE / "worker.py"), str(path)])
        lines = out.strip().splitlines()
        if rc != 0 or not lines:
            return {}, rss
        return json.loads(lines[-1]), rss

    def more_setup(self, setup: SetupClock, build) -> None:
        """Time further builds of the inputs, ``build(root)``, after the
        measured loop so that their I/O does not land in it."""
        from workloads import fresh_dir

        spare = self.tmp / "spare"
        while len(setup.times) < SETUP_BUILDS:
            setup.time(lambda: build(fresh_dir(spare)))
        shutil.rmtree(spare)

    def edit_plan(self) -> tuple[SetupClock, Callable[[Path], None]]:
        """Build the edit sessions' plan for the worker; returns the set-up
        clock and the build, for ``more_setup``."""
        from workloads import build_edit_plan, fresh_dir

        build = functools.partial(build_edit_plan, self.seed, self.sizes["edit"])
        setup = SetupClock()
        setup.time(lambda: build(fresh_dir(self.tmp / "plan")))
        return setup, build

    # -- end-to-end runs ---------------------------------------------------------------

    def edit_session(self) -> tuple[dict, dict]:
        setup, build = self.edit_plan()
        res, rss = self.worker({"mode": "edit", "seconds": self.args.seconds,
                                "corrupt": self.args.corrupt_output})
        self.more_setup(setup, build)
        metrics = {
            "setup_s": median(setup.times),
            "peak_rss_mb": rss,
            "op_p50_ms": res.get("commit_p50_ms", 0.0),
            "op_tail_ms": res.get("commit_p99_ms", 0.0),
            "ops_per_s": res.get("edit_ops_per_s", 0.0),
        }
        attempted = res.get("ops", 0)
        failed = res.get("failed", 0) if res else 1
        return metrics, {"attempted": attempted, "failed": failed,
                         "detail": {"setup_builds": len(setup.times), **res}}

    def scripted_session(self) -> tuple[dict, dict]:
        from workloads import build_scripts, fresh_dir, scripted_session

        sz = self.sizes["scripted"]
        setup = SetupClock()
        self.warm_bytecode()
        self.env["DRAFTVAULT_AUTOSAVE_DIR"] = str(fresh_dir(self.tmp / "autosave"))
        scripts = setup.time(lambda: build_scripts(self.seed, sz, fresh_dir(self.tmp / "scripts")))
        walls: dict[int, list[float]] = {n: [] for n in sz["steps"]}
        rss: dict[int, float] = {n: 0.0 for n in sz["steps"]}
        # A cycle runs the short script four times and the long one once, so
        # that both medians rest on several sessions.
        cycle = [0, 0, 1, 0, 0]
        failed, i, started = 0, 0, perf_counter()
        while i < len(cycle) or perf_counter() - started < self.args.seconds:
            script = scripts[cycle[i % len(cycle)]]
            ok = scripted_session(self.cli, script, sz, self.tmp, f"s{i}",
                                  corrupt_output=self.args.corrupt_output and i == 0)
            failed += not ok
            _, wall, peak = self.calls[-1]
            walls[script.steps].append(wall)
            rss[script.steps] = max(rss[script.steps], peak)
            i += 1
        self.more_setup(setup, lambda root: build_scripts(self.seed, sz, root))
        short, long_ = sz["steps"]
        per_step = {n: median(w) / n for n, w in walls.items()}
        metrics = {
            "setup_s": median(setup.times),
            "peak_rss_mb": max(rss.values()),
            "op_p50_ms": per_step[short] * 1e3,
            "op_tail_ms": per_step[long_] * 1e3,
            "ops_per_s": sum(n * len(w) for n, w in walls.items()) / sum(map(sum, walls.values())),
        }
        detail = {
            "sessions": {n: len(w) for n, w in walls.items()},
            "setup_builds": len(setup.times),
            "script_steps_per_s": 1.0 / per_step[long_],
            "script_step_cost_ratio": per_step[long_] / per_step[short],
            "peak_rss_mb_by_steps": rss,
        }
        return metrics, {"attempted": i, "failed": failed, "detail": detail}

    def cold_cli(self) -> tuple[dict, dict]:
        from workloads import ColdFixture

        sz = self.sizes["cold"]
        self.warm_bytecode()
        setup = SetupClock()
        seeded = []

        def build(root: Path) -> ColdFixture:
            fx = ColdFixture(self.seed, sz, root)
            seeded.append(fx.seed_backup(self.cli))
            return fx

        fx = setup.time(lambda: build(self.tmp / "cold"))
        self.calls.clear()
        self.env.update(DRAFTVAULT_AUTOSAVE_DIR=str(fx.autosave_dir), DRAFTVAULT_PASSWORD=fx.password)
        failed, r, started = 0, 0, perf_counter()
        while len(self.calls) < sz["min_calls"] or perf_counter() - started < self.args.seconds:
            failed += fx.round(self.cli, r, corrupt_output=self.args.corrupt_output)
            r += 1
        calls = list(self.calls)
        self.more_setup(setup, build)
        failed += seeded.count(False)
        walls = [w for _, w, _ in calls]
        by_command: dict[str, list[float]] = {}
        for name, w, _ in calls:
            by_command.setdefault(name, []).append(w * 1e3)
        metrics = {
            "setup_s": median(setup.times),
            "peak_rss_mb": max(rss for _, _, rss in calls),
            "op_p50_ms": median(walls) * 1e3,
            "op_tail_ms": percentile(walls, 0.9) * 1e3,
            "ops_per_s": len(walls) / sum(walls),
        }
        detail = {"rounds": r, "calls": len(walls), "setup_builds": len(setup.times),
                  "command_p50_ms": {k: median(v) for k, v in by_command.items()}}
        return metrics, {"attempted": len(walls), "failed": failed, "detail": detail}

    # -- traced run ----------------------------------------------------------------------

    def import_ms(self) -> float:
        """``import draftvault.cli`` minus a bare interpreter start."""
        self.warm_bytecode()
        with_cli, bare = [], []
        for _ in range(5):
            with_cli.append(self.spawn([*PYTHON, "-c", "import draftvault.cli"])[2])
            bare.append(self.spawn([*PYTHON, "-c", "pass"])[2])
        return (median(with_cli) - median(bare)) * 1e3

    def traced(self) -> tuple[dict, dict]:
        """Untraced and traced passes in ABBA order, so that a drift of the
        host's speed cancels out of ``trace_overhead_frac``."""
        spans_path = self.tmp / "spans.json"
        if self.args.workload == "edit_session":
            self.edit_plan()
        passes = []
        for traced in (False, True, True, False):
            result, _ = self.worker({"mode": "pass", "workload": self.args.workload,
                                     "traced": traced, "spans_out": str(spans_path)})
            passes.append((traced, result))
        if not all(result for _, result in passes):
            return {name: 0.0 for name in PER_LAYER}, {"attempted": 1, "failed": 1, "detail": passes}
        last = passes[2][1]
        metrics = layer_metrics(json.loads(spans_path.read_text()), last["ops"], last["payload_bytes"])
        metrics["cli.import_ms"] = self.import_ms()
        wall = {flag: sum(r["wall"] for t, r in passes if t == flag) for flag in (False, True)}
        metrics["trace_overhead_frac"] = wall[True] / wall[False] - 1
        detail = {"untraced_wall_s": wall[False], "traced_wall_s": wall[True], "ops": last["ops"],
                  "missing_trace_targets": last["missing"]}
        return metrics, {"attempted": sum(r["attempted"] for _, r in passes),
                         "failed": sum(r["failed"] for _, r in passes), "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--corrupt-output", action="store_true",
                        help="flip a bit of one program output before it is checked")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "draftvault" / "__init__.py").is_file():
        print("error: src/draftvault not found; run from the root of a draftvault checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(root / "src"))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        bench = Bench(args, root, tmp)
        try:
            if args.trace:
                values, outcome = bench.traced()
                units = PER_LAYER
            else:
                values, outcome = getattr(bench, args.workload)()
                units = END_TO_END
        finally:
            bench.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = max(1, outcome["attempted"]), outcome["failed"]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "inputs": bench.sizes[WORKLOADS[args.workload]],
        "fsync": True, "shape": "closed loop, one client, one process",
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "error_rate": failed / attempted, "detail": outcome["detail"], "errors": bench.errors[:5],
    }
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
