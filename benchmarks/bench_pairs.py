#!/usr/bin/env python3
"""Alternating parent/change runs of ``benchmarks/e2e/run.py``, summed up.

Run from the root of a checkout, with both revisions committed:

    python3 benchmarks/bench_pairs.py --parent <rev> --change HEAD --seed 22 \\
        --pairs 10 --out BENCH_<n>.json

Each revision is unpacked with ``git archive`` into its own directory
under ``--workdir`` (default: a new temporary directory), and every run
uses that tree's own ``benchmarks/e2e``.  For each workload, pair ``i``
runs both sides once, one process at a time; the side that runs first
alternates from one pair to the next.  ``--claim workload:metric`` names
a gain to test: the change must win at least nine tenths of the pairs
(ties count for neither side) and its median must beat the parent's by
more than the parent's interquartile range.  Every other end-to-end
metric is checked against its bound in ``BENCHMARK.json``: the change's
median may be worse than the parent's by at most that fraction.  A
metric whose parent interquartile range, as a fraction of the parent's
median, is wider than its bound is marked ``"unresolved": true``: the
runs spread too widely to show it unchanged, unless every change run
beats every parent run, which resolves it.  A run whose info line
carries ``detail.command_p50_ms`` (``cold_cli``: the p50 of each CLI
command) keeps it, and the summary gives each command's median per side,
so a BENCH file shows which commands moved the workload's median.  With
``--trace``, one traced run per side and workload follows the pairs, for
the per-layer figures.  Quartiles are ``statistics.quantiles(n=4,
method="inclusive")``.  The standard library is all it needs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def unpack(rev: str, dest: Path) -> str:
    """``rev``'s tree in ``dest``; returns its short commit id."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", "--short", rev], check=True, capture_output=True,
                          text=True).stdout.strip()


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    return {"exit_code": proc.returncode, "wall_s": round(time.perf_counter() - started, 1),
            **read_output(proc.stdout), "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def read_output(stdout: str) -> dict:
    """The result line of a run's output, and the per-command p50s of its
    info line when it has them."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    info = next((d["info"] for d in lines if "info" in d), {})
    fields = {"result": next((d for d in lines if "metrics" in d), None)}
    commands = info.get("detail", {}).get("command_p50_ms")
    if commands:
        fields["command_p50_ms"] = commands
    return fields


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], metrics: list[dict], claims: set[str]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and not r["trace"] and r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        rows = {"pairs": len(pairs)}
        for spec in metrics:
            name, lower = spec["name"], spec["better"] == "lower"
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            if len(pairs) < 2:
                continue
            pq1, pmed, pq3 = quartiles(parent)
            cq1, cmed, cq3 = quartiles(change)
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
            row = {"parent_median": round(pmed, 4), "parent_q1": round(pq1, 4), "parent_q3": round(pq3, 4),
                   "change_median": round(cmed, 4), "change_q1": round(cq1, 4), "change_q3": round(cq3, 4),
                   "ratio": round(cmed / pmed, 3), "change_better_pairs": f"{wins}/{len(pairs)}",
                   "within_bound": worse <= spec["bound"]}
            beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
            if (pq3 - pq1) / pmed > spec["bound"] and not beats_all:
                row["unresolved"] = True
            if f"{workload}:{name}" in claims:
                beyond_iqr = (pmed - cmed if lower else cmed - pmed) > pq3 - pq1
                row["claim_met"] = wins * 10 >= 9 * len(pairs) and beyond_iqr
            rows[name] = row
        sides = [r for r in runs if r["workload"] == workload and not r["trace"]]
        for key in ("attempted", "failed"):
            rows[key] = {side: sum(r["result"][key] for r in sides if r["side"] == side and r["result"])
                         for side in ("parent", "change")}
        rows["exit_codes"] = sorted({r["exit_code"] for r in sides})
        commands: dict[str, dict[str, list[float]]] = {}
        for r in sides:
            for command, ms in r.get("command_p50_ms", {}).items():
                commands.setdefault(command, {"parent": [], "change": []})[r["side"]].append(ms)
        if commands:
            rows["command_p50_ms"] = {
                command: {side: round(statistics.median(ms), 1) for side, ms in by_side.items() if ms}
                for command, by_side in commands.items()}
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--claim", action="append", default=[], help="workload:metric of a claimed gain")
    parser.add_argument("--trace", action="store_true", help="add one traced run per side and workload")
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: workdir / side for side in ("parent", "change")}
    commits = {side: unpack(rev, trees[side]) for side, rev in (("parent", args.parent), ("change", args.change))}

    runs = []

    def record(**fields) -> None:
        runs.append(fields)
        print(json.dumps({k: v for k, v in fields.items() if k != "result"}), file=sys.stderr, flush=True)
        args.out.write_text(json.dumps(report(), indent=1) + "\n")

    def report() -> dict:
        return {
            "what": f"benchmarks/e2e/run.py --workload <w> --seed {args.seed} --seconds {seconds} for each "
                    f"workload, {args.pairs} alternating parent/change pairs, by benchmarks/bench_pairs.py",
            "parent": commits["parent"], "change": commits["change"],
            "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                     "machine": platform.machine(), "system": platform.system(),
                     "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "")},
            "fsync": True, "seed": args.seed, "claims": args.claim,
            "summary": summarize(runs, spec["end_to_end"], set(args.claim)),
            "runs": runs,
        }

    for workload in workloads:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                record(workload=workload, seed=args.seed, trace=0, pair=pair, side=side,
                       **run(trees[side], workload, args.seed, seconds, 0))
        if args.trace:
            for side in ("parent", "change"):
                record(workload=workload, seed=args.seed, trace=1, pair=None, side=side,
                       **run(trees[side], workload, args.seed, seconds, 1))
    print(json.dumps(report()["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
