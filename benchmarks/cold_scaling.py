#!/usr/bin/env python3
"""Cold ``undo``, ``redo``, ``history`` and ``pp jump`` calls against the
size of a session: journal steps, or document elements.

Run from the root of a checkout:

    python3 benchmarks/cold_scaling.py --src src --steps 1000 10000 100000 --runs 5

That varies the journal's steps at the default document size (24k
elements).  Give ``--elements`` several values and ``--steps`` one to
vary the document instead:

    python3 benchmarks/cold_scaling.py --steps 10000 --elements 2400 24000 240000

Give ``--src`` more than once, as ``label=path``, to compare source trees
(say a parent commit and a change, each unpacked with ``git archive``):

    python3 benchmarks/cold_scaling.py --src parent=../parent/src --src change=src

For each size and tree, the cold fixture of ``benchmarks/e2e``
(``workloads.ColdFixture``: a document, its journal and their sidecar,
at the cursor of the last step) is built in a fresh ``python -S``
process that imports that tree, so the sidecar is in that tree's
layout; the blob log (two versions), the autosave set and the watch tree
it also makes are kept small, since these commands do not read them.
The fixture's sidecar holds no step index, so each command runs once
untimed first: the first ``undo`` writes the index, as the first call
of the benchmark's ``cold_cli`` rounds does, and every command fills the
bytecode cache.  Then each run times ``undo -n 3``, ``redo -n 3``,
``history`` and ``pp jump --to 1`` (which rewrites the whole sidecar),
each a fresh ``python -S -m draftvault`` process timed by its wall
clock, for every size on every tree; the order of the trees alternates
from one run to the next.  The report gives each command's p50 over the
runs by size and tree, and its ratio per 10x of size, and names each
command whose p50 more than doubles per 10x.  Writes use the default
``FileIO`` (fsync on).  The standard library is all it needs.  The last
line of standard output is a JSON object.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

E2E = Path(__file__).resolve().parent / "e2e"
COMMANDS = {"undo": ["undo", "{doc}", "-n", "3"], "redo": ["redo", "{doc}", "-n", "3"],
            "history": ["history", "{doc}"], "pp_jump": ["pp", "jump", "{doc}", "--to", "1"]}
# The cold fixture of ``benchmarks/e2e``, with only what these commands
# read kept large; ``sizes`` adds its steps and elements.
FIXTURE = {"blobs": 2, "blob_bytes": 256, "watch_dirs": 0, "watch_files": 0, "watch_file_bytes": 0, "undo_n": 3}


def sizes(steps: list[int], elements: list[int]) -> tuple[str, dict[int, dict]]:
    """The axis that varies, ``steps`` or ``elements``, and by each of its
    values the fixture's journal steps and document elements; the other
    one is fixed.  ValueError when both vary."""
    if len(steps) > 1 and len(elements) > 1:
        raise ValueError("vary --steps or --elements, not both")
    if len(elements) > 1:
        return "elements", {e: {"journal_steps": steps[0], "doc_elements": e} for e in elements}
    return "steps", {n: {"journal_steps": n, "doc_elements": elements[0]} for n in steps}


def build(root: str, steps: int, elements: int, seed: int) -> None:
    """The cold fixture under ``root``, with draftvault importable."""
    sys.path.insert(0, str(E2E))
    from workloads import ColdFixture

    ColdFixture(seed, {**FIXTURE, "journal_steps": steps, "doc_elements": elements}, Path(root))


def _env(src: str, cache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRAFTVAULT_")}
    env.update(PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def call(src: str, cache: Path, doc: Path, command: str) -> float:
    """One cold CLI call; its wall time in ms."""
    argv = [sys.executable, "-S", "-m", "draftvault", *(a.format(doc=doc) for a in COMMANDS[command])]
    started = time.perf_counter()
    proc = subprocess.run(argv, env=_env(src, cache), capture_output=True, text=True)
    elapsed = (time.perf_counter() - started) * 1e3
    if proc.returncode != 0:
        raise SystemExit(f"{command} on {doc} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def summarize(calls: dict) -> dict:
    """``calls[command][size][tree]`` lists the wall times of the runs.
    Returns each command's p50 by tree and size; by tree the ratio of
    the p50s of each pair of successive sizes, scaled to a 10x step
    (``(p50_b / p50_a) ** (1 / log10(b / a))``); and, as ``command/tree``,
    each command whose p50 more than doubles per 10x somewhere."""
    p50, ratio = {}, {}
    for command, by_steps in calls.items():
        lengths = sorted(by_steps, key=int)
        trees = list(by_steps[lengths[0]])
        p50[command] = {tree: {n: statistics.median(by_steps[n][tree]) for n in lengths} for tree in trees}
        ratio[command] = {
            tree: [round((p50[command][tree][b] / p50[command][tree][a]) ** (1 / math.log10(int(b) / int(a))), 3)
                   for a, b in zip(lengths, lengths[1:])]
            for tree in trees
        }
    steep = [f"{command}/{tree}" for command, by_tree in ratio.items() for tree, ratios in by_tree.items()
             if any(r > 2 for r in ratios)]
    return {"p50_ms": p50, "ratio_per_10x": ratio, "over_2x_per_10x": steep}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", help="source tree holding draftvault, as path or label=path")
    ap.add_argument("--steps", type=int, nargs="+", default=[1000, 10000, 100000])
    ap.add_argument("--elements", type=int, nargs="+", default=[24_000], help="document elements")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workdir", help="where the fixtures go (default: a new temporary directory)")
    ap.add_argument("--build", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.build is not None:
        build(args.build, args.steps[0], args.elements[0], args.seed)
        return
    try:
        axis, by_size = sizes(args.steps, args.elements)
    except ValueError as exc:
        ap.error(str(exc))
    trees = [s.split("=", 1) if "=" in s else (s, s) for s in (args.src or ["src"])]
    trees = [(label, str(Path(path).resolve())) for label, path in trees]
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        # A label may be a path, so each tree's files go under its number.
        caches = {label: Path(tmp) / f"tree{i}" / "pycache" for i, (label, _) in enumerate(trees)}
        docs = {}
        for n, sz in by_size.items():
            for label, src in trees:
                root = caches[label].parent / str(n)
                subprocess.run([sys.executable, "-S", __file__, "--build", str(root),
                                "--steps", str(sz["journal_steps"]), "--elements", str(sz["doc_elements"]),
                                "--seed", str(args.seed)], env=_env(src, caches[label]), check=True)
                doc = docs[n, label] = root / "session" / "plant.tcgd"
                for command in COMMANDS:  # untimed: writes the step index, fills the cache
                    call(src, caches[label], doc, command)
        calls = {command: {n: {label: [] for label, _ in trees} for n in by_size} for command in COMMANDS}
        for run in range(args.runs):
            order = trees if run % 2 == 0 else trees[::-1]
            for n in by_size:
                for label, src in order:
                    for command in COMMANDS:
                        ms = call(src, caches[label], docs[n, label], command)
                        calls[command][n][label].append(round(ms, 2))
                        print(f"run {run} {axis} {n} {label} {command}: {ms:.1f} ms", file=sys.stderr)
    print(json.dumps({
        "what": f"cold CLI call wall time against {axis} (see benchmarks/cold_scaling.py)",
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine(), "system": platform.system()},
        "fsync": True,
        "seed": args.seed,
        "trees": dict(trees),
        "axis": axis,
        "fixture": {**FIXTURE, "journal_steps": args.steps, "doc_elements": args.elements},
        "calls_ms": calls,
        **summarize(calls),
    }))


if __name__ == "__main__":
    main()
