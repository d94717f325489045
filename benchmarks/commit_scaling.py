#!/usr/bin/env python3
"""In-process cost of ``Journal.commit_step`` against drawing size.

Run from the root of a checkout:

    python3 benchmarks/commit_scaling.py --src src --elements 20000 100000 --runs 3

Give ``--src`` more than once, as ``label=path``, to compare source trees
(say a parent commit and a change, each unpacked with ``git archive``):

    python3 benchmarks/commit_scaling.py --src parent=../parent/src --src change=src

Each run measures every size on every tree, each in a fresh ``python -S``
process, and the order of the trees alternates from one run to the next.
A measurement builds a random drawing of N elements (64 kinds, 16-96 B
payloads), begins a journal session in a temporary directory with the
default ``FileIO`` (fsync on), and times 400 commits of 1-6 changes each.
A change is an add or, with even odds, a delete of a present element
followed by an add; the deletes of a step pick distinct elements.  The
step sequence depends only on ``--seed`` and N, so every tree commits the
same steps.  The standard library is all it needs.  The last line of
standard output is a JSON object with the p50 of each run, in ms, by size
and tree.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

COMMITS = 400


def measure(elements: int, seed: int) -> float:
    """p50 of COMMITS commit_step calls, in ms, with draftvault importable."""
    from draftvault import Drawing, ElementPayload, Journal
    from draftvault.journal import FLAG_ADDED, FLAG_DELETED

    rng = random.Random(seed * 1_000_003 + elements)

    def element() -> ElementPayload:
        return ElementPayload(rng.randrange(64), rng.randbytes(rng.randrange(16, 97)))

    drawing = Drawing(name="scaling", elements=[element() for _ in range(elements)])
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        journal = Journal.begin_session(drawing, Path(tmp) / "scaling.journal")
        try:
            for _ in range(COMMITS):
                deletes = [rng.random() < 0.5 for _ in range(rng.randint(1, 6))]
                picks = iter(rng.sample(range(len(drawing)), sum(deletes)))
                changes = []
                for delete in deletes:
                    if delete:
                        changes.append((FLAG_DELETED, drawing.elements[next(picks)]))
                    changes.append((FLAG_ADDED, element()))
                t0 = perf_counter()
                journal.commit_step(drawing, changes)
                times.append((perf_counter() - t0) * 1e3)
        finally:
            journal.close()
    return statistics.median(times)


def child(src: str, elements: int, seed: int) -> float:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRAFTVAULT_")}
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-S", __file__, "--child", str(elements), "--seed", str(seed)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return float(out.split()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", help="source tree holding draftvault, as path or label=path")
    ap.add_argument("--elements", type=int, nargs="+", default=[20000, 100000])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        print(f"{measure(args.child, args.seed):.4f}")
        return
    trees = [s.split("=", 1) if "=" in s else (s, s) for s in (args.src or ["src"])]
    trees = [(label, str(Path(path).resolve())) for label, path in trees]
    p50 = {n: {label: [] for label, _ in trees} for n in args.elements}
    for run in range(args.runs):
        order = trees if run % 2 == 0 else trees[::-1]
        for n in args.elements:
            for label, path in order:
                p50[n][label].append(round(child(path, n, args.seed), 4))
                print(f"run {run} elements {n} {label}: {p50[n][label][-1]} ms", file=sys.stderr)
    print(json.dumps({
        "what": f"commit_step p50 over {COMMITS} commits per run (see benchmarks/commit_scaling.py)",
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine(), "system": platform.system()},
        "fsync": True,
        "seed": args.seed,
        "trees": dict(trees),
        "p50_ms": p50,
    }))


if __name__ == "__main__":
    main()
