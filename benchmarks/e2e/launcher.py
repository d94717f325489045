"""Starts the benchmark's measured child processes: ``python3 -S launcher.py``.

A child's ``ru_maxrss`` starts from the high-water RSS of the process that
spawned it, and the benchmark parent holds large fixtures.  So ``run.py``
starts this small process first and has it spawn every measured child.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "cwd"}``;
one JSON reply per line on stdout, ``{"rc", "out", "err", "wall", "rss_mb"}``
with the child's exit code, stdout, the tail of its stderr when it failed,
wall seconds from spawn to reap, and peak RSS in MB from ``os.wait4``.
"""
import json
import os
import subprocess
import sys
import tempfile
from time import perf_counter


def run(argv: list[str], env: dict, cwd: str) -> dict:
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-600:] if rc else b""
    return {"rc": rc, "out": out.decode(errors="replace"), "err": tail.decode(errors="replace"),
            "wall": wall, "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(run(request["argv"], request["env"], request["cwd"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
