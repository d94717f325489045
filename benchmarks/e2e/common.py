"""Inputs, reference encodings and statistics shared by the benchmark's processes.

Everything here depends only on the workload seed and the size table, never
on the program under test: the document, journal and blob-log encoders
follow the frozen TCGD/TCGJ/TCGP layouts, so the benchmark can build large
fixtures quickly and compare the program's outputs with bytes it derived on
its own.
"""
from __future__ import annotations

import gc
import math
import os
import random
import statistics
import struct
import zlib
from collections import Counter
from time import perf_counter

KINDS = 64
FLAG_DELETED = 0x00
FLAG_ADDED = 0x01
FLAG_COMMIT = 0x02

SIZES = {
    "full": {
        "edit": {"elements": 20_000, "sessions": 4, "ops_per_round": 500, "min_commits": 1000,
                 "blob_bytes": 4096, "autosave_interval": 30, "trace_rounds": 2},
        "scripted": {"steps": (500, 2000), "pp_every": 50, "pp_bytes": 1024,
                     "autosave_interval": 30},
        "cold": {"doc_elements": 24_000, "journal_steps": 10_000, "blobs": 200,
                 "blob_bytes": 16_384, "watch_dirs": 4, "watch_files": 10,
                 "watch_file_bytes": 200_000, "undo_n": 3, "min_calls": 100,
                 "trace_rounds": 3},
    },
    "tiny": {
        "edit": {"elements": 400, "sessions": 2, "ops_per_round": 40, "min_commits": 20,
                 "blob_bytes": 256, "autosave_interval": 5, "trace_rounds": 1},
        "scripted": {"steps": (20, 60), "pp_every": 10, "pp_bytes": 64,
                     "autosave_interval": 5},
        "cold": {"doc_elements": 300, "journal_steps": 40, "blobs": 5,
                 "blob_bytes": 256, "watch_dirs": 1, "watch_files": 3,
                 "watch_file_bytes": 4000, "undo_n": 3, "min_calls": 10,
                 "trace_rounds": 1},
    },
}


def rng_for(seed: int, *labels) -> random.Random:
    """Independent deterministic stream per (seed, purpose)."""
    return random.Random("/".join(map(str, (seed,) + labels)))


def random_element(rng: random.Random, lo: int = 16, hi: int = 96) -> tuple[int, bytes]:
    return rng.randrange(KINDS), rng.randbytes(rng.randint(lo, hi))


def write_synced(path, data: bytes) -> None:
    """Write an input file and flush it to disk, so that its write-back
    lands in set-up and not in the measured loop that follows."""
    with open(path, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())


# -- reference encoders (frozen on-disk layouts) -------------------------------


def encode_drawing(elements) -> bytes:
    parts = [struct.pack("<4sHI", b"TCGD", 1, len(elements))]
    parts.extend(struct.pack("<HI", kind, len(data)) + data for kind, data in elements)
    return b"".join(parts)


def decode_drawing(data: bytes) -> list[tuple[int, bytes]]:
    magic, version, count = struct.unpack_from("<4sHI", data, 0)
    if magic != b"TCGD" or version != 1:
        raise ValueError("not a version-1 drawing")
    out, pos = [], 10
    for _ in range(count):
        kind, n = struct.unpack_from("<HI", data, pos)
        out.append((kind, data[pos + 6:pos + 6 + n]))
        pos += 6 + n
    if pos != len(data):
        raise ValueError("trailing bytes after the last element")
    return out


JOURNAL_HEADER = b"TCGJ" + struct.pack("<H", 1)
PP_HEADER = b"TCGP" + struct.pack("<H", 1)


def _record(step_no: int, flag: int, kind: int, payload: bytes) -> bytes:
    body = struct.pack("<IBHI", step_no, flag, kind, len(payload)) + payload
    return body + struct.pack("<I", zlib.crc32(body))


def encode_step(step_no: int, changes) -> bytes:
    parts = [_record(step_no, flag, kind, data) for flag, (kind, data) in changes]
    parts.append(_record(step_no, FLAG_COMMIT, 0, b""))
    return b"".join(parts)


def encode_journal(steps) -> bytes:
    return JOURNAL_HEADER + b"".join(encode_step(i + 1, changes) for i, changes in enumerate(steps))


def encode_pp_log(blobs) -> bytes:
    parts = [PP_HEADER]
    for blob in blobs:
        body = struct.pack("<I", len(blob)) + blob
        parts.append(body + struct.pack("<I", zlib.crc32(body)))
    return b"".join(parts)


# -- list oracle -----------------------------------------------------------------


class Oracle:
    """Reference model of a drawing under a step journal.

    An add appends; a delete removes the most recently inserted equal
    element; undo inverts a step last record first at the recorded
    positions; a commit drops the redo tail.  ``make_step`` draws a random
    step and applies it at once, so delete targets are chosen uniformly
    from the list as it stands at that record.
    """

    def __init__(self, elements):
        self.elements = list(elements)
        self.counts = Counter(self.elements)
        self.steps: list[list] = []  # changes per step, as (flag, (kind, data))
        self.positions: list[list[int]] = []
        self.cursor = 0

    def _add(self, el) -> int:
        self.elements.append(el)
        self.counts[el] += 1
        return len(self.elements) - 1

    def _delete(self, el, hint: int | None = None) -> int:
        if hint is None or self.counts[el] > 1:
            hint = len(self.elements) - 1 - self.elements[::-1].index(el)
        del self.elements[hint]
        self.counts[el] -= 1
        return hint

    def _apply(self, changes) -> list[int]:
        return [self._add(el) if flag == FLAG_ADDED else self._delete(el) for flag, el in changes]

    def make_step(self, rng: random.Random, n_changes: int, p_add: float, modify: bool) -> list:
        """Draw and apply one step of ``n_changes`` changes.  A change is an
        add with probability ``p_add``; otherwise it deletes a uniformly
        chosen existing element and, when ``modify`` is set, adds a new one
        in its place."""
        changes, positions = [], []
        for _ in range(n_changes):
            if self.elements and rng.random() >= p_add:
                i = rng.randrange(len(self.elements))
                el = self.elements[i]
                positions.append(self._delete(el, i))
                changes.append((FLAG_DELETED, el))
                if not modify:
                    continue
            el = random_element(rng)
            positions.append(self._add(el))
            changes.append((FLAG_ADDED, el))
        self._push(changes, positions)
        return changes

    def _push(self, changes, positions) -> None:
        del self.steps[self.cursor:]
        del self.positions[self.cursor:]
        self.steps.append(changes)
        self.positions.append(positions)
        self.cursor += 1

    def undo(self) -> None:
        i = self.cursor - 1
        for (flag, el), pos in zip(reversed(self.steps[i]), reversed(self.positions[i])):
            if flag == FLAG_ADDED:
                del self.elements[pos]
                self.counts[el] -= 1
            else:
                self.elements.insert(pos, el)
                self.counts[el] += 1
        self.cursor = i

    def redo(self) -> None:
        self.positions[self.cursor] = self._apply(self.steps[self.cursor])
        self.cursor += 1


# -- statistics ------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0



class SetupClock:
    """Times the builds of a workload's inputs; ``setup_s`` is their median.

    The first build feeds the measured loop; the others run after it.  The
    collector runs before each build and is paused during it, so that
    garbage the benchmark left behind does not decide the figure."""

    def __init__(self):
        self.times: list[float] = []

    def time(self, build):
        gc.collect()
        gc.disable()
        t0 = perf_counter()
        try:
            return build()
        finally:
            self.times.append(perf_counter() - t0)
            gc.enable()
