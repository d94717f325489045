"""``benchmarks/cold_scaling.py`` sums up synthetic call times: the p50 of
each command by tree and size, the ratio per 10x of size, and the
commands whose p50 more than doubles per 10x.  It varies journal steps or
document elements, and runs end to end on a tiny fixture."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "cold_scaling", Path(__file__).resolve().parents[1] / "benchmarks" / "cold_scaling.py"
)
cold_scaling = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cold_scaling)

CALLS = {
    "undo": {1000: {"parent": [50, 52, 51], "change": [50, 49, 51]},
             10000: {"parent": [90, 95, 100], "change": [52, 51, 50]},
             100000: {"parent": [400, 380, 390], "change": [55, 54, 60]}},
    "history": {1000: {"parent": [30, 31, 29], "change": [30, 30, 30]},
                10000: {"parent": [70, 70, 70], "change": [70, 70, 71]},
                100000: {"parent": [500, 510, 505], "change": [505, 500, 499]}},
}


def test_p50_and_ratio_per_10x():
    summary = cold_scaling.summarize(CALLS)
    assert summary["p50_ms"]["undo"]["parent"] == {1000: 51, 10000: 95, 100000: 390}
    assert summary["p50_ms"]["undo"]["change"] == {1000: 50, 10000: 51, 100000: 55}
    assert summary["ratio_per_10x"]["undo"] == {"parent": [1.863, 4.105], "change": [1.02, 1.078]}
    assert summary["ratio_per_10x"]["history"]["change"] == [2.333, 7.143]
    assert summary["over_2x_per_10x"] == ["undo/parent", "history/parent", "history/change"]


def test_lengths_read_back_from_json_are_ordered_by_number():
    """A BENCH file's lengths are JSON strings: ``"100000"`` sorts after
    ``"10000"``, and a 100x gap scales to a 10x ratio."""
    calls = json.loads(json.dumps({"redo": {1000: {"t": [10]}, 100000: {"t": [40]}, 10000: {"t": [20]}}}))
    summary = cold_scaling.summarize(calls)
    assert list(summary["p50_ms"]["redo"]["t"]) == ["1000", "10000", "100000"]
    assert summary["ratio_per_10x"]["redo"]["t"] == [2.0, 2.0]
    calls = {"redo": {100: {"t": [10]}, 10000: {"t": [40]}}}
    assert cold_scaling.summarize(calls)["ratio_per_10x"]["redo"]["t"] == [2.0]
    assert cold_scaling.summarize(calls)["over_2x_per_10x"] == []


def test_sizes_vary_one_axis():
    assert cold_scaling.sizes([1000, 10000], [24000]) == (
        "steps", {1000: {"journal_steps": 1000, "doc_elements": 24000},
                  10000: {"journal_steps": 10000, "doc_elements": 24000}})
    assert cold_scaling.sizes([10000], [2400, 24000]) == (
        "elements", {2400: {"journal_steps": 10000, "doc_elements": 2400},
                     24000: {"journal_steps": 10000, "doc_elements": 24000}})
    with pytest.raises(ValueError):
        cold_scaling.sizes([1000, 10000], [2400, 24000])


def test_a_small_run_times_each_command_along_the_elements_axis(tmp_path):
    """A tiny fixture along the elements axis: every command, ``pp jump``
    included, runs cold and gets a p50 at each size.  The tree is given
    by its absolute path, which is also its label: its fixtures still go
    under ``--workdir``."""
    proc = subprocess.run(
        [sys.executable, SPEC.origin, "--src", str(Path(SPEC.origin).parents[1] / "src"), "--steps", "20",
         "--elements", "10", "100", "--runs", "1", "--workdir", str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    (label,) = report["trees"]
    assert report["axis"] == "elements"
    assert set(report["p50_ms"]) == {"undo", "redo", "history", "pp_jump"}
    for by_tree in report["p50_ms"].values():
        assert list(by_tree[label]) == ["10", "100"] and all(ms > 0 for ms in by_tree[label].values())
