"""``benchmarks/bench_pairs.py`` reads synthetic runs as the rule for an
unresolved metric says: a parent spread wider than the bound leaves a
metric unresolved unless every change run beats every parent run."""
import importlib.util
import json
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "benchmarks" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def _runs(parent: dict, change: dict) -> list[dict]:
    """One workload's pairs, each side's metric values given by name."""
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for pair in range(len(values["op_p50_ms"])):
            metrics = {name: {"value": values[name][pair]} for name in values}
            runs.append({"workload": "w", "trace": 0, "pair": pair, "side": side, "exit_code": 0,
                         "result": {"metrics": metrics, "attempted": 10, "failed": 0}})
    return runs


def test_a_narrow_parent_spread_is_resolved():
    rows = bench_pairs.summarize(
        _runs({"op_p50_ms": [10, 10.5, 11, 10.2], "ops_per_s": [100, 101, 99, 100]},
              {"op_p50_ms": [10.1, 10.4, 11.2, 10.3], "ops_per_s": [100, 98, 101, 99]}),
        METRICS, set())["w"]
    assert "unresolved" not in rows["op_p50_ms"] and "unresolved" not in rows["ops_per_s"]
    assert rows["op_p50_ms"]["within_bound"] and rows["ops_per_s"]["within_bound"]


def test_a_wide_parent_spread_is_unresolved_unless_every_change_run_wins():
    wide_p50, wide_rate = [6, 10, 14, 20], [60, 100, 140, 200]
    rows = bench_pairs.summarize(
        _runs({"op_p50_ms": wide_p50, "ops_per_s": wide_rate},
              {"op_p50_ms": [5, 10, 13, 19], "ops_per_s": [70, 90, 150, 210]}),
        METRICS, set())["w"]
    assert rows["op_p50_ms"]["unresolved"] is True
    assert rows["ops_per_s"]["unresolved"] is True
    rows = bench_pairs.summarize(
        _runs({"op_p50_ms": wide_p50, "ops_per_s": wide_rate},
              {"op_p50_ms": [5, 5.5, 4, 5.9], "ops_per_s": [201, 250, 300, 220]}),
        METRICS, set())["w"]
    assert "unresolved" not in rows["op_p50_ms"] and "unresolved" not in rows["ops_per_s"]


def test_the_per_command_p50s_of_a_run_are_kept_and_summed_up():
    """A run's info line gives ``detail.command_p50_ms``: the run keeps it,
    and the summary has each command's median per side."""
    info = {"info": {"workload": "w", "detail": {"calls": 4, "command_p50_ms": {"undo": 70.0, "verify": 50.0}}}}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {"op_p50_ms": {"value": 60.0}}}
    stdout = f"{json.dumps(info)}\n{json.dumps(result)}\n"
    fields = bench_pairs.read_output(stdout)
    assert fields == {"result": result, "command_p50_ms": {"undo": 70.0, "verify": 50.0}}
    assert bench_pairs.read_output(json.dumps(result) + "\n") == {"result": result}  # no info line
    assert bench_pairs.read_output("Traceback ...\n") == {"result": None}

    runs = _runs({"op_p50_ms": [10, 11, 12], "ops_per_s": [1, 1, 1]},
                 {"op_p50_ms": [9, 10, 11], "ops_per_s": [1, 1, 1]})
    for r, (undo, verify) in zip(runs, [(70, 50), (72, 51), (71, 52), (60, 40), (61, 41), (80, 42)]):
        r["command_p50_ms"] = {"undo": undo, "verify": verify}
    rows = bench_pairs.summarize(runs, METRICS, set())["w"]
    assert rows["command_p50_ms"] == {"undo": {"parent": 71, "change": 61}, "verify": {"parent": 51, "change": 41}}
