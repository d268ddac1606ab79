"""tools/bench_summary.py: medians and quartiles of benchmark run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "blas": None, "cpus": 2, "threads": {}}


def _record(tmp_path, workload, seed, op_ms, trace=0, correct=True):
    rec = {
        "workload": workload, "seed": seed, "seconds": 30.0, "trace": bool(trace),
        "environment": ENV,
        "result": {"correct": correct, "attempted": 9, "failed": 0,
                   "metrics": {"op_ms": {"value": op_ms, "unit": "ms"}}},
    }
    path = tmp_path / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(rec))
    return path


def test_summary_per_workload(tmp_path):
    paths = [_record(tmp_path, "train-long", s, v) for s, v in ((1, 30.0), (2, 10.0), (3, 20.0), (4, 40.0))]
    paths += [_record(tmp_path, "predict-eval", s, 5.0, correct=s != 2) for s in (1, 2, 3)]
    code = bench_summary.main(["--label", "x", "--git-sha", "abc", "--out", str(tmp_path), *map(str, paths)])
    assert code == 0
    bench = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert bench["git_sha"] == "abc" and not bench["git_dirty"]
    long = bench["workloads"]["train-long"]
    assert long["runs"] == 4 and long["all_correct"] and long["environment"] == ENV
    op = long["metrics"]["op_ms"]
    assert (op["median"], op["q1"], op["q3"], op["min"], op["max"]) == (25.0, 17.5, 32.5, 10.0, 40.0)
    assert op["unit"] == "ms" and op["values"] == [30.0, 10.0, 20.0, 40.0]
    assert not bench["workloads"]["predict-eval"]["all_correct"]


def test_summary_needs_three_records_per_group(tmp_path):
    paths = [_record(tmp_path, "train-long", s, 1.0) for s in (1, 2, 3)]
    paths.append(_record(tmp_path, "train-long", 1, 1.0, trace=1))
    with pytest.raises(ValueError, match="train-long-traced: 1 records"):
        bench_summary.summary([json.loads(p.read_text()) for p in paths])


def _bench(tmp_path, label, values_by_workload):
    paths = []
    for workload, values in values_by_workload.items():
        trace = int(workload.endswith("-traced"))
        name = workload.removesuffix("-traced")
        paths += [_record(tmp_path, name, seed, v, trace=trace) for seed, v in enumerate(values)]
    assert bench_summary.main(["--label", label, "--git-sha", "abc", "--out", str(tmp_path), *map(str, paths)]) == 0
    for path in paths:
        path.unlink()
    return tmp_path / f"BENCH_{label}.json"


def test_compare_medians_and_parent_quartiles(tmp_path, capsys):
    parent = _bench(tmp_path, "parent", {
        "train-long": [10.0, 11.0, 12.0, 13.0, 14.0],  # q1 11, median 12, q3 13
        "predict-eval": [20.0, 20.0, 20.0],
        "predict-eval-traced": [1.0, 1.0, 1.0],
    })
    change = _bench(tmp_path, "change", {
        "train-long": [12.5, 12.5, 12.5],
        "predict-eval": [5.0, 6.0, 7.0],
        "predict-eval-traced": [9.0, 9.0, 9.0],
        "train-overfit": [1.0, 1.0, 1.0],
    })
    rows = bench_summary.compare(*(json.loads(p.read_text()) for p in (parent, change)))
    assert [(r["workload"], r["metric"]) for r in rows] == [("predict-eval", "op_ms"), ("train-long", "op_ms")]
    pe, tl = rows
    assert (pe["parent"], pe["change"], pe["ratio"], pe["vs_parent_quartiles"]) == (20.0, 6.0, 0.3, "below q1")
    assert (tl["parent"], tl["change"], tl["vs_parent_quartiles"]) == (12.0, 12.5, "inside")

    capsys.readouterr()
    assert bench_summary.main(["--compare", str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["predict-eval", "op_ms", "20", "6", "0.300", "below", "q1"]
    assert lines[2].split() == ["train-long", "op_ms", "12", "12.5", "1.042", "inside"]


def test_compare_takes_no_records(tmp_path):
    with pytest.raises(SystemExit):
        bench_summary.main(["--compare", "a.json", "b.json", "--label", "x"])
    with pytest.raises(SystemExit):
        bench_summary.main(["--label", "x"])
