"""Each workload end to end at a tiny size, and BENCHMARK.json against the code."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

TINY_CONFIG = dict(seed=0, batch_size=2, learning_rate=1e-2, lambda_lg=0.3, d=8, num_queries=3, decoder_layers=1, heads=2)


def _tiny(name):
    w = workloads.WORKLOADS[name]
    return replace(
        w, train_lengths=(8, 10), config=TINY_CONFIG, epochs=3, tokens=3, d_in=8,
        min_moment=4.0, max_moment=8.0, heldout_batches=min(w.heldout_batches, 2),
        batches=min(w.batches, 2), setups=2, setups_per_round=min(w.setups_per_round, 1),
        grad_entries=2,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_at_tiny_size(name, trace, tmp_path):
    result = workloads.run(_tiny(name), seed=1, seconds=0.05, trace=trace, out_dir=tmp_path)
    assert result["correct"], json.loads((tmp_path / f"{name}-seed1-trace{int(trace)}.json").read_text())["details"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = workloads.PER_LAYER if trace else {k: v[0] for k, v in workloads.END_TO_END.items() if k != "peak_rss_mb"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "train-overfit", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
