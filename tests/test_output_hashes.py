"""tools/output_hashes.py: the hash table of training and prediction outputs."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mrhd import cli

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tools" / "output_hashes.py"
_spec = importlib.util.spec_from_file_location("output_hashes", _PATH)
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)

TINY = output_hashes.workloads.Workload(
    name="tiny", train_lengths=(5, 7),
    config=dict(seed=0, batch_size=2, d=8, num_queries=2, decoder_layers=1, heads=2),
    epochs=2, heldout_batches=1, tokens=3, d_in=6,
)


def test_table_has_a_row_of_hashes_per_workload(capsys):
    assert output_hashes.main(["--seed", "3", "--workload", "train-overfit"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"seed 3, BLAS core \S+", lines[0])
    assert lines[1] == "| workload | init | params | adam_m | adam_v | breakdown | predict |"
    assert len(lines) == 5 and re.fullmatch(r"\| train-overfit( \| [0-9a-f]{16}){6} \|", lines[3])
    assert re.fullmatch(r"gradcheck [0-9a-f]{16}", lines[4])


def test_gradcheck_line_hashes_the_gradcheck_report(capsys):
    assert cli.main(["gradcheck", "--seed", "3"]) == 0
    report = capsys.readouterr().out
    assert output_hashes.gradcheck_digest(3) == hashlib.sha256(report.encode()).hexdigest()[:16]


def test_rows_repeat_for_a_seed_and_move_with_it():
    first = output_hashes.row(TINY, 0)
    assert output_hashes.row(TINY, 0) == first
    other = output_hashes.row(TINY, 1)
    assert all(other[c] != first[c] for c in output_hashes.COLUMNS)


@pytest.mark.parametrize("core", ["Haswell", "Nehalem"])
def test_fused_kernels_keep_their_bits_under_another_blas_core(core):
    """``tests/test_fused.py`` in a process whose OpenBLAS runs ``core``'s
    kernels: the fused forwards give the primitive compositions' bits on
    that core's BLAS calls too. Skipped where the core does not switch."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    probe = (
        "import importlib.util as u; s = u.spec_from_file_location('h', %r);"
        " m = u.module_from_spec(s); s.loader.exec_module(m); print(m.blas_core())" % str(_PATH)
    )
    runs = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    if runs.stdout.strip() != core:
        pytest.skip(f"OPENBLAS_CORETYPE={core} runs {runs.stdout.strip()} kernels here")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_fused.py"],
        cwd=_ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-2000:]
