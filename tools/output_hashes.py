"""Print a hash table of everything training and prediction produce.

    python tools/output_hashes.py [--seed N] [--workload NAME ...]

For each benchmark workload shape (``perfbench/workloads.py``) it builds the
first batch from the seed, runs ``trainer.train`` on it with the workload's
config, and hashes the trained params, Adam's first and second moments, the
``repr`` of ``trainer.dataset_breakdown`` on that batch, and the records of
``trainer.predict``: on the held-out queries for a predict workload, on the
batch otherwise. The ``init`` column hashes that breakdown and those records
at the initial parameters, before any step, so a change to the backward
pass alone shows there as equal. Two trees whose tables are equal produce
the same bits; one changed cell names the first stage whose output moved.

A last line hashes the JSON report of ``mrhd gradcheck --seed N`` (the
kernel suite over seeds N to N+2 plus the end-to-end probe at N), so the
same command also shows whether every kernel gradient kept its bits.

BLAS and OpenMP run single-threaded, as in the benchmark, so that a table
does not depend on the thread count. The first line names the OpenBLAS
kernel family the run used: equal tables mean equal bits only on the same
kernel (a DYNAMIC_ARCH build picks it per CPU, or by ``OPENBLAS_CORETYPE``).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from mrhd import gradcheck, trainer  # noqa: E402

COLUMNS = ("init", "params", "adam_m", "adam_v", "breakdown", "predict")


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _arrays_digest(arrays: dict[str, np.ndarray]) -> str:
    return _digest(name.encode() + np.ascontiguousarray(arrays[name]).tobytes() for name in sorted(arrays))


def blas_core() -> str:
    """The kernel family numpy's bundled OpenBLAS runs, or ``unknown``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def row(w: workloads.Workload, seed: int) -> dict[str, str]:
    """The hashes of one workload shape at ``seed``."""
    config = w.train_config()
    batch = workloads.make_videos(w, 1, seed, 0)
    queries = workloads.make_videos(w, w.heldout_batches, seed, 1) if w.heldout_batches else batch

    def outputs(ckpt: trainer.Checkpoint) -> tuple[bytes, bytes]:
        breakdown = trainer.dataset_breakdown(ckpt.params, config, batch)
        return repr(breakdown).encode(), json.dumps(trainer.predict(ckpt, queries)).encode()

    # the parameters ``train`` starts from: its generator's first draws
    params = trainer.init_model(np.random.default_rng(config.seed), *trainer.feature_dims(batch), config)
    init = outputs(trainer.Checkpoint(params=params, config=config, step=0, adam_m={}, adam_v={}))
    ckpt = trainer.train(config, batch)
    breakdown, records = outputs(ckpt)
    return {
        "init": _digest(init),
        "params": _arrays_digest({name: p.data for name, p in ckpt.params.items()}),
        "adam_m": _arrays_digest(ckpt.adam_m),
        "adam_v": _arrays_digest(ckpt.adam_v),
        "breakdown": _digest([breakdown]),
        "predict": _digest([records]),
    }


def gradcheck_digest(seed: int) -> str:
    """The hash of the report ``mrhd gradcheck --seed N`` prints to stdout."""
    report = gradcheck.kernel_suite(range(seed, seed + 3))
    report["end_to_end"] = gradcheck.end_to_end(seed)
    return _digest([(json.dumps(report, indent=2, sort_keys=True) + "\n").encode()])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    print(f"seed {args.seed}, BLAS core {blas_core()}")
    print("| workload | " + " | ".join(COLUMNS) + " |")
    print("| --- " * (len(COLUMNS) + 1) + "|")
    for name in args.workload or workloads.WORKLOADS:
        cells = row(workloads.WORKLOADS[name], args.seed)
        print(f"| {name} | " + " | ".join(cells[c] for c in COLUMNS) + " |", flush=True)
    print(f"gradcheck {gradcheck_digest(args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
