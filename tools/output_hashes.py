"""Print a hash table of everything training and prediction produce.

    python tools/output_hashes.py [--seed N] [--workload NAME ...]

For each benchmark workload shape (``perfbench/workloads.py``) it builds the
first batch from the seed, runs ``trainer.train`` on it with the workload's
config, and hashes the trained params, Adam's first and second moments, the
``repr`` of ``trainer.dataset_breakdown`` on that batch, and the records of
``trainer.predict``: on the held-out queries for a predict workload, on the
batch otherwise. Two trees whose tables are equal produce the same bits;
one changed cell names the first stage whose output moved.

BLAS and OpenMP run single-threaded, as in the benchmark, so that a table
does not depend on the thread count.
"""

from __future__ import annotations

import argparse
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
from mrhd import trainer  # noqa: E402

COLUMNS = ("params", "adam_m", "adam_v", "breakdown", "predict")


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _arrays_digest(arrays: dict[str, np.ndarray]) -> str:
    return _digest(name.encode() + np.ascontiguousarray(arrays[name]).tobytes() for name in sorted(arrays))


def row(w: workloads.Workload, seed: int) -> dict[str, str]:
    """The hashes of one workload shape at ``seed``."""
    config = w.train_config()
    batch = workloads.make_videos(w, 1, seed, 0)
    ckpt = trainer.train(config, batch)
    queries = workloads.make_videos(w, w.heldout_batches, seed, 1) if w.heldout_batches else batch
    records = trainer.predict(ckpt, queries)
    return {
        "params": _arrays_digest({name: p.data for name, p in ckpt.params.items()}),
        "adam_m": _arrays_digest(ckpt.adam_m),
        "adam_v": _arrays_digest(ckpt.adam_v),
        "breakdown": _digest([repr(trainer.dataset_breakdown(ckpt.params, config, batch)).encode()]),
        "predict": _digest([json.dumps(records).encode()]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    print(f"seed {args.seed}")
    print("| workload | " + " | ".join(COLUMNS) + " |")
    print("| --- " * (len(COLUMNS) + 1) + "|")
    for name in args.workload or workloads.WORKLOADS:
        cells = row(workloads.WORKLOADS[name], args.seed)
        print(f"| {name} | " + " | ".join(cells[c] for c in COLUMNS) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
