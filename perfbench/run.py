"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a child process that is single-threaded: the BLAS and
OpenMP thread counts are set to 1 before numpy loads, and the run record
under ``perfbench/out/`` keeps them. Prints one JSON object as the last line
of standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, including the child
process's peak resident memory; with ``--trace 1`` the per-layer ones.
Exits non-zero, printing no result, when the program under ``src/`` is
missing or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIMEOUT_S = 170


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mrhd" / "__init__.py").is_file():
        print(f"run.py: no program to measure at {ROOT / 'src' / 'mrhd'}", file=sys.stderr)
        return 2

    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        child = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
            stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: the run did not end within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(child.stdout)
        print(f"run.py: the run exited with code {child.returncode}", file=sys.stderr)
        return 1
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    result = json.loads(lines[-1])
    if args.trace == 0:
        # ru_maxrss of waited-for children, in KiB on Linux.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
