"""Summarise benchmark run records into one committed ``BENCH_<label>.json``.

    python tools/bench_summary.py --label NAME [--git-sha SHA] [--out DIR] RECORD...
    python tools/bench_summary.py --compare PARENT.json CHANGE.json

Each RECORD is a run record that ``perfbench/run.py`` writes under
``perfbench/out/`` (``<workload>-seed<N>-trace<0|1>.json``). Records are
grouped by workload and by traced or not; every group needs at least three.
For each metric of a group the summary gives the median, the quartiles
(inclusive method), the extremes and the values themselves, and it keeps
the environment the records carry (Python, numpy, BLAS, CPUs, thread
settings), their seeds and run lengths, and whether every run was correct.

The code measured is named by a git SHA: by default the repository's HEAD,
with ``git_dirty`` set when ``src/`` or ``perfbench/`` differ from it.
``--git-sha`` names it instead, for records made in a plain copy of a
commit. The file goes to the repository root unless ``--out`` says where.

``--compare`` reads two such files and prints, for every untraced
workload and end-to-end metric both hold, the two medians, their ratio
(change over parent) and where the change's median lies against the
parent's quartiles: ``below q1``, ``above q3`` or ``inside``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_RECORDS = 3


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def summary(records: list[dict]) -> dict:
    """Per group (``<workload>`` or ``<workload>-traced``): the runs and a
    ``summarise`` of every metric the group's records all report."""
    groups: dict[str, list[dict]] = {}
    for rec in records:
        name = rec["workload"] + ("-traced" if rec["trace"] else "")
        groups.setdefault(name, []).append(rec)
    out = {}
    for name, recs in sorted(groups.items()):
        if len(recs) < MIN_RECORDS:
            raise ValueError(f"{name}: {len(recs)} records, need at least {MIN_RECORDS}")
        metrics = set.intersection(*(set(r["result"]["metrics"]) for r in recs))
        environments = []
        for r in recs:
            if r["environment"] not in environments:
                environments.append(r["environment"])
        out[name] = {
            "runs": len(recs),
            "seeds": [r["seed"] for r in recs],
            "seconds": sorted({r["seconds"] for r in recs}),
            "all_correct": all(r["result"]["correct"] for r in recs),
            "environment": environments[0] if len(environments) == 1 else environments,
            "metrics": {
                m: {
                    "unit": recs[0]["result"]["metrics"][m]["unit"],
                    **summarise([r["result"]["metrics"][m]["value"] for r in recs]),
                }
                for m in sorted(metrics)
            },
        }
    return out


def compare(parent: dict, change: dict) -> list[dict]:
    """One row per untraced workload and metric of ``change`` that
    ``parent`` also reports."""
    rows = []
    for name, group in sorted(change["workloads"].items()):
        if name.endswith("-traced"):
            continue
        base = parent["workloads"].get(name, {}).get("metrics", {})
        for metric, stats in sorted(group["metrics"].items()):
            if metric not in base:
                continue
            before, after = base[metric], stats["median"]
            if after < before["q1"]:
                where = "below q1"
            elif after > before["q3"]:
                where = "above q3"
            else:
                where = "inside"
            rows.append({
                "workload": name, "metric": metric, "unit": stats["unit"],
                "parent": before["median"], "change": after,
                "ratio": after / before["median"] if before["median"] else None,
                "vs_parent_quartiles": where,
            })
    return rows


def _print_comparison(rows: list[dict]) -> None:
    print(f"{'workload':<15} {'metric':<13} {'parent':>11} {'change':>11} {'ratio':>7}  vs parent quartiles")
    for r in rows:
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}"
        print(
            f"{r['workload']:<15} {r['metric']:<13} {r['parent']:>11.4g} {r['change']:>11.4g}"
            f" {ratio:>7}  {r['vs_parent_quartiles']}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", help="the file is BENCH_<label>.json")
    parser.add_argument("--git-sha", help="the commit measured (default: HEAD)")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                        help="print the end-to-end medians of two BENCH files side by side")
    parser.add_argument("records", nargs="*", type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        if args.label or args.records:
            parser.error("--compare takes no --label and no records")
        parent, change = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        _print_comparison(compare(parent, change))
        return 0
    if not args.label or not args.records:
        parser.error("--label and at least one record are required")

    records = [json.loads(path.read_text(encoding="utf-8")) for path in args.records]
    try:
        workloads = summary(records)
    except ValueError as e:
        print(f"bench_summary: {e}", file=sys.stderr)
        return 1
    if args.git_sha:
        sha, dirty = args.git_sha, False
    else:
        sha, dirty = _git("rev-parse", "HEAD"), bool(_git("status", "--porcelain", "--", "src", "perfbench"))
    bench = {
        "label": args.label,
        "git_sha": sha,
        "git_dirty": dirty,
        "records": [path.name for path in args.records],
        "workloads": workloads,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
