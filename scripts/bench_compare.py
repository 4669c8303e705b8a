#!/usr/bin/env python3
"""Compare kembench runs of a parent tree and a change against BENCHMARK.json.

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run: the stdout of
`python3 kembench/run.py --workload W ...` (a provenance line naming the
workload, then the result line with "metrics"). For every workload and every
end-to-end metric of BENCHMARK.json the script prints the parent median and
interquartile range (IQR), the change median and the relative delta
(positive = worse, in the metric's "better" direction). A delta larger than
the parent IQR is flagged "beyond-IQR"; a relative delta worse than the
metric's "bound" is flagged "REGRESSION" and makes the exit status 1.
Failed operations are compared as a share of attempted ones, summed over
each side's runs: a faster change attempts more operations in the same
seconds, so its failure count can rise while its share stays level. A higher
change share also makes the exit status 1.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """workload -> list of (metrics, failed, attempted) from every run file."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        workload, result = None, None
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "provenance" in obj:
                workload = obj["provenance"].get("workload")
            if "metrics" in obj:
                result = obj
        if workload is None or result is None:
            sys.exit(f"bench_compare: {path}: no provenance/result line")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(workload, []).append(
            (metrics, result.get("failed", 0), result.get("attempted", 0)))
    if not runs:
        sys.exit(f"bench_compare: no run files in {directory}")
    return runs


def median_iqr(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q3 - q1


def fail_share(runs):
    """Failed / attempted operations, summed over runs (0 when none attempted)."""
    failed = sum(f for _, f, _ in runs)
    attempted = sum(a for _, _, a in runs)
    return failed / attempted if attempted else (float("inf") if failed else 0.0)


def describe_share(runs):
    failed = sum(f for _, f, _ in runs)
    attempted = sum(a for _, _, a in runs)
    return f"{failed}/{attempted} = {fail_share(runs):.3%}"


def compare(parent, change, end_to_end):
    """Print the table; return the number of bound violations."""
    violations = 0
    header = (f"{'workload':<14} {'metric':<18} {'parent p50':>12} {'parent IQR':>11} "
              f"{'change p50':>12} {'delta':>8}  flag")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:<14} (runs missing on one side)")
            violations += 1
            continue
        for metric in end_to_end:
            name = metric["name"]
            pv = [m[name] for m, _, _ in parent[workload] if name in m]
            cv = [m[name] for m, _, _ in change[workload] if name in m]
            if not pv or not cv:
                continue
            p_med, p_iqr = median_iqr(pv)
            c_med = statistics.median(cv)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (c_med - p_med)
            rel = worse / abs(p_med) if p_med else (0.0 if worse == 0 else float("inf"))
            flag = ""
            if abs(c_med - p_med) > p_iqr:
                flag = "beyond-IQR"
            if rel > metric["bound"]:
                flag = f"REGRESSION (bound {metric['bound']:.0%})"
                violations += 1
            print(f"{workload:<14} {name:<18} {p_med:>12.4g} {p_iqr:>11.3g} "
                  f"{c_med:>12.4g} {rel:>+8.1%}  {flag}")
        p_share = fail_share(parent[workload])
        c_share = fail_share(change[workload])
        flag = ""
        if c_share > p_share:
            flag = "FAIL-SHARE REGRESSION"
            violations += 1
        print(f"{workload:<14} runs, failed/attempted: parent {len(parent[workload])}, "
              f"{describe_share(parent[workload])}; change {len(change[workload])}, "
              f"{describe_share(change[workload])}  {flag}")
    return violations


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    end_to_end = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    violations = compare(load_runs(args.parent_dir), load_runs(args.change_dir),
                         end_to_end)
    if violations:
        print(f"\n{violations} end-to-end regression(s) beyond BENCHMARK.json bounds")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
