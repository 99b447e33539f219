#!/usr/bin/env python3
"""Writes the pair snapshot of a scripts/perf_pairs.sh run to benchmarks/BENCH_<rev>.json.

    python3 scripts/bench_snapshot.py OUT BASE_REV COMPARE_STATUS

OUT is the run's output directory: OUT/base and OUT/change hold one e2e_bench result
line per workload and pair (<workload>-<pair>.json, both runs of a pair on one seed),
and OUT/compare.txt the table of `e2e_bench/steady.py compare`, which exited with
COMPARE_STATUS.  For every workload and end-to-end metric of BENCHMARK.json the
snapshot records each side's median and quartiles (computed as steady.py computes
them), the change's median over the base's, and in how many pairs the change read
better in the metric's direction (ties count for neither side).  <rev> is the short
hash of HEAD, the commit the change side was built from; `dirty` says whether tracked
files differed from it.  Run from the repository root.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def load(directory):
    """{(workload, pair): result} from one side's result lines."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        workload, pair = path.stem.rsplit("-", 1)
        runs[(workload, int(pair))] = json.loads(path.read_text())
    return runs


def summary(spec, base, change):
    """{workload: {metric: statistics over the pairs}}."""
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = sorted(p for (w, p) in base if w == workload and (w, p) in change)
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            a = [base[(workload, p)]["metrics"][name]["value"] for p in pairs]
            b = [change[(workload, p)]["metrics"][name]["value"] for p in pairs]
            if len(pairs) < 2:
                continue
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            ties = sum(x == y for x, y in zip(a, b))
            a_q1, a_med, a_q3 = statistics.quantiles(a, n=4)
            b_q1, b_med, b_q3 = statistics.quantiles(b, n=4)
            out.setdefault(workload, {})[name] = {
                "better": metric["better"],
                "base_median": statistics.median(a),
                "base_q1": a_q1,
                "base_q3": a_q3,
                "change_median": statistics.median(b),
                "change_q1": b_q1,
                "change_q3": b_q3,
                "change_over_base": statistics.median(b) / statistics.median(a),
                "change_wins": wins,
                "ties": ties,
                "pairs": len(pairs),
            }
    return out


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    out, base_rev, status = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    spec = json.loads(Path("BENCHMARK.json").read_text())
    base, change = load(out / "base"), load(out / "change")
    rev = git("rev-parse", "HEAD")
    snapshot = {
        "rev": rev,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "base": git("rev-parse", base_rev),
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "protocol": f"scripts/perf_pairs.sh: {len(base) // max(len(spec['workloads']), 1)} "
                    "alternating pairs per BENCHMARK.json workload (base first in odd "
                    "pairs), both runs of pair i with --seed i, each one "
                    f"e2e_bench/steady.py collect call at --seconds {spec['run_seconds']} "
                    "--trace 0 in its own tree",
        "compare_command": f"python3 e2e_bench/steady.py compare {out}/base {out}/change",
        "compare_exit_status": status,
        "compare_table": (out / "compare.txt").read_text().splitlines(),
        "pair_summary": summary(spec, base, change),
        "base_runs": {f"{w}-{p}": r for (w, p), r in sorted(base.items())},
        "change_runs": {f"{w}-{p}": r for (w, p), r in sorted(change.items())},
    }
    path = Path("benchmarks") / f"BENCH_{git('rev-parse', '--short', rev)}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
