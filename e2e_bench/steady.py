#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 e2e_bench/steady.py collect DIR [--runs 10] [--first-seed 1] [--workloads a,b]
    python3 e2e_bench/steady.py compare DIR_A DIR_B

`collect` runs the command in BENCHMARK.json once per workload and seed (untraced) and
keeps each run's result line as DIR/<workload>-<seed>.json.  `compare` reads two such
sets made from the same build and prints, for every workload x end-to-end metric, both
medians, both quartile spreads (IQR as a share of the median) and whether the two sets
agree within the metric's bound: each spread (except setup_s's) within the bound, and
the second median no worse than the first by more than the bound.  Run from the
repository root.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def collect(out, runs, first_seed, workloads):
    out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in range(first_seed, first_seed + runs):
            args = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
            (out / f"{workload}-{seed}.json").write_text(lines[-1] + "\n")
            values = json.loads(lines[-1])["metrics"]
            print(workload, seed, " ".join(f"{k}={v['value']:.6g}" for k, v in values.items()),
                  flush=True)


def load(directory):
    """{workload: {metric: [values]}} from one result set."""
    sets = {}
    for path in sorted(Path(directory).glob("*.json")):
        workload = path.stem.rsplit("-", 1)[0]
        result = json.loads(path.read_text())
        if not result["correct"] or result["failed"]:
            sys.exit(f"{path}: the run failed")
        for name, metric in result["metrics"].items():
            sets.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return sets


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(dir_a, dir_b):
    a, b = load(dir_a), load(dir_b)
    ok = True
    print(f"{'workload':<18} {'metric':<18} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'B vs A':>8} {'bound':>6}  agree")
    for workload in sorted(a):
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a[workload].get(name), b.get(workload, {}).get(name)
            if not va or not vb or len(va) < 2 or len(vb) < 2:
                print(f"{workload:<18} {name:<18} missing")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            change = mb / ma - 1
            worse = change if metric["better"] == "lower" else -change
            agree = worse <= bound and (name == "setup_s" or (sa <= bound and sb <= bound))
            ok &= agree
            print(f"{workload:<18} {name:<18} {ma:>12.6g} {mb:>12.6g} {sa:>9.2%} {sb:>9.2%} "
                  f"{change:>+8.2%} {bound:>6.2f}  {'yes' if agree else 'NO'}")
    return ok


def main():
    argv = sys.argv[1:]
    if len(argv) >= 2 and argv[0] == "collect":
        opts = dict(zip(argv[2::2], argv[3::2]))
        workloads = opts.get("--workloads")
        collect(Path(argv[1]), int(opts.get("--runs", 10)), int(opts.get("--first-seed", 1)),
                workloads.split(",") if workloads else [w["name"] for w in SPEC["workloads"]])
    elif len(argv) == 3 and argv[0] == "compare":
        sys.exit(0 if compare(argv[1], argv[2]) else 1)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
