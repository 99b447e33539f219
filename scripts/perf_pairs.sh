#!/usr/bin/env bash
# Compares the end-to-end benchmark of the working tree against a base revision.
#
# 1. Checks BASE out into a temporary clone of the repository.  Every run goes through
#    `e2e_bench/steady.py collect` in its own tree, which runs BENCHMARK.json's command
#    (`cargo run --release` of e2e_bench, so each side builds its own binary with its own
#    references compiled in) at BENCHMARK.json's run_seconds.
# 2. Runs PAIRS alternating pairs per workload named in BENCHMARK.json; the side that
#    runs first swaps from pair to pair.  Both runs of pair i use seed i.
# 3. Keeps each run's result line as target/perf_pairs/{base,change}/<workload>-<i>.json.
# 4. Exits with the status of `e2e_bench/steady.py compare` over the two sets, whose
#    table is also kept as target/perf_pairs/compare.txt: for every workload and
#    end-to-end metric, both spreads within the metric's bound in BENCHMARK.json and
#    the change's median no worse than the base's by more than that bound.
# 5. Writes the snapshot benchmarks/BENCH_<short HEAD>.json (scripts/bench_snapshot.py):
#    per workload and end-to-end metric, both medians and quartiles and the change's
#    per-pair win count, plus the compare table and every run's result line.  Commit it
#    with the change it measures.
#
# Usage: scripts/perf_pairs.sh BASE   (a revision, e.g. HEAD~1)
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"

PAIRS=10
OUT=target/perf_pairs

base_rev="$(git rev-parse --verify "${1:?usage: scripts/perf_pairs.sh BASE}^{commit}")"

# e2e_bench refuses to start when an MP_* setting could change what runs.
while read -r name; do unset "$name"; done < <(compgen -e | grep '^MP_' || true)

base="$(mktemp -d)"
trap 'rm -rf "$base"' EXIT
git clone -q --no-checkout "$root" "$base"
git -C "$base" checkout -q --detach "$base_rev"

rm -rf "$OUT"
mkdir -p "$OUT/base" "$OUT/change"

# collect SIDE TREE WORKLOAD SEED
collect() {
    (cd "$2" && python3 e2e_bench/steady.py collect "$root/$OUT/$1" \
        --runs 1 --first-seed "$4" --workloads "$3") >&2
}

workloads="$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for workload in $workloads; do
    for ((i = 1; i <= PAIRS; i++)); do
        echo "== $workload pair $i/$PAIRS" >&2
        if ((i % 2)); then
            collect base "$base" "$workload" "$i"
            collect change "$root" "$workload" "$i"
        else
            collect change "$root" "$workload" "$i"
            collect base "$base" "$workload" "$i"
        fi
    done
done

status=0
python3 e2e_bench/steady.py compare "$OUT/base" "$OUT/change" | tee "$OUT/compare.txt" || status=$?
python3 scripts/bench_snapshot.py "$OUT" "$base_rev" "$status"
exit "$status"
