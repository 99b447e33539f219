#!/usr/bin/env bash
# Runs the workspace's criterion bench targets and records the results as a
# machine-readable snapshot `BENCH_<rev>.json`, so the performance trajectory of the
# simulator (and everything built on it) has data points across revisions.
#
# The vendored criterion stub appends one JSON object per benchmark (JSON-lines) to
# the file named by MP_BENCH_JSON; this script wraps those lines into a single JSON
# document carrying the revision, dirty flag and timestamp.
#
# The snapshot file is named after the HEAD revision (or an explicit --label); the
# dirty state is *recorded inside* the JSON rather than baked into the filename, so a
# re-run after committing overwrites the provisional snapshot instead of stranding a
# `BENCH_<rev>-dirty.json` next to it.
#
# Usage:
#   scripts/bench_json.sh [--label NAME] [--compare OLD.json] [output-dir] \
#                         [cargo bench args...]
#
# Extra cargo args *replace* the default `--workspace` (cargo rejects mixing
# `--workspace` with `-p`), so a subset run is e.g.
# `scripts/bench_json.sh artifacts -p mp-bench --bench runtime`.
#
# Examples:
#   scripts/bench_json.sh                      # all bench targets -> ./BENCH_<rev>.json
#   scripts/bench_json.sh artifacts -p mp-bench --bench sim_hot_loop
#   scripts/bench_json.sh --label pr7 benchmarks
#   scripts/bench_json.sh --compare benchmarks/BENCH_aed36b8.json benchmarks
#   MP_BENCH_SAMPLES=3 scripts/bench_json.sh   # quick smoke numbers
set -euo pipefail

cd "$(dirname "$0")/.."

label=""
compare=""
while [[ "${1:-}" == --* || "${1:-}" == "-l" ]]; do
    case "$1" in
        --label|-l)
            label="${2:?--label requires a value}"
            shift 2
            ;;
        --compare)
            compare="${2:?--compare requires an old BENCH_<rev>.json}"
            [[ -f "$compare" ]] || { echo "error: --compare file not found: $compare" >&2; exit 2; }
            shift 2
            ;;
        *)
            echo "error: unknown option $1" >&2
            exit 2
            ;;
    esac
done

out_dir="${1:-.}"
shift || true

rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
dirty=false
if ! git diff --quiet HEAD 2>/dev/null; then
    dirty=true
    echo "warning: working tree is dirty — snapshot records rev ${rev} plus uncommitted changes" >&2
fi
out_file="${out_dir}/BENCH_${label:-$rev}.json"
lines_file="$(mktemp)"
trap 'rm -f "$lines_file"' EXIT

mkdir -p "$out_dir"
MP_BENCH_JSON="$lines_file" cargo bench "${@:---workspace}"

{
    printf '{\n'
    printf '  "rev": "%s",\n' "$rev"
    printf '  "dirty": %s,\n' "$dirty"
    if [[ -n "$label" ]]; then
        printf '  "label": "%s",\n' "$label"
    fi
    printf '  "recorded_utc": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "samples_env": "%s",\n' "${MP_BENCH_SAMPLES:-default}"
    printf '  "results": [\n'
    # Join the JSON lines with commas.
    sed '$!s/$/,/' "$lines_file" | sed 's/^/    /'
    printf '  ]\n'
    printf '}\n'
} > "$out_file"

echo "wrote $out_file ($(wc -l < "$lines_file") benchmarks)"

if [[ -n "$compare" ]]; then
    echo
    cargo run -q --release -p mp-bench --bin bench_gate -- "$compare" "$out_file"
fi
