#!/usr/bin/env bash
# Checks that the paper's numbers do not depend on the environment that produces them.
#
# 1. Suite sweep, at each worker count: the whole workspace suite (which includes the
#    `paper_report` pin) plain, with telemetry on and under delay-only faults, and the
#    store and resilience suites under IO, torn-write and panic faults.
# 2. Release matrix: `reproduce_all quick` under worker count × telemetry {off,on} ×
#    delay faults {off,on} × store {none, cold, warm, faulted}.  Every report must equal
#    e2e_bench/refs/paper_quick.txt, every warm run must be served entirely from disk,
#    and every telemetry run must print a summary and write a loadable Chrome trace.
# 3. `reproduce_all standard` at each worker count must equal tests/refs/paper_standard.txt
#    (its families span five core counts; quick's span three).
# 4. One `reproduce_all full` run at the default worker count must equal
#    tests/refs/paper_full.txt (the only scale whose Table 2 matches the paper; about a
#    minute and 320 MB on a 2-CPU host).
#
# Stops at the first failure, naming the environment that produced it.  Each matrix
# run's stdout, stderr and trace are kept in the output directory as
# `<name>.{txt,err,trace.json}`, named like `mp1-telemetry_on-delay_off-store_warm`.
#
# Usage: scripts/check_determinism.sh [output-dir]   (default: target/determinism)
set -euo pipefail

cd "$(dirname "$0")/.."

WORKER_COUNTS=(1 8)
DELAY_FAULTS="delay=0.25"
REFERENCE=e2e_bench/refs/paper_quick.txt
STANDARD_REFERENCE=tests/refs/paper_standard.txt
FULL_REFERENCE=tests/refs/paper_full.txt
REPORT_BIN="${CARGO_TARGET_DIR:-target}/release/reproduce_all"

out="${1:-target/determinism}"
mkdir -p "$out"
stores="$(mktemp -d)"
trap 'rm -rf "$stores"' EXIT

# Start from a clean environment: an ambient MP_* setting would leak into every run.
while read -r name; do unset "$name"; done < <(compgen -e | grep '^MP_' || true)

label=""
fail() {
    echo "check_determinism: FAILED [$label]: $*" >&2
    exit 1
}

# `env VAR=value... command...`: values reach the command as separate arguments, never
# re-parsed as shell text.
suite() {
    label="$*"
    echo "== $label" >&2
    env "$@" || fail "test suite failed"
}

for threads in "${WORKER_COUNTS[@]}"; do
    suite MP_THREADS="$threads" cargo test -q --workspace
    suite MP_THREADS="$threads" MP_TELEMETRY=1 cargo test -q --workspace
    suite MP_THREADS="$threads" MP_FAULTS="seed=7,$DELAY_FAULTS" cargo test -q --workspace
    suite MP_THREADS="$threads" MP_FAULTS="seed=1337,io=0.1,torn=0.1,panic=0.1,delay=0.2" \
        cargo test -q -p mp-integration --test fault_injection --test store_persistence
done

cargo build --release -q -p mp-bench --bin reproduce_all

for threads in "${WORKER_COUNTS[@]}"; do
for telemetry in off on; do
for delay in off on; do
for store in none cold warm faulted; do
    name="mp$threads-telemetry_$telemetry-delay_$delay-store_$store"
    label="MP_THREADS=$threads telemetry=$telemetry delay=$delay store=$store"
    echo "== $label" >&2
    vars=(MP_THREADS="$threads")
    faults=""
    case "$store" in
        cold) vars+=(MP_STORE_DIR="$stores/$name") ;;
        # The warm run reopens the store its cold sibling just filled.
        warm) vars+=(MP_STORE_DIR="$stores/${name%warm}cold") ;;
        faulted) vars+=(MP_STORE_DIR="$stores/$name") faults="seed=99,io=0.2,torn=0.2" ;;
    esac
    [[ "$delay" == off ]] || faults="${faults:-seed=7},$DELAY_FAULTS"
    [[ -z "$faults" ]] || vars+=(MP_FAULTS="$faults")
    [[ "$telemetry" == off ]] || vars+=(MP_TELEMETRY=1 MP_TELEMETRY_TRACE="$out/$name.trace.json")

    env "${vars[@]}" "$REPORT_BIN" quick >"$out/$name.txt" 2>"$out/$name.err" \
        || fail "reproduce_all exited with status $? (stderr: $out/$name.err)"
    # stdout is the report plus println!'s trailing newline.
    sed '$d' "$out/$name.txt" | diff - "$REFERENCE" >&2 \
        || fail "report differs from $REFERENCE (see $out/$name.txt)"
    if [[ "$store" == warm ]]; then
        grep -qF -- "— 687 disk hits, 0 misses, 0 writes, 0 quarantined" "$out/$name.err" \
            || fail "warm store was not served entirely from disk (see $out/$name.err)"
    fi
    if [[ "$telemetry" == on ]]; then
        grep -q '# Telemetry' "$out/$name.err" || fail "no telemetry summary on stderr"
        python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$out/$name.trace.json" \
            || fail "$out/$name.trace.json is not valid JSON"
    fi
done
done
done
done

for threads in "${WORKER_COUNTS[@]}"; do
    name="mp$threads-standard"
    label="MP_THREADS=$threads standard"
    echo "== $label" >&2
    env MP_THREADS="$threads" "$REPORT_BIN" standard >"$out/$name.txt" 2>"$out/$name.err" \
        || fail "reproduce_all exited with status $? (stderr: $out/$name.err)"
    sed '$d' "$out/$name.txt" | diff - "$STANDARD_REFERENCE" >&2 \
        || fail "report differs from $STANDARD_REFERENCE (see $out/$name.txt)"
done

label="full"
echo "== $label" >&2
"$REPORT_BIN" full >"$out/full.txt" 2>"$out/full.err" \
    || fail "reproduce_all exited with status $? (stderr: $out/full.err)"
sed '$d' "$out/full.txt" | diff - "$FULL_REFERENCE" >&2 \
    || fail "report differs from $FULL_REFERENCE (see $out/full.txt)"

echo "check_determinism: all runs passed and equal $REFERENCE, $STANDARD_REFERENCE and" \
    "$FULL_REFERENCE" >&2
