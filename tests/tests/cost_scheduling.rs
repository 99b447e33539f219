//! Property + regression tests for the cost hint of `mp_runtime`'s parallel map.
//!
//! The hint may *route* a batch inline on the caller or onto scoped worker threads,
//! but the routing must be invisible in the results: for every adversarial job-size
//! mix, every cost hint and every worker count in `1..=8`,
//! `par_map_with_workers_and_cost` must be byte-identical to the plain serial loop.
//! The regression test then pins the routing guarantee the benchmarks rely on: cheap
//! hinted batches never leave the caller's thread.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

use mp_runtime::{par_map_with_workers_and_cost, CostHint};
use proptest::prelude::*;

/// A deterministic integer-mixing job whose cost scales with `rounds` — the knob the
/// adversarial mixes turn.
fn spin(rounds: u32, x: u64) -> u64 {
    let mut v = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    for _ in 0..rounds {
        v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13) ^ x;
    }
    v
}

/// Adversarial job-size mixes, expressed as per-item `rounds` values: all-tiny,
/// all-huge, bimodal (tiny/huge interleaved), a single job, and a random mix.
fn job_mixes() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        (1usize..=64).prop_map(|n| vec![8u32; n]),
        (1usize..=8).prop_map(|n| vec![4096u32; n]),
        (2usize..=32).prop_map(|n| (0..n).map(|i| if i % 2 == 0 { 8u32 } else { 4096 }).collect()),
        Just(vec![4096u32]),
        proptest::collection::vec(0u32..2048, 1..48),
    ]
}

/// Cost hints covering both routes: the Unknown default (always parallel) and
/// per-item estimates from "obviously inline" through "obviously parallel" —
/// including dishonest ones, which may only cost time, never correctness.
fn hints() -> impl Strategy<Value = CostHint> {
    prop_oneof![Just(CostHint::Unknown), (1u64..3_000_000).prop_map(CostHint::per_item_ns),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn scheduling_is_byte_identical_to_serial(jobs in job_mixes(), hint in hints()) {
        // Index-tagged items so a result landing in the wrong slot can never collide
        // with the right answer.
        let items: Vec<(u64, u32)> =
            jobs.iter().enumerate().map(|(i, &rounds)| (i as u64, rounds)).collect();
        let reference: Vec<u64> = items.iter().map(|&(i, rounds)| spin(rounds, i)).collect();
        for workers in 1usize..=8 {
            let mapped =
                par_map_with_workers_and_cost(workers, hint, &items, |&(i, rounds)| spin(rounds, i));
            prop_assert!(mapped == reference, "diverged at workers={} hint={:?}", workers, hint);
        }
    }
}

/// A batch whose hinted total cost sits far below the inline threshold must run
/// entirely on the caller's thread: no worker thread is spawned.
#[test]
fn cheap_hinted_batches_never_reach_the_worker_pool() {
    let caller = thread::current().id();
    let items: Vec<u64> = (0..64).collect();
    let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    // 64 items × 100 ns ≈ 6.4 µs of hinted work — two orders of magnitude under the
    // 500 µs threshold.
    let mapped = par_map_with_workers_and_cost(8, CostHint::per_item_ns(100), &items, |&x| {
        threads.lock().expect("lock").insert(thread::current().id());
        x + 1
    });
    assert_eq!(mapped, (1..=64).collect::<Vec<u64>>());
    assert_eq!(
        *threads.lock().expect("lock"),
        HashSet::from([caller]),
        "an inline batch left the caller's thread"
    );
}
