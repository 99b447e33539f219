//! Layer 1: a scoped-thread parallel map.
//!
//! [`par_map_with_workers_and_cost`] maps a function over a slice on `workers` threads:
//! the caller runs as worker 0, `workers − 1` threads are spawned with
//! [`std::thread::scope`], and every worker claims the next unclaimed index from one
//! shared atomic counter until the slice is exhausted.  A slow item therefore never
//! strands the items behind it — whichever worker is free claims them.  Results are
//! put back by input index, so the output is identical to the serial
//! `iter().map().collect()` for any worker count, cost hint or claim interleaving.
//!
//! Worker-count control: explicit (`*_with_workers`), else the `MP_THREADS` environment
//! variable, else [`std::thread::available_parallelism`] (see [`default_workers`]).  A
//! panic in any item stops every worker from claiming further items, and the first
//! panic payload is re-raised on the caller's thread once all workers have joined.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::{faults, poison};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "MP_THREADS";

/// A hinted batch whose estimated total serial cost is below this many nanoseconds runs
/// inline on the caller: spawning and joining scoped threads costs tens of
/// microseconds, which such a batch cannot win back.
const INLINE_BELOW_NS: u64 = 500_000;

/// The default worker count: `MP_THREADS` when set to a positive integer, otherwise the
/// host's available parallelism.
pub fn default_workers() -> usize {
    workers_from_env_value(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Parses an `MP_THREADS` value, falling back to the host parallelism (4 when
/// unknowable) when absent or malformed (split out of [`default_workers`] so the
/// parsing is unit-testable without mutating the process environment).
fn workers_from_env_value(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

/// A caller's estimate of what one item of a batch costs to compute, deciding whether
/// the batch is worth running in parallel at all.
///
/// The hint only ever changes *which thread* runs an item, never results: output is
/// byte-identical to the serial map for any hint and worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostHint {
    /// Per-item cost unknown: every multi-item batch runs in parallel.  This is the
    /// only safe choice for items that may block on each other, so it is the default.
    #[default]
    Unknown,
    /// Items cost roughly this many nanoseconds of serial work each; a batch whose
    /// estimated total is below 500 µs runs inline on the caller.
    PerItemNs(u64),
}

impl CostHint {
    /// A per-item estimate in nanoseconds (clamped to at least 1).
    pub fn per_item_ns(ns: u64) -> Self {
        Self::PerItemNs(ns.max(1))
    }
}

/// [`par_map_with_workers_and_cost`] with no cost information ([`CostHint::Unknown`]).
pub fn par_map_with_workers<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with_workers_and_cost(workers, CostHint::Unknown, items, f)
}

/// Maps `f` over `items` on `workers` threads (clamped to `1..=items.len()`), returning
/// `result[i] == f(&items[i])` for every `i`.
///
/// The batch runs inline on the caller when one worker or at most one item is left, or
/// when `cost` estimates the whole batch below 500 µs of serial work.
///
/// # Panics
///
/// Re-raises the first panic of any item, after every worker has stopped.
pub fn par_map_with_workers_and_cost<T, R, F>(
    workers: usize,
    cost: CostHint,
    items: &[T],
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let len = items.len();
    let workers = workers.clamp(1, len.max(1));
    if mp_telemetry::enabled() {
        mp_telemetry::counter("executor.par_map_calls", 1);
        mp_telemetry::counter("executor.jobs", len as u64);
    }
    let cheap =
        matches!(cost, CostHint::PerItemNs(ns) if ns.saturating_mul(len as u64) < INLINE_BELOW_NS);
    if workers == 1 || cheap {
        mp_telemetry::counter("executor.inline_jobs", len as u64);
        return items.iter().map(f).collect();
    }

    // Both atomics publish no other data (results travel through `join`, the panic
    // payload through its mutex), so relaxed ordering suffices.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else { break };
            // Injected delays reorder which worker runs what — never the results (the
            // determinism suites run under a delay plan to prove exactly that).
            faults::maybe_delay("executor.task");
            let task_span = mp_telemetry::span("executor.task");
            let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
            drop(task_span);
            match outcome {
                Ok(result) => done.push((index, result)),
                Err(payload) => {
                    poison::lock(&first_panic).get_or_insert(payload);
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
        done
    };

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map(|worker| {
                let work = &work;
                scope.spawn(move || {
                    mp_telemetry::set_thread_label(&format!("worker-{worker}"));
                    work()
                })
            })
            .collect();
        let mut place = |done: Vec<(usize, R)>| {
            for (index, result) in done {
                slots[index] = Some(result);
            }
        };
        place(work());
        for handle in spawned {
            place(handle.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
    });
    if let Some(payload) = poison::lock(&first_panic).take() {
        resume_unwind(payload);
    }
    slots.into_iter().map(|slot| slot.expect("every index is claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn par_map_matches_serial_for_every_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in 1..=8 {
            let parallel = par_map_with_workers(workers, &items, |x| x * x + 1);
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn par_map_matches_serial_for_every_cost_hint() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31) ^ 5).collect();
        let hints = [
            CostHint::Unknown,
            CostHint::per_item_ns(1),
            CostHint::per_item_ns(10_000),
            CostHint::per_item_ns(u64::MAX),
        ];
        for hint in hints {
            for workers in [1usize, 2, 5, 8] {
                let parallel = par_map_with_workers_and_cost(workers, hint, &items, |x| {
                    x.wrapping_mul(31) ^ 5
                });
                assert_eq!(parallel, serial, "workers={workers} hint={hint:?}");
            }
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton_inputs() {
        assert_eq!(par_map_with_workers(4, &[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(par_map_with_workers(4, &[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn cheap_hinted_batches_never_leave_the_caller_thread() {
        let items: Vec<u64> = (0..64).collect();
        let caller = std::thread::current().id();
        let results = par_map_with_workers_and_cost(8, CostHint::per_item_ns(50), &items, |x| {
            assert_eq!(std::thread::current().id(), caller, "inline fallback must stay inline");
            x + 1
        });
        assert_eq!(results, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn job_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            par_map_with_workers(4, &[1u32, 2, 3, 4, 5, 6], |x| {
                if *x == 4 {
                    panic!("job four exploded");
                }
                *x
            })
        });
        let payload = result.expect_err("the job panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "job four exploded");
    }

    #[test]
    fn env_override_parses_and_falls_back() {
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        assert_eq!(workers_from_env_value(Some("6")), 6);
        assert_eq!(workers_from_env_value(Some(" 2 ")), 2);
        assert_eq!(workers_from_env_value(Some("0")), host);
        assert_eq!(workers_from_env_value(Some("lots")), host);
        assert_eq!(workers_from_env_value(None), host);
    }

    /// Regression test for chunk-per-thread scheduling: one pathologically slow job
    /// must not strand the jobs behind it.  Job 0 blocks until every other job has
    /// completed — under contiguous chunking the jobs sharing its chunk could never run
    /// and this would time out; with per-item claiming the other worker drains them
    /// while job 0 waits.
    #[test]
    fn stealing_keeps_workers_busy_behind_a_slow_job() {
        let jobs: Vec<usize> = (0..8).collect();
        let (done_tx, done_rx) = mpsc::channel::<usize>();
        let done_rx = Mutex::new(done_rx);
        let completion_order = Mutex::new(Vec::new());

        let threads = par_map_with_workers(2, &jobs, |&job| {
            if job == 0 {
                // The slow job: wait (with a generous timeout) for the other 7.
                let rx = done_rx.lock().expect("receiver lock never poisoned");
                for _ in 0..jobs.len() - 1 {
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("remaining jobs must complete while job 0 runs");
                }
                completion_order.lock().expect("order lock never poisoned").push(job);
            } else {
                completion_order.lock().expect("order lock never poisoned").push(job);
                done_tx.send(job).expect("receiver outlives the jobs");
            }
            std::thread::current().id()
        });

        let order = completion_order.into_inner().expect("order lock never poisoned");
        assert_eq!(*order.last().expect("jobs ran"), 0, "the slow job must finish last");
        // The slow job pinned one worker, so the other worker must have run the rest.
        let distinct: HashSet<_> = threads.iter().copied().collect();
        assert_eq!(distinct.len(), 2, "both workers must execute jobs: {threads:?}");
    }
}
