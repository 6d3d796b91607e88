//! The campaign executor: deterministic work-stealing over an index space.
//!
//! A campaign is thousands of independent experiments with wildly varying
//! cost (a Drop on occurrence 10 simulates much further than a field flip
//! that kills the workload early, and the three workloads have different
//! horizons). Workers pull the next index from a shared atomic counter,
//! so no thread is ever idle while work remains. Each result lands at its
//! plan index, and every experiment derives its world seed from
//! `campaign::scenario_world_seed` (scenario + campaign seed), never from
//! its position or worker, so the output is byte-identical to a serial
//! run regardless of interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Picks the worker count for `n` items: `MUTINY_THREADS` when set (the
/// determinism tests and benches pin it), otherwise the machine's
/// available parallelism, never more than `n`.
pub fn default_threads(n: usize) -> usize {
    let hw = std::env::var("MUTINY_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
        });
    hw.min(n.max(1)).min(256)
}

/// Runs `f(0..n)` on `threads` workers stealing indices from a shared
/// counter; `out[i] == f(i)`, exactly as a serial run would produce.
///
/// `f` must be deterministic in its index. The campaign's `f` runs the
/// planned experiment at that index with the seed from
/// `campaign::scenario_world_seed` (scenario + campaign seed), so this
/// holds by construction.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || n <= 1 {
        let out = (0..n).map(f).collect();
        mutiny_telemetry::flush_thread();
        return out;
    }

    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                // Merge this worker's telemetry before the thread dies;
                // the sink aggregates deterministically (key-sorted), so
                // flush order does not matter.
                mutiny_telemetry::flush_thread();
                local
            }));
        }
        for h in handles {
            for (i, v) in h.join().expect("executor worker panicked") {
                out[i] = Some(v);
            }
        }
    });
    out.into_iter().map(|o| o.expect("every index executed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_at_their_index() {
        for threads in [1, 2, 3, 8] {
            let out = run_indexed(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn uneven_work_still_complete() {
        // Index 0 is a big straggler; stealing must not lose or reorder.
        let out = run_indexed(16, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn thread_count_is_bounded_by_items() {
        assert_eq!(default_threads(1), 1);
        assert!(default_threads(1_000_000) >= 1);
    }
}
