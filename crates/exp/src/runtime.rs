//! The shared worker runtime: one pool abstraction serving both the
//! campaign executor and the fleet monitor server.
//!
//! A [`Runtime`] is a lightweight handle naming a worker count. Work is
//! distributed by an atomic cursor over the item list — idle workers
//! "steal" the next unclaimed index, so a slow item never serialises the
//! batch — and every result is keyed by its item index, so the merged
//! output is bit-identical to a serial run regardless of worker count or
//! scheduling.
//!
//! [`Runtime::global`] reads the process-wide worker count (the
//! `ADASSURE_THREADS` override, parsed once — see
//! [`crate::par::thread_count`]); [`Runtime::with_workers`] pins an
//! explicit count, which is how the determinism tests compare serial and
//! parallel executions without touching the process environment.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A worker-pool handle: the worker count every [`Runtime::map`] call on
/// this handle uses.
///
/// Copyable and trivially cheap — the pool's threads are scoped to each
/// `map` invocation (std scoped threads carry no unsafe lifetime
/// extension), so a `Runtime` can be stored in configs and shared freely.
/// Per-invocation spawning amortises over batch-sized work items; callers
/// with per-item work in the microsecond range should batch items before
/// mapping, as the fleet server does with sample batches per shard. A
/// campaign cell (simulate, then check one trace) is already milliseconds
/// of work, so the campaign engine maps cells directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    workers: usize,
}

impl Runtime {
    /// The process-wide runtime: worker count from
    /// [`crate::par::thread_count`] (`ADASSURE_THREADS` override, else
    /// available parallelism).
    pub fn global() -> Self {
        Runtime {
            workers: crate::par::thread_count(),
        }
    }

    /// A runtime with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        Runtime {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The number of workers a batch of `items` work items actually
    /// occupies: the configured count, capped by the item count (a pool
    /// never spawns more workers than there are items to claim).
    pub fn effective_workers(&self, items: usize) -> usize {
        self.workers.clamp(1, items.max(1))
    }

    /// Maps `f` over `items` on this runtime's workers, returning results
    /// in item order.
    ///
    /// `f` must be a pure function of its item (plus shared read-only or
    /// interior-mutable state) for the determinism guarantee to mean
    /// anything; every experiment run is seeded per cell and every fleet
    /// shard owns disjoint stream state, so this holds throughout the
    /// workspace.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the first panicking worker's payload).
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        let threads = self.effective_workers(items.len());
        if threads <= 1 {
            return items.iter().map(f).collect();
        }

        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(index) else {
                                break;
                            };
                            produced.push((index, f(item)));
                        }
                        produced
                    })
                })
                .collect();
            for worker in workers {
                match worker.join() {
                    Ok(produced) => {
                        for (index, value) in produced {
                            slots[index] = Some(value);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("cursor visits every item exactly once"))
            .collect()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let out = Runtime::with_workers(threads).map(&items, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let rt = Runtime::with_workers(8);
        let empty: Vec<u32> = Vec::new();
        assert!(rt.map(&empty, |&x| x).is_empty());
        assert_eq!(rt.map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn oversubscription_matches_serial() {
        let items: Vec<u64> = (0..13).collect();
        let serial = Runtime::with_workers(1).map(&items, |&x| x.wrapping_mul(0x9E37_79B9));
        let wide = Runtime::with_workers(64).map(&items, |&x| x.wrapping_mul(0x9E37_79B9));
        assert_eq!(serial, wide);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            Runtime::with_workers(2).map(&[1u32, 2, 3], |&x| {
                assert_ne!(x, 2, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_counts_are_clamped() {
        assert_eq!(Runtime::with_workers(0).workers(), 1);
        assert_eq!(Runtime::with_workers(3).effective_workers(2), 2);
        assert_eq!(Runtime::with_workers(3).effective_workers(0), 1);
        assert_eq!(Runtime::with_workers(3).effective_workers(100), 3);
    }
}
