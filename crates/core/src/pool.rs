//! A small worker pool for data-parallel kernels: [`ThreadPool::run`]
//! and [`ThreadPool::map`] fan indexed tasks over [`std::thread::scope`]
//! lanes — [`ThreadPool::threads`] scoped threads plus the caller — that
//! claim indices from a shared counter. The scope joins every lane
//! before `run` returns, so tasks may borrow the caller's stack, and a
//! nested `run` opens its own scope, so it waits on no other lane and
//! cannot deadlock. The pool keeps no threads between calls.
//!
//! Scoped lanes are fresh threads, so per-thread state such as the
//! kernels' encode scratch is set up once per `run` on them.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A lane count for indexed task batches ([`ThreadPool::run`]).
///
/// Most callers want the shared [`global`] pool; constructing a private
/// pool is mainly useful in tests and benchmarks that need an exact
/// lane count.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use privehd_core::pool::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let hits = AtomicUsize::new(0);
/// pool.run(100, |_i| {
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool whose every [`ThreadPool::run`] fans out over `threads`
    /// scoped lanes beside its caller. Zero is allowed: `run` then
    /// executes inline on the caller.
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// Number of scoped lanes a `run` opens (the caller adds one more
    /// lane to every `run`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f(0) … f(tasks − 1)`, fanning the indices out over
    /// [`ThreadPool::threads`] scoped lanes plus the calling thread, and
    /// returns once all of them have completed.
    ///
    /// Task indices are claimed from a shared counter, so tasks should be
    /// coarse enough (a chunk of items, not one item) to amortize the
    /// atomic increment.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked, after all lanes have stopped.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        let next = AtomicUsize::new(0);
        let lane = || loop {
            // Relaxed: the counter only partitions indices between
            // lanes; spawning and joining the scope publish the rest.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            f(i);
        };
        // The caller is always a lane; extra lanes only pay off when
        // there is more than one task to share.
        let extra = self.threads().min(tasks.saturating_sub(1));
        if extra == 0 {
            return lane();
        }
        std::thread::scope(|scope| {
            for _ in 0..extra {
                scope.spawn(lane);
            }
            lane();
        });
    }

    /// Like [`ThreadPool::run`] but collects one `R` per task, in task
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked.
    pub fn map<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        self.run(tasks, |i| {
            *slots[i].lock().expect("slot poisoned") = Some(f(i));
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot poisoned")
                    .expect("every task index ran")
            })
            .collect()
    }
}

/// The shared process-wide pool, created on first use with
/// `available_parallelism() − 1` lanes: the caller of
/// [`ThreadPool::run`] is the remaining one.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let lanes = std::thread::available_parallelism().map_or(4, NonZeroUsize::get);
        ThreadPool::new(lanes - 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ThreadPool::new(0);
        let sum = AtomicU64::new(0);
        pool.run(10, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn map_preserves_task_order() {
        let pool = ThreadPool::new(2);
        let out = pool.map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = ThreadPool::new(2);
        for round in 1..=5u64 {
            let sum = AtomicU64::new(0);
            pool.run(64, |i| {
                sum.fetch_add(round * i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), round * (63 * 64 / 2));
        }
    }

    #[test]
    fn panicking_task_propagates_after_all_lanes_finish() {
        let pool = ThreadPool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&completed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, |i| {
                if i == 5 {
                    panic!("boom");
                }
                seen.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a panicked run.
        let sum = AtomicU64::new(0);
        pool.run(8, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }

    #[test]
    // Wall-clock assertion: Miri's interpreter timing makes the "fast
    // run returns quickly" bound meaningless there.
    #[cfg_attr(miri, ignore)]
    fn finished_run_is_not_blocked_by_another_runs_stragglers() {
        use std::time::{Duration, Instant};
        // A slow run from another thread holds its lanes busy: a fast
        // run opens its own scope, so it must return without waiting on
        // any of the slow run's lanes.
        let pool = Arc::new(ThreadPool::new(1));
        let slow_pool = Arc::clone(&pool);
        let slow = std::thread::spawn(move || {
            slow_pool.run(2, |_| std::thread::sleep(Duration::from_millis(300)));
        });
        std::thread::sleep(Duration::from_millis(50)); // the slow run's lanes start
        let start = Instant::now();
        pool.run(4, |_| {});
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "fast run stalled behind the slow run's queued lane job"
        );
        slow.join().unwrap();
    }

    #[test]
    fn nested_run_executes_inline_without_deadlock() {
        let pool = ThreadPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.run(8, |_outer| {
            // A nested run opens a scope of its own on whichever lane
            // issued it: it waits on no other lane, so nesting cannot
            // deadlock.
            pool.run(4, |_inner| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
    }
}
