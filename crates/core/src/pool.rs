//! A small worker pool for data-parallel kernels and fire-and-forget
//! jobs, built from two plain mechanisms:
//!
//! * [`ThreadPool::run`] and [`ThreadPool::map`] fan indexed tasks over
//!   [`std::thread::scope`] lanes — [`ThreadPool::threads`] scoped
//!   threads plus the caller — that claim indices from a shared counter.
//!   The scope joins every lane before `run` returns, so tasks may borrow
//!   the caller's stack, and a nested `run` opens its own scope, so it
//!   waits on no other lane and cannot deadlock.
//! * [`ThreadPool::spawn`] pushes onto one FIFO that the persistent
//!   workers drain in order. Each job runs under `catch_unwind`: a
//!   panicking job costs only itself, never its worker or the jobs queued
//!   behind it.
//!
//! Scoped lanes are fresh threads, so per-thread state such as the
//! kernels' encode scratch is set up once per `run` on them.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A boxed fire-and-forget job for the persistent workers.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The spawn FIFO, shared by submitters and the persistent workers.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled on every push and on close.
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Set on pool drop; workers exit once it is set *and* `jobs` is
    /// empty, so jobs queued before the drop still run.
    closed: bool,
}

impl Queue {
    /// Locks the queue, recovering from poisoning: it is a plain FIFO
    /// plus a flag, valid at every step, and jobs never run under the
    /// lock.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until a job is queued; `None` once the pool has closed and
    /// every queued job has been taken.
    fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            let woken = self.ready.wait(state);
            state = woken.unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A persistent worker's loop: runs queued jobs in FIFO order until
    /// the pool closes and the queue is drained.
    fn work(&self) {
        while let Some(job) = self.pop() {
            // The panic hook has already reported a panicking job;
            // containing it keeps this worker, and every job queued
            // behind it, alive.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }
}

/// A worker pool: scoped lanes for indexed task batches
/// ([`ThreadPool::run`]) and persistent workers for fire-and-forget
/// jobs ([`ThreadPool::spawn`]).
///
/// Most callers want the shared [`global`] pool; constructing a private
/// pool is mainly useful in tests and benchmarks that need an exact
/// thread count.
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
pub struct ThreadPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` persistent workers; every
    /// [`ThreadPool::run`] also fans out over that many scoped lanes
    /// beside its caller. Zero is allowed: `run` and
    /// [`ThreadPool::spawn`] then execute inline on the caller.
    pub fn new(threads: usize) -> Self {
        let queue = Arc::new(Queue::default());
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("privehd-pool-{i}"))
                    .spawn(move || queue.work())
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { queue, workers }
    }

    /// Number of worker threads (the caller adds one more lane to every
    /// `run`).
    pub fn threads(&self) -> usize {
        self.workers.len()
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

    /// Queues one fire-and-forget `job` for a persistent worker,
    /// returning immediately; workers take jobs in submission order.
    /// With zero workers the job runs inline on the caller — same
    /// degradation contract as [`ThreadPool::run`].
    ///
    /// Unlike [`ThreadPool::run`] there is no completion barrier: a job
    /// that must signal completion does so itself (e.g. through a
    /// channel or a waker). A panicking job ends only itself. Jobs
    /// queued before the pool drops are executed before the workers
    /// exit.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        if self.workers.is_empty() {
            job();
            return;
        }
        self.queue.lock().jobs.push_back(Box::new(job));
        self.queue.ready.notify_one();
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

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.queue.lock().closed = true;
        self.queue.ready.notify_all();
        for worker in self.workers.drain(..) {
            // Workers contain job panics and recover the queue lock, so
            // none ends in a panic that this join could report.
            let _ = worker.join();
        }
    }
}

/// The shared process-wide pool, created on first use with
/// `available_parallelism() − 1` workers: the caller of
/// [`ThreadPool::run`] is the remaining lane.
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
    use std::sync::atomic::AtomicU64;

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
    fn spawn_runs_fire_and_forget_jobs_on_workers() {
        let pool = ThreadPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.spawn(move || {
                tx.send(i).expect("receiver alive");
            });
        }
        let mut got: Vec<usize> = (0..16)
            .map(|_| {
                rx.recv_timeout(std::time::Duration::from_secs(10))
                    .expect("spawned job ran")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_runs_inline_with_zero_workers() {
        let pool = ThreadPool::new(0);
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&flag);
        pool.spawn(move || {
            f2.store(7, Ordering::SeqCst);
        });
        // No barrier to wait on: with zero workers the job already ran
        // inline before `spawn` returned.
        assert_eq!(flag.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn idle_worker_steals_jobs_stuck_behind_a_busy_sibling() {
        use std::time::Duration;
        let pool = ThreadPool::new(2);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
        // Wedge one worker on a long job...
        pool.spawn(move || {
            release_rx.recv_timeout(Duration::from_secs(30)).ok();
        });
        // ...then submit a burst. It waits in the one FIFO, which the
        // free worker must drain rather than leave the burst stranded
        // until the blocker finishes.
        for i in 0..8 {
            let tx = done_tx.clone();
            pool.spawn(move || {
                tx.send(i).expect("receiver alive");
            });
        }
        let mut got: Vec<usize> = (0..8)
            .map(|_| {
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("burst job stranded behind the wedged worker")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        release_tx.send(()).expect("blocker alive");
    }

    #[test]
    fn a_panicking_spawned_job_does_not_strand_later_jobs() {
        let pool = ThreadPool::new(1);
        pool.spawn(|| panic!("spawned job panics"));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move || tx.send(()).expect("receiver alive"));
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("the job queued behind a panicking one ran");
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
    }
}
