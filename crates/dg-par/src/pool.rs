//! A scoped work-stealing job pool with deterministic result ordering.
//!
//! The pool exists to run one *batch* of heterogeneous jobs — e.g.
//! every (configuration × kernel) evaluation of a figure — across all
//! available cores. It is not a long-lived executor: each [`Pool::run`]
//! call spawns workers `1..workers` inside a `std::thread::scope` and
//! runs worker 0 on the calling thread, so jobs may borrow from the
//! caller's stack, and everything is joined before the call returns.
//!
//! Scheduling: jobs are dealt round-robin onto per-worker deques.
//! A worker pops from the *front* of its own deque (submission order)
//! and, when empty, steals from the *back* of the currently longest
//! victim deque. Stealing from the opposite end keeps contention low
//! and tends to migrate the large straggler jobs that round-robin
//! placement gets wrong when job sizes are skewed.
//!
//! Determinism: each job writes its result into a dedicated indexed
//! slot, so the returned `Vec` is always in submission order no matter
//! which worker ran which job — a parallel sweep is therefore
//! bit-identical to a serial one as long as the jobs themselves are
//! deterministic (simulator runs are; see DESIGN.md).
//!
//! Panics: worker panics are caught per-job and re-raised on the caller
//! thread once the batch drains. If several jobs panic, the one with
//! the lowest submission index wins, again for reproducibility.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable overriding the worker count chosen by
/// [`default_workers`]. `DG_PAR_THREADS=1` forces fully serial, inline
/// execution — the reference path used by the determinism tests.
pub const THREADS_ENV: &str = "DG_PAR_THREADS";

/// Worker count used by [`Pool::new`]: the `DG_PAR_THREADS` override if
/// set and parseable, otherwise `std::thread::available_parallelism()`,
/// otherwise 1. Always at least 1.
pub fn default_workers() -> usize {
    if let Ok(s) = std::env::var(THREADS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Timing and scheduling report for one [`Pool::run_report`] batch.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-job wall-clock, indexed by submission order.
    pub job_times: Vec<Duration>,
    /// Wall-clock of the whole batch (spawn to join).
    pub elapsed: Duration,
    /// Number of jobs executed by a worker other than the one they
    /// were initially dealt to.
    pub steals: usize,
    /// Number of workers the batch actually used.
    pub workers: usize,
}

/// A scoped work-stealing job pool. See the module docs for the
/// scheduling and determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

/// One pending job: its submission index plus the closure to run.
struct Job<'scope, T> {
    index: usize,
    run: Box<dyn FnOnce() -> T + Send + 'scope>,
}

/// Outcome slot for one job, written by whichever worker ran it.
enum Slot<T> {
    Pending,
    Done(T, Duration),
    Panicked(Box<dyn std::any::Any + Send>),
}

impl Pool {
    /// A pool sized by [`default_workers`].
    pub fn new() -> Self {
        Self::with_workers(default_workers())
    }

    /// A pool with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        Pool { workers: workers.max(1) }
    }

    /// The worker count this pool will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `jobs` to completion and return their results in submission
    /// order. Panics from jobs are re-raised here (lowest index first).
    pub fn run<'env, T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        self.run_report(jobs).0
    }

    /// Like [`Pool::run`], but also returns per-job timing and
    /// scheduling statistics.
    pub fn run_report<'env, T, F>(&self, jobs: Vec<F>) -> (Vec<T>, RunReport)
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n_jobs = jobs.len();
        let workers = self.workers.min(n_jobs).max(1);
        let start = Instant::now();

        if workers == 1 {
            // Inline serial path: no threads, used for the reference
            // runs the determinism tests compare against.
            let mut results = Vec::with_capacity(n_jobs);
            let mut job_times = Vec::with_capacity(n_jobs);
            for job in jobs {
                let t0 = Instant::now();
                let _span = dg_obs::span("par.job", 0);
                results.push(job());
                drop(_span);
                job_times.push(t0.elapsed());
            }
            let report = RunReport { job_times, elapsed: start.elapsed(), steals: 0, workers: 1 };
            return (results, report);
        }

        // Deal jobs round-robin onto per-worker deques.
        let queues: Vec<Mutex<VecDeque<Job<'_, T>>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        let mut home = vec![0usize; n_jobs];
        for (index, f) in jobs.into_iter().enumerate() {
            let w = index % workers;
            home[index] = w;
            queues[w].lock().unwrap().push_back(Job { index, run: Box::new(f) });
        }

        let slots: Vec<Mutex<Slot<T>>> = (0..n_jobs).map(|_| Mutex::new(Slot::Pending)).collect();
        let remaining = AtomicUsize::new(n_jobs);
        let steals = AtomicUsize::new(0);
        let home = &home;
        let queues = &queues;
        let slots = &slots;
        let remaining = &remaining;
        let steals = &steals;

        // One worker's loop. It captures only shared references, so it
        // is `Copy`: every thread runs its own copy.
        let work = move |me: usize| loop {
            if remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            // Own work first, front of the deque.
            let job = queues[me].lock().unwrap().pop_front();
            let job = match job {
                Some(j) => Some(j),
                None => {
                    // Steal from the back of the longest victim.
                    let lens: Vec<usize> = (0..workers)
                        .map(|w| if w == me { 0 } else { queues[w].lock().unwrap().len() })
                        .collect();
                    steal_victim(me, &lens).and_then(|w| queues[w].lock().unwrap().pop_back())
                }
            };
            let Some(job) = job else {
                // Nothing runnable right now; other workers may still
                // finish or repopulate nothing — just spin gently until
                // the batch drains.
                std::thread::yield_now();
                continue;
            };
            if home[job.index] != me {
                steals.fetch_add(1, Ordering::Relaxed);
            }
            let t0 = Instant::now();
            let span = dg_obs::span("par.job", me as u64);
            let outcome = catch_unwind(AssertUnwindSafe(job.run));
            drop(span);
            let dt = t0.elapsed();
            *slots[job.index].lock().unwrap() = match outcome {
                Ok(value) => Slot::Done(value, dt),
                Err(payload) => Slot::Panicked(payload),
            };
            remaining.fetch_sub(1, Ordering::Release);
        };
        // The calling thread runs worker 0 instead of idling in the
        // join, so a batch spawns `workers - 1` threads.
        std::thread::scope(|scope| {
            for me in 1..workers {
                scope.spawn(move || work(me));
            }
            work(0);
        });

        // Collect in submission order; re-raise the lowest-index panic.
        let mut results = Vec::with_capacity(n_jobs);
        let mut job_times = Vec::with_capacity(n_jobs);
        for slot in slots {
            match std::mem::replace(&mut *slot.lock().unwrap(), Slot::Pending) {
                Slot::Done(value, dt) => {
                    results.push(value);
                    job_times.push(dt);
                }
                Slot::Panicked(payload) => resume_unwind(payload),
                Slot::Pending => unreachable!("job never ran despite batch draining"),
            }
        }
        let report = RunReport {
            job_times,
            elapsed: start.elapsed(),
            steals: steals.load(Ordering::Relaxed),
            workers,
        };
        (results, report)
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

/// Choose the queue worker `me` steals from, given every worker's
/// current queue length: the longest *other* non-empty queue (ties go
/// to the highest index, matching the historical scan order).
///
/// Never returns `me` — a worker re-popping its own queue from the back
/// would invert its submission-order front-pop contract — and returns
/// `None` when every other queue is empty, so the caller doesn't
/// re-lock a victim only to find nothing. Kept as a standalone pure
/// function so these two properties are directly testable outside the
/// thread scope.
fn steal_victim(me: usize, queue_lens: &[usize]) -> Option<usize> {
    queue_lens
        .iter()
        .enumerate()
        .filter(|&(w, &len)| w != me && len > 0)
        .max_by_key(|&(_, &len)| len)
        .map(|(w, _)| w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = Pool::with_workers(4);
        // Reverse-skewed sleeps so completion order differs from
        // submission order.
        let jobs: Vec<_> = (0..16usize)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis((16 - i) as u64 % 5));
                    i * i
                }
            })
            .collect();
        let results = pool.run(jobs);
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_jobs_can_borrow_from_the_stack() {
        let data: Vec<u64> = (0..100).collect();
        let data_ref = &data;
        let pool = Pool::with_workers(3);
        let jobs: Vec<_> = (0..10usize)
            .map(|i| move || data_ref[i * 10..(i + 1) * 10].iter().sum::<u64>())
            .collect();
        let partials = pool.run(jobs);
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = Pool::with_workers(1);
        let main_thread = std::thread::current().id();
        let (ids, report) = pool.run_report(vec![
            move || std::thread::current().id(),
            move || std::thread::current().id(),
        ]);
        assert!(ids.iter().all(|id| *id == main_thread));
        assert_eq!(report.steals, 0);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn calling_thread_works_as_worker_zero() {
        // Every job holds its thread until a second job has started, so
        // the first two jobs run on different threads: with two workers,
        // one of them must be the caller.
        let started = AtomicUsize::new(0);
        let started = &started;
        let pool = Pool::with_workers(2);
        let caller = std::thread::current().id();
        let jobs: Vec<_> = (0..64)
            .map(|_| {
                move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    std::thread::current().id()
                }
            })
            .collect();
        let (ids, report) = pool.run_report(jobs);
        assert_eq!(report.workers, 2);
        assert!(ids.contains(&caller), "the calling thread ran no job");
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = Pool::with_workers(8);
        let results: Vec<u32> = pool.run(Vec::<fn() -> u32>::new());
        assert!(results.is_empty());
    }

    #[test]
    fn panic_propagates_with_lowest_index_payload() {
        let pool = Pool::with_workers(4);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 2 || i == 5 {
                        panic!("job {i} failed");
                    }
                    i as u32
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(jobs)))
            .expect_err("batch with panicking jobs must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert_eq!(msg, "job 2 failed", "lowest-index panic wins");
    }

    #[test]
    fn idle_worker_steals_under_skew() {
        // Worker 0's deque gets jobs 0 and 2 (round-robin over 2
        // workers). Job 0 spin-waits on a flag that only job 2 sets, so
        // the batch can only finish if worker 1 steals job 2 from
        // worker 0's deque.
        let flag = AtomicBool::new(false);
        let flag = &flag;
        let pool = Pool::with_workers(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(move || {
                while !flag.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                0
            }),
            Box::new(move || 1),
            Box::new(move || {
                flag.store(true, Ordering::Release);
                2
            }),
        ];
        let (results, report) = pool.run_report(jobs);
        assert_eq!(results, vec![0, 1, 2]);
        assert!(report.steals >= 1, "expected at least one steal, got {}", report.steals);
    }

    #[test]
    fn per_job_timing_is_recorded() {
        let pool = Pool::with_workers(2);
        let (_, report) = pool.run_report(vec![
            || std::thread::sleep(Duration::from_millis(15)),
            || (),
        ]);
        assert_eq!(report.job_times.len(), 2);
        assert!(report.job_times[0] >= Duration::from_millis(10));
        assert!(report.elapsed >= report.job_times[0]);
    }

    #[test]
    fn steal_victim_never_selects_self() {
        // Regression guard for the steal path: even when the thief's
        // own queue is the longest by far, it must never be chosen —
        // stealing from one's own back would break the front-pop
        // submission-order contract.
        let lens = [100, 3, 0, 7];
        for me in 0..lens.len() {
            if let Some(v) = steal_victim(me, &lens) {
                assert_ne!(v, me, "worker {me} stole from itself (lens {lens:?})");
            }
        }
        // me = 0 owns the only long queue; the longest *other* wins.
        assert_eq!(steal_victim(0, &lens), Some(3));
        assert_eq!(steal_victim(3, &lens), Some(0));
    }

    #[test]
    fn steal_victim_skips_empty_queues() {
        assert_eq!(steal_victim(0, &[5, 0, 0]), None, "only own work left");
        assert_eq!(steal_victim(0, &[0, 0, 0]), None);
        assert_eq!(steal_victim(0, &[9]), None, "single worker has no victims");
        assert_eq!(steal_victim(1, &[0, 4, 2]), Some(2));
    }

    #[test]
    fn steal_victim_prefers_longest_with_stable_ties() {
        assert_eq!(steal_victim(0, &[1, 2, 9, 3]), Some(2));
        // Ties resolve to the highest index (historical scan order).
        assert_eq!(steal_victim(0, &[1, 4, 4, 4]), Some(3));
        assert_eq!(steal_victim(3, &[4, 4, 4, 1]), Some(2));
    }

    #[test]
    fn own_queue_drains_front_first_in_submission_order() {
        // 2 workers: the round-robin deal gives evens to worker 0 and
        // odds to worker 1. Worker 1's first job blocks long enough for
        // worker 0 to drain its own deque, so the evens' execution
        // order is worker 0's own-pop order — front-first must yield
        // 0,2,4,6 (a back-pop would yield 6,4,2,0). Worker 0 may then
        // steal the remaining odd jobs, which cannot reorder the evens
        // it already ran.
        let order = Mutex::new(Vec::new());
        let order = &order;
        let pool = Pool::with_workers(2);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 1 {
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    order.lock().unwrap().push(i);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.run(jobs);
        let order = order.lock().unwrap();
        let evens: Vec<usize> = order.iter().copied().filter(|i| i % 2 == 0).collect();
        assert_eq!(evens, vec![0, 2, 4, 6], "worker 0's deque must drain front-first: {order:?}");
    }

    #[test]
    fn env_override_forces_worker_count() {
        // default_workers() consults DG_PAR_THREADS; exercise the
        // parse path directly without mutating process env (other
        // tests run concurrently).
        let pool = Pool::with_workers(0);
        assert_eq!(pool.workers(), 1, "worker count clamps to >= 1");
        assert!(default_workers() >= 1);
    }
}
