//! Deterministic ordered worker pool for embarrassingly parallel jobs.
//!
//! Experiment arms, chaos cells, and bench reps are self-contained: each
//! simulation owns its seed substream ([`crate::SimRng::fork`]) and
//! produces a [`RunReport`](../metrics) that depends only on its inputs.
//! That makes a batch of runs safe to execute on any number of host
//! threads **as long as the results are merged back in submission
//! order** — which is exactly what [`run_ordered`] guarantees.
//!
//! The pool is intentionally tiny: jobs are boxed `FnOnce` closures, a
//! shared atomic cursor hands out job indices, and each worker writes its
//! result into the slot matching the job's submission index. With
//! `workers <= 1` (or a single job) the pool degenerates to a plain
//! in-order loop on the calling thread — byte-for-byte the sequential
//! code path, no threads spawned.
//!
//! Wall-clock reads (`Instant::now`) here are host-side bookkeeping for
//! [`PoolStats`] utilization only; they never feed simulation state, so
//! determinism is unaffected (see the scoped detlint allow).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A pool job: any sendable one-shot closure producing a sendable result.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// A captured panic from one pool job (see [`run_ordered_caught`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// Submission index of the job that panicked.
    pub index: usize,
    /// Best-effort panic message, downcast from the payload.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job {} panicked: {}", self.index, self.message)
    }
}

/// Downcast a panic payload into a printable message. Panic payloads are
/// almost always `&str` or `String`; anything else gets a placeholder so
/// the error stays structured instead of aborting the batch.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Host-side execution statistics for one [`run_ordered`] batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of jobs executed in this batch.
    pub jobs: usize,
    /// Number of worker threads actually used (1 = inline sequential).
    pub workers: usize,
    /// Wall-clock time of the whole batch, nanoseconds.
    pub wall_ns: u64,
    /// Sum of per-job execution times across all workers, nanoseconds.
    pub busy_ns: u64,
}

impl PoolStats {
    /// Worker utilization in milli-units (1000 = every worker busy for the
    /// entire batch). Sequential batches are ~1000 by construction.
    pub fn utilization_milli(&self) -> u64 {
        let denom = (self.wall_ns as u128) * (self.workers as u128);
        if denom == 0 {
            return 0;
        }
        ((self.busy_ns as u128) * 1000 / denom) as u64
    }

    /// Merge another batch's stats into this accumulator. `workers` keeps
    /// the maximum seen, so utilization stays meaningful across batches
    /// run with the same jobs knob.
    pub fn absorb(&mut self, other: &PoolStats) {
        self.jobs += other.jobs;
        self.workers = self.workers.max(other.workers);
        self.wall_ns += other.wall_ns;
        self.busy_ns += other.busy_ns;
    }
}

/// Run `jobs` on up to `workers` scoped threads and return the results in
/// **submission order**, plus batch statistics.
///
/// Determinism contract: the result vector is independent of `workers`,
/// of OS scheduling, and of job completion order. Each job must be
/// self-contained (no shared mutable state with other jobs); under that
/// contract `run_ordered(jobs, n)` and `run_ordered(jobs, 1)` return
/// identical vectors.
pub fn run_ordered<T: Send>(jobs: Vec<Job<'_, T>>, workers: usize) -> (Vec<T>, PoolStats) {
    let (results, stats) = run_ordered_caught(jobs, workers);
    let results: Vec<T> = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
        .collect();
    (results, stats)
}

/// [`run_ordered`] with per-job panic isolation: a panicking job yields
/// `Err(JobPanic)` in its submission-order slot instead of tearing down
/// the whole batch, and every other job still runs to completion.
///
/// The determinism contract extends to faults: which slots hold `Err`,
/// and each `JobPanic`'s index and message, are independent of `workers`
/// and of OS scheduling.
pub fn run_ordered_caught<T: Send>(
    jobs: Vec<Job<'_, T>>,
    workers: usize,
) -> (Vec<Result<T, JobPanic>>, PoolStats) {
    let n = jobs.len();
    let t0 = Instant::now();

    let run_one = |i: usize, job: Job<'_, T>| -> Result<T, JobPanic> {
        catch_unwind(AssertUnwindSafe(job)).map_err(|payload| JobPanic {
            index: i,
            message: panic_message(payload),
        })
    };

    if workers <= 1 || n <= 1 {
        // Inline path: exactly the legacy sequential loop.
        let results: Vec<Result<T, JobPanic>> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| run_one(i, job))
            .collect();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        return (
            results,
            PoolStats {
                jobs: n,
                workers: 1,
                wall_ns,
                busy_ns: wall_ns,
            },
        );
    }

    let workers = workers.min(n);
    // Each job sits in its own slot so workers can take them by index
    // without holding a queue lock while running.
    let slots: Vec<Mutex<Option<Job<'_, T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let outputs: Vec<Mutex<Option<Result<T, JobPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let busy = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .take();
                if let Some(job) = job {
                    let j0 = Instant::now();
                    let out = run_one(i, job);
                    busy.fetch_add(j0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    *outputs[i]
                        .lock()
                        .unwrap_or_else(|poison| poison.into_inner()) = Some(out);
                }
            });
        }
    });

    let results: Vec<Result<T, JobPanic>> = outputs
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(|poison| poison.into_inner())
                .unwrap_or_else(|| panic!("pool job {i} produced no result"))
        })
        .collect();

    (
        results,
        PoolStats {
            jobs: n,
            workers,
            wall_ns: t0.elapsed().as_nanos() as u64,
            busy_ns: busy.load(Ordering::Relaxed),
        },
    )
}

// The pool tests spawn OS threads and read host wall-clocks
// (`Instant::now`), which need `-Zmiri-disable-isolation`; the pool never
// touches simulation state, so miri skips it.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;

    fn square_jobs(n: usize) -> Vec<Job<'static, usize>> {
        (0..n)
            .map(|i| Box::new(move || i * i) as Job<'static, usize>)
            .collect()
    }

    #[test]
    fn results_are_in_submission_order() {
        for workers in [1, 2, 3, 8, 64] {
            let (results, stats) = run_ordered(square_jobs(37), workers);
            assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.jobs, 37);
            assert!(stats.workers <= 37);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (seq, seq_stats) = run_ordered(square_jobs(100), 1);
        let (par, _) = run_ordered(square_jobs(100), 4);
        assert_eq!(seq, par);
        assert_eq!(seq_stats.workers, 1);
    }

    #[test]
    fn empty_and_single_job_batches() {
        let (empty, stats) = run_ordered(Vec::<Job<'_, u32>>::new(), 8);
        assert!(empty.is_empty());
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.workers, 1); // inline path

        let one: Vec<Job<'_, u32>> = vec![Box::new(|| 7)];
        let (res, stats) = run_ordered(one, 8);
        assert_eq!(res, vec![7]);
        assert_eq!(stats.workers, 1); // single job never spawns threads
    }

    #[test]
    fn workers_clamped_to_job_count() {
        let (res, stats) = run_ordered(square_jobs(3), 16);
        assert_eq!(res, vec![0, 1, 4]);
        assert!(stats.workers <= 3);
    }

    /// Jobs where every third one panics — for the isolation tests.
    fn faulty_jobs(n: usize) -> Vec<Job<'static, usize>> {
        (0..n)
            .map(|i| {
                Box::new(move || {
                    if i % 3 == 2 {
                        panic!("job {i} exploded");
                    }
                    i * i
                }) as Job<'static, usize>
            })
            .collect()
    }

    #[test]
    fn panicking_jobs_are_isolated_and_deterministic() {
        // Silence the default panic hook for the intentional panics.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut runs = Vec::new();
        for workers in [1, 2, 4, 8] {
            let (results, stats) = run_ordered_caught(faulty_jobs(20), workers);
            assert_eq!(stats.jobs, 20);
            runs.push(results);
        }
        std::panic::set_hook(prev);

        // Every worker count produces the identical result vector.
        for r in &runs[1..] {
            assert_eq!(r, &runs[0]);
        }
        for (i, r) in runs[0].iter().enumerate() {
            if i % 3 == 2 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.index, i);
                assert_eq!(p.message, format!("job {i} exploded"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * i);
            }
        }
    }

    #[test]
    fn run_ordered_reraises_the_first_panic() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(|| run_ordered(faulty_jobs(6), 2));
        std::panic::set_hook(prev);
        let payload = caught.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("pool job 2 panicked"), "got: {msg}");
    }

    #[test]
    fn stats_accumulate() {
        let (_, a) = run_ordered(square_jobs(5), 2);
        let (_, b) = run_ordered(square_jobs(7), 2);
        let mut acc = PoolStats::default();
        acc.absorb(&a);
        acc.absorb(&b);
        assert_eq!(acc.jobs, 12);
        assert_eq!(acc.wall_ns, a.wall_ns + b.wall_ns);
        assert!(acc.utilization_milli() <= 1100);
    }
}
