//! Parallel sweep harness: batch experiment arms onto the deterministic
//! worker pool ([`oversub_simcore::pool`]) with a process-wide memoized
//! run cache.
//!
//! # Determinism
//!
//! Every simulation owns its seed substream, so a batch of arms is
//! embarrassingly parallel; [`Sweep::run`] merges results in **submission
//! order**, which makes every rendered table byte-identical regardless of
//! the jobs knob (`--jobs N` / `OVERSUB_JOBS`, default: available
//! parallelism). `jobs = 1` executes inline on the calling thread —
//! exactly the legacy sequential code path.
//!
//! # Run cache
//!
//! Arms repeated across figures (e.g. the shared vanilla baselines of
//! fig09, fig10, and table 1) execute once per process: results are
//! memoized under a content key derived from the canonical `Debug` form
//! of the [`RunConfig`] plus the workload's
//! [`cache_key`](crate::workload::Workload::cache_key). A cached report
//! is returned with the requesting arm's label spliced in — the label is
//! presentation-only and deliberately *not* part of the key. Arms are
//! ineligible when the workload declines a key (stateful server
//! workloads), when the config carries out-of-tree mechanisms (closures
//! have no canonical form), or when tracing is on. `OVERSUB_RUN_CACHE=0`
//! disables the cache entirely.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use oversub_metrics::{Diagnostic, RunReport};
use oversub_simcore::pool::{self, Job, PoolStats};
use oversub_workloads::workload::Workload;

use crate::config::RunConfig;
use crate::engine::run_labelled;

// ---------------------------------------------------------------------
// The jobs knob
// ---------------------------------------------------------------------

/// Explicit override set by `set_jobs`; 0 = unset.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Resolve the worker count: explicit [`set_jobs`] override, then the
/// `OVERSUB_JOBS` environment variable, then available parallelism.
pub fn jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("OVERSUB_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Set (n > 0) or clear (n = 0) the process-wide jobs override. Takes
/// precedence over `OVERSUB_JOBS`.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Global cache + statistics
// ---------------------------------------------------------------------

/// The memoized run cache. Entries are stored as the report's canonical
/// JSON (not the in-memory struct) so every hit can be integrity-checked:
/// the entry must still parse and pass [`RunReport::check`] before it is
/// served. A corrupt entry — however it got that way — is discarded with
/// a warning and the arm re-executes, so cache damage degrades to a cache
/// miss instead of a wrong result.
fn cache() -> &'static Mutex<BTreeMap<String, String>> {
    static CACHE: OnceLock<Mutex<BTreeMap<String, String>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Parse and integrity-check one cached entry.
fn validate_cached(json: &str) -> Result<RunReport, String> {
    let report = RunReport::from_json(json).map_err(|e| format!("parse failed: {e}"))?;
    let violations = report.check();
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(violations.join("; "))
    }
}

/// Shorten a cache key for a stderr warning (keys embed the full config
/// Debug form and run to hundreds of characters).
fn key_brief(key: &str) -> &str {
    &key[..key.len().min(80)]
}

/// Compute the run-cache key for an arm exactly as [`Sweep::add`] does;
/// `None` when the arm is cache-ineligible. Exposed for the cache
/// integrity tests.
#[doc(hidden)]
pub fn cache_key_for(cfg: &RunConfig, wl: &dyn Workload) -> Option<String> {
    if cache_enabled() && cfg.custom_mechanisms.is_empty() && !cfg.trace {
        wl.cache_key().map(|wl_key| format!("{cfg:?}|{wl_key}"))
    } else {
        None
    }
}

/// Overwrite one cache entry's raw JSON in place (corruption injection
/// for the integrity tests).
#[doc(hidden)]
pub fn inject_cache_entry(key: String, json: String) {
    lock(cache()).insert(key, json);
}

/// Whether the run cache currently holds `key`. Exposed for the cache
/// integrity tests.
#[doc(hidden)]
pub fn cache_contains(key: &str) -> bool {
    lock(cache()).contains_key(key)
}

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static UNCACHED_RUNS: AtomicU64 = AtomicU64::new(0);

fn pool_acc() -> &'static Mutex<PoolStats> {
    static ACC: OnceLock<Mutex<PoolStats>> = OnceLock::new();
    ACC.get_or_init(|| Mutex::new(PoolStats::default()))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Cumulative sweep statistics for this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Arms served from the memoized cache (including in-batch dedup).
    pub cache_hits: u64,
    /// Cache-eligible arms that had to execute.
    pub cache_misses: u64,
    /// Cache-ineligible arms that executed (no key, custom mechanisms,
    /// tracing, or cache disabled).
    pub uncached_runs: u64,
    /// Pool execution totals across all batches.
    pub pool: PoolStats,
}

/// Snapshot the cumulative sweep statistics.
pub fn stats() -> SweepStats {
    SweepStats {
        cache_hits: CACHE_HITS.load(Ordering::Relaxed),
        cache_misses: CACHE_MISSES.load(Ordering::Relaxed),
        uncached_runs: UNCACHED_RUNS.load(Ordering::Relaxed),
        pool: *lock(pool_acc()),
    }
}

/// Clear the run cache and zero all counters (benchmark harnesses reset
/// between measured passes so each pass pays full cost).
pub fn reset() {
    lock(cache()).clear();
    CACHE_HITS.store(0, Ordering::Relaxed);
    CACHE_MISSES.store(0, Ordering::Relaxed);
    UNCACHED_RUNS.store(0, Ordering::Relaxed);
    *lock(pool_acc()) = PoolStats::default();
}

fn cache_enabled() -> bool {
    std::env::var("OVERSUB_RUN_CACHE")
        .map(|v| v != "0")
        .unwrap_or(true)
}

fn absorb_pool_stats(stats: &PoolStats) {
    lock(pool_acc()).absorb(stats);
}

// ---------------------------------------------------------------------
// Generic job batches (chaos and smoke cells)
// ---------------------------------------------------------------------

/// Run a batch of self-contained jobs on the pool at the configured jobs
/// count, results in submission order. Uncached — for work that is not a
/// plain (config, workload) simulation arm (chaos and smoke cells).
pub fn run_batch<T: Send>(batch: Vec<Job<'_, T>>) -> Vec<T> {
    let (results, stats) = pool::run_ordered(batch, jobs());
    absorb_pool_stats(&stats);
    results
}

// ---------------------------------------------------------------------
// The sweep: batched simulation arms
// ---------------------------------------------------------------------

/// One submitted arm: everything a worker needs, plus the precomputed
/// cache key.
struct Arm {
    label: String,
    cfg: RunConfig,
    mk: Box<dyn Fn() -> Box<dyn Workload> + Send>,
    key: Option<String>,
}

/// A batch of simulation arms, executed together on the worker pool with
/// results returned in submission order.
///
/// ```
/// use oversub::sweep::Sweep;
/// use oversub::workloads::micro::ComputeYield;
/// use oversub::RunConfig;
///
/// let mut sweep = Sweep::new();
/// let a = sweep.add("fig2/n1", RunConfig::vanilla(1), || {
///     Box::new(ComputeYield::fig2a(1, 8_000_000))
/// });
/// let b = sweep.add("fig2/n4", RunConfig::vanilla(1), || {
///     Box::new(ComputeYield::fig2a(4, 8_000_000))
/// });
/// let reports = sweep.run();
/// assert_eq!(reports[a].label, "fig2/n1");
/// assert_eq!(reports[b].label, "fig2/n4");
/// ```
#[derive(Default)]
pub struct Sweep {
    arms: Vec<Arm>,
}

impl Sweep {
    /// An empty batch.
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Submit one arm: the workload factory runs *inside the worker* (so
    /// workloads holding non-`Send` state are fine), and once cheaply at
    /// submission to probe the cache key. Returns the arm's index into
    /// the vector [`run`](Sweep::run) produces.
    pub fn add(
        &mut self,
        label: impl Into<String>,
        cfg: RunConfig,
        mk: impl Fn() -> Box<dyn Workload> + Send + 'static,
    ) -> usize {
        let label = label.into();
        let key = cache_key_for(&cfg, mk().as_ref());
        self.arms.push(Arm {
            label,
            cfg,
            mk: Box::new(mk),
            key,
        });
        self.arms.len() - 1
    }

    /// Number of submitted arms.
    pub fn len(&self) -> usize {
        self.arms.len()
    }

    /// True when no arms have been submitted.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }

    /// Execute the batch at the configured jobs count (see [`jobs`]).
    pub fn run(self) -> Vec<RunReport> {
        let workers = jobs();
        self.run_with_jobs(workers)
    }

    /// Execute the batch at an explicit worker count. Results are in
    /// submission order and independent of `workers`.
    pub fn run_with_jobs(self, workers: usize) -> Vec<RunReport> {
        let n = self.arms.len();
        let mut slots: Vec<Option<RunReport>> = Vec::new();
        slots.resize_with(n, || None);

        // Pass 1 (submission order): serve global-cache hits, dedup
        // repeated keys within the batch, collect the arms that must run.
        let mut to_run: Vec<Arm> = Vec::new();
        let mut run_idx: Vec<usize> = Vec::new(); // arm index per to_run entry
        let mut dups: Vec<(usize, usize)> = Vec::new(); // (dup arm, to_run entry)
        let mut first_by_key: BTreeMap<String, usize> = BTreeMap::new(); // key -> to_run entry
        let mut labels: Vec<String> = Vec::with_capacity(n);
        for (i, arm) in self.arms.into_iter().enumerate() {
            labels.push(arm.label.clone());
            match &arm.key {
                Some(key) => {
                    // Clone out of the cache in its own statement: an
                    // `if let` scrutinee would keep the guard alive for
                    // the whole block, deadlocking the corrupt-entry
                    // path below when it re-locks to remove the entry.
                    let cached = lock(cache()).get(key).cloned();
                    if let Some(json) = cached {
                        match validate_cached(&json) {
                            Ok(hit) => {
                                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                                slots[i] = Some(relabel(hit, &arm.label));
                                continue;
                            }
                            Err(why) => {
                                eprintln!(
                                    "[sweep] run-cache entry `{}…` failed its integrity \
                                     check ({why}); discarding and re-running the arm",
                                    key_brief(key)
                                );
                                lock(cache()).remove(key);
                            }
                        }
                    }
                    if let Some(&entry) = first_by_key.get(key) {
                        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                        dups.push((i, entry));
                        continue;
                    }
                    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
                    first_by_key.insert(key.clone(), to_run.len());
                }
                None => {
                    UNCACHED_RUNS.fetch_add(1, Ordering::Relaxed);
                }
            }
            run_idx.push(i);
            to_run.push(arm);
        }

        // Pass 2: execute the misses on the pool, submission order kept.
        // Panics are isolated per job: a crashing arm yields a report
        // carrying a `job-panic` diagnostic instead of tearing down the
        // batch (and the other arms' results).
        let keys: Vec<Option<String>> = to_run.iter().map(|a| a.key.clone()).collect();
        let arm_labels: Vec<String> = to_run.iter().map(|a| a.label.clone()).collect();
        let batch: Vec<Job<'_, RunReport>> = to_run
            .into_iter()
            .map(|arm| {
                Box::new(move || {
                    let mut wl = (arm.mk)();
                    run_labelled(&mut *wl, &arm.cfg, &arm.label)
                }) as Job<'_, RunReport>
            })
            .collect();
        let (caught, pool_stats) = pool::run_ordered_caught(batch, workers);
        absorb_pool_stats(&pool_stats);
        let mut panicked = vec![false; caught.len()];
        let fresh: Vec<RunReport> = caught
            .into_iter()
            .enumerate()
            .map(|(entry, r)| match r {
                Ok(report) => report,
                Err(p) => {
                    panicked[entry] = true;
                    eprintln!(
                        "[sweep] arm `{}` panicked: {}",
                        arm_labels[entry], p.message
                    );
                    let mut report = RunReport {
                        label: arm_labels[entry].clone(),
                        ..RunReport::default()
                    };
                    report.diagnostics.push(Diagnostic {
                        kind: "job-panic".to_string(),
                        at_ns: 0,
                        task: None,
                        cpu: None,
                        detail: p.message,
                    });
                    report
                }
            })
            .collect();

        // Pass 3: publish to the global cache (idempotent: first writer
        // wins, concurrent sweeps of the same key agree byte-for-byte),
        // then fill result slots and in-batch duplicates. Panicked arms
        // are never cached — a crash is not a result.
        for (entry, report) in fresh.iter().enumerate() {
            if panicked[entry] {
                continue;
            }
            if let Some(key) = &keys[entry] {
                lock(cache())
                    .entry(key.clone())
                    .or_insert_with(|| report.to_json());
            }
        }
        for (i, report) in run_idx.iter().zip(fresh) {
            slots[*i] = Some(report);
        }
        for (dup, entry) in dups {
            let primary = run_idx[entry];
            let report = slots[primary]
                .clone()
                .unwrap_or_else(|| panic!("sweep: duplicate of unexecuted arm {primary}"));
            slots[dup] = Some(relabel(report, &labels[dup]));
        }

        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("sweep: arm {i} produced no report")))
            .collect()
    }
}

/// Splice a new label into a cached report (labels are presentation-only
/// and never part of the cache key).
fn relabel(mut report: RunReport, label: &str) -> RunReport {
    report.label = label.to_string();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use oversub_workloads::micro::ComputeYield;

    fn tiny_arm() -> (RunConfig, impl Fn() -> Box<dyn Workload> + Send + Clone) {
        (RunConfig::vanilla(1).with_seed(3), || {
            Box::new(ComputeYield::fig2a(2, 4_000_000)) as Box<dyn Workload>
        })
    }

    #[test]
    fn sequential_and_parallel_agree_and_dedup() {
        let (cfg, mk) = tiny_arm();

        let mut seq = Sweep::new();
        seq.add("a", cfg.clone(), mk.clone());
        seq.add("b", cfg.clone(), mk.clone());
        let seq_reports = seq.run_with_jobs(1);

        let mut par = Sweep::new();
        par.add("a", cfg.clone(), mk.clone());
        par.add("b", cfg, mk);
        let par_reports = par.run_with_jobs(4);

        assert_eq!(seq_reports.len(), 2);
        assert_eq!(seq_reports[0].label, "a");
        assert_eq!(seq_reports[1].label, "b");
        // Same sim under different labels: identical modulo the label.
        assert_eq!(relabel(seq_reports[1].clone(), "a"), seq_reports[0]);
        // Parallel run is byte-identical to sequential.
        assert_eq!(seq_reports, par_reports);
    }

    #[test]
    fn custom_mechanism_arms_are_uncached() {
        use crate::mechanism::Mechanism;
        use oversub_metrics::MechCounters;

        struct Nop;
        impl Mechanism for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn counters(&self) -> MechCounters {
                MechCounters::named("nop")
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }

        let cfg = RunConfig::vanilla(1)
            .with_seed(3)
            .with_mechanism(|| Box::new(Nop));
        let mut sweep = Sweep::new();
        sweep.add("x", cfg, || {
            Box::new(ComputeYield::fig2a(2, 4_000_000)) as Box<dyn Workload>
        });
        // Must execute (not cache) and still return a labelled report.
        let reports = sweep.run_with_jobs(2);
        assert_eq!(reports[0].label, "x");
    }

    #[test]
    fn batch_results_keep_submission_order() {
        let batch: Vec<Job<'_, usize>> = (0..10usize)
            .map(|i| Box::new(move || i * 3) as Job<'_, usize>)
            .collect();
        assert_eq!(run_batch(batch), (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }
}
