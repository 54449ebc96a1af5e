//! Single-run workloads: timed closed-loop runs of one configuration, the
//! set-up probe, and the engine's part of the per-layer ledger.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use oversub::ksync::EpollTable;
use oversub::simcore::SimTime;
use oversub::workload::WorldBuilder;
use oversub::{run_counted, run_phase_profiled, RunReport};

use crate::alloc::{self, Allocs};
use crate::check::{check_invariants, check_json};
use crate::output::{fast_rate, fast_time, median, ratio, Metrics, Outcome};
use crate::workloads::SingleRun;

/// Capped set-up runs after each timed run. The first of them may pay
/// page faults for memory the timed run just returned; the median of all
/// of them is the warm cost.
const SETUPS_PER_RUN: usize = 3;
/// `Workload::build` calls per `workloads.build_us` measurement.
const BUILD_REPS: usize = 51;

/// What the timed loop saw.
pub struct RunStats {
    /// Host seconds of each timed run that did not panic.
    pub walls_s: Vec<f64>,
    /// Simulated seconds per host second of each of those runs.
    pub sim_rates: Vec<f64>,
    /// Host seconds of the capped set-up run made after each timed run.
    pub setups_s: Vec<f64>,
    /// Events the optimized engine processed in one run.
    pub events: u64,
    /// Allocations of one run (the same on every run).
    pub allocs: Allocs,
    /// Peak resident MiB of the process by the end of the timed loop,
    /// before the reference-engine run.
    pub peak_rss_mb: f64,
    /// Host seconds of the untimed reference-engine run.
    pub reference_wall_s: f64,
    /// The reference engine's report, which every run must reproduce.
    pub reference: RunReport,
}

/// Run `run` back to back for at least `seconds` and `min_reps` runs. Each
/// run is one operation of `outcome`: it must pass [`check_invariants`]
/// and reproduce, byte for byte, an untimed reference-engine run of the
/// same configuration. That run comes after the loop, so the peak RSS read
/// before it is the timed loop's own; meanwhile the loop keeps each
/// distinct report JSON (normally one) to compare with it. After each run
/// come [`SETUPS_PER_RUN`] set-up probes: the same configuration capped at
/// 1 µs of simulated time, so the set-up samples span the same window of
/// host noise as the runs.
pub fn timed_runs(
    run: &SingleRun,
    seconds: f64,
    min_reps: usize,
    outcome: &mut Outcome,
) -> Result<RunStats, String> {
    let capped = run.cfg.clone().with_max_time(SimTime::from_nanos(1_000));
    let (mut walls_s, mut sim_rates, mut setups_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut events, mut allocs) = (0, Allocs::default());
    // Per run: the index of its report JSON in `distinct`, or why it failed.
    let mut checks: Vec<Result<usize, String>> = Vec::new();
    let mut distinct: Vec<String> = Vec::new();
    let start = Instant::now();
    while walls_s.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let mut wl = (run.mk)();
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_counted(&mut *wl, &run.cfg, run.name)
        }));
        let wall_s = t0.elapsed().as_secs_f64();
        let run_allocs = alloc::snapshot() - a0;
        // A panicking run is a failed operation; it still counts toward the
        // loop's length.
        walls_s.push(wall_s);
        checks.push(match result {
            Ok((report, n)) => {
                sim_rates.push(report.makespan_secs() / wall_s);
                events = n;
                allocs = run_allocs;
                check_invariants(&report).map(|()| {
                    let json = report.to_json();
                    distinct.iter().position(|d| *d == json).unwrap_or_else(|| {
                        distinct.push(json);
                        distinct.len() - 1
                    })
                })
            }
            Err(_) => Err("run panicked".into()),
        });
        for _ in 0..SETUPS_PER_RUN {
            let mut wl = (run.mk)();
            let t0 = Instant::now();
            black_box(run_counted(&mut *wl, &capped, run.name));
            setups_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let peak_rss_mb = alloc::peak_rss_mb()?;

    let ref_cfg = run.cfg.clone().with_reference_engine(true);
    let mut wl = (run.mk)();
    let t0 = Instant::now();
    let (reference, _) = run_counted(&mut *wl, &ref_cfg, run.name);
    let reference_wall_s = t0.elapsed().as_secs_f64();
    let reference_json = reference.to_json();
    let verdicts: Vec<Result<(), String>> = distinct
        .iter()
        .map(|json| check_json(json, &reference_json))
        .collect();
    for check in checks {
        outcome.record(check.and_then(|i| verdicts[i].clone()));
    }
    Ok(RunStats {
        walls_s,
        sim_rates,
        setups_s,
        events,
        allocs,
        peak_rss_mb,
        reference_wall_s,
        reference,
    })
}

/// The end-to-end metrics: `sim_rate` and `wall_ms_p10` of the fastest
/// tenth of the runs, `setup_s`, the median of the capped runs (engine
/// construction, `Workload::build` and report assembly), and the timed
/// loop's peak RSS.
pub fn end_to_end(stats: &RunStats, m: &mut Metrics) {
    m.push("sim_rate", fast_rate(&stats.sim_rates), "s/s");
    m.push("wall_ms_p10", fast_time(&stats.walls_s) * 1e3, "ms");
    m.push("setup_s", median(&stats.setups_s), "s");
    m.push("peak_rss_mb", stats.peak_rss_mb, "MiB");
}

/// The per-layer metrics one configuration yields: the engine's phase
/// profile from one separate traced run, its counters, and the model's
/// simulated outputs.
pub fn engine_ledger(run: &SingleRun, stats: &RunStats, m: &mut Metrics) {
    let mut wl = (run.mk)();
    let t0 = Instant::now();
    let (_, _, prof) = run_phase_profiled(&mut *wl, &run.cfg, run.name);
    let traced_wall_s = t0.elapsed().as_secs_f64();

    let wall_s = fast_time(&stats.walls_s);
    let events = stats.events as f64;
    let r = &stats.reference;
    let mech = |name: &str| r.mech(name).cloned().unwrap_or_default();
    let (bwd, vb) = (mech("bwd"), mech("vb"));
    let ms = |ns: u64| ns as f64 / 1e6;

    m.push("engine.events", events, "count");
    m.push("engine.events_per_s", ratio(events, wall_s), "1/s");
    m.push("engine.ns_per_event", ratio(wall_s * 1e9, events), "ns");
    m.push(
        "engine.tick_share",
        ratio(bwd.timer_checks as f64, events),
        "ratio",
    );
    m.push("engine.queue_pop_ms", ms(prof.queue_pop_ns), "ms");
    m.push("engine.pick_ms", ms(prof.pick_ns), "ms");
    m.push("engine.mech_timer_ms", ms(prof.mech_timer_ns), "ms");
    m.push("engine.balance_ms", ms(prof.balance_ns), "ms");
    m.push("engine.other_ms", ms(prof.other_ns), "ms");
    m.push(
        "engine.trace_overhead",
        ratio(traced_wall_s, wall_s),
        "ratio",
    );
    m.push(
        "engine.ref_speedup",
        ratio(stats.reference_wall_s, wall_s),
        "ratio",
    );
    m.push(
        "engine.allocs_per_event",
        ratio(stats.allocs.count as f64, events),
        "count",
    );
    m.push("engine.alloc_bytes_per_run", stats.allocs.bytes as f64, "B");

    m.push(
        "mechanism.bwd.timer_checks",
        bwd.timer_checks as f64,
        "count",
    );
    m.push("mechanism.bwd.decisions", bwd.decisions as f64, "count");
    m.push("mechanism.vb.decisions", vb.decisions as f64, "count");
    m.push("mechanism.vb.parks", vb.parks as f64, "count");
    m.push(
        "bwd.useful_check_ratio",
        ratio(r.bwd.detections as f64, r.bwd.checks as f64),
        "ratio",
    );

    m.push("workloads.build_us", build_seconds(run) * 1e6, "us");

    let c = &r.cpus;
    let cpu_ns = (c.useful_ns + c.spin_ns + c.kernel_ns + c.idle_ns) as f64;
    m.push("model.makespan_ms", r.makespan_ns as f64 / 1e6, "ms");
    m.push("model.completed_ops", r.completed_ops as f64, "count");
    m.push("model.p99_us", r.latency_exact.p99() as f64 / 1e3, "us");
    m.push("model.context_switches", c.context_switches as f64, "count");
    m.push(
        "model.virtual_waits",
        r.blocking.virtual_waits as f64,
        "count",
    );
    m.push("model.idle_frac", ratio(c.idle_ns as f64, cpu_ns), "ratio");
    m.push("model.spin_frac", ratio(c.spin_ns as f64, cpu_ns), "ratio");
}

/// Median host seconds of `Workload::build` into a fresh world, as the
/// engine builds it.
fn build_seconds(run: &SingleRun) -> f64 {
    let cores = run
        .cfg
        .initial_cores
        .unwrap_or_else(|| run.cfg.machine.topology().num_cpus());
    let walls: Vec<f64> = (0..BUILD_REPS)
        .map(|_| {
            let mut wl = (run.mk)();
            let mut world = WorldBuilder::new(cores, EpollTable::new(run.cfg.futex_params()));
            let t0 = Instant::now();
            wl.build(&mut world);
            let dt = t0.elapsed().as_secs_f64();
            black_box(world);
            dt
        })
        .collect();
    median(&walls)
}
