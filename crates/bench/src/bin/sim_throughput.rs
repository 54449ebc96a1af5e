//! Simulator throughput benchmark: events/sec and wall-clock of the
//! optimized engine (a heap with a front slot, cadence lanes and
//! re-armable timer slots, held-back reschedules, tickless idle) versus
//! the reference engine (one plain heap, full balancer scans, every tick
//! and reschedule queued) on representative workloads. Both
//! engines produce bit-identical *report metrics* — see
//! `tests/determinism.rs`; this binary re-asserts the per-mechanism
//! counters match on every arm — so this measures pure host-side speed.
//! The engines' internal processed-event counts may legitimately differ:
//! held-back reschedules keep reschedules that start nothing out of the
//! queue, tickless idle settles idle cores' ticks without popping them, and
//! re-armable timer slots drop superseded slice, segment-end and
//! spin-exit timers from the queue (on the 512-core arm, ~50k optimized
//! events stand for the reference's ~1.59M).
//! An engine's own event count therefore does not measure work done. The
//! gated throughput, `optimized_events_per_sec`, is the *reference*
//! engine's event count (the work, popped one event at a time) per
//! optimized wall second, and the gated speedup is the wall-clock ratio.
//! `events_per_sec_speedup_milli` (each engine's own events per second)
//! is still reported, ungated.
//!
//! Writes `BENCH_sim_throughput.json` at the repo root and prints a
//! table. Usage: `sim_throughput [--reps N] [--jobs N]
//! [--check | --baseline-reset]` (default 5 reps; best-of-N wall time is
//! reported to suppress scheduling noise). An arm whose run takes only a
//! millisecond times `rep_factor` times as many reps, so that its reps
//! span seconds and its best-of-N stays inside the gate's 10% margin on a
//! noisy host. Reps run on the sweep worker pool, but `--jobs` defaults
//! to **1** here — co-running reps contend for host cores and depress
//! the very wall times this benchmark exists to measure. Raise it only
//! for smoke runs where absolute numbers don't matter.
//!
//! A rewrite of the baseline **ratchets**: each gate quantity is written
//! twice, `*_floor` (the gate value: the minimum of the fresh and
//! committed floors) and `*_current` (the fresh measurement,
//! informational). Host noise on a shared machine swings absolute
//! events/sec by ±30% between runs, and a single lucky run committed as
//! the baseline would make the 0.9x `--check` gates flake for everyone
//! after; repeated regenerations therefore only lower the bar. After a
//! real optimization, raise it deliberately with `--baseline-reset`,
//! which writes the fresh numbers unmerged. All non-gate fields are
//! always fresh.
//!
//! With `--check` the committed baseline is left untouched: the process
//! exits non-zero if any arm's fresh `optimized_events_per_sec` falls
//! below 0.9x its committed `optimized_events_per_sec_floor`, if any arm
//! with a committed wall-clock speedup floor of at least 1.2x sees its
//! fresh engine-vs-engine wall-clock speedup fall below 0.9x its
//! committed `wall_clock_speedup_milli_floor` (the host-independent
//! ratio; near-1x arms are exempt — their ratio is wall-noise), or if
//! the tick-dominated-at-scale arm misses the absolute 8x wall-clock
//! speedup floor. Legacy un-suffixed field names are accepted for
//! baselines committed before the floor/current split.

use std::time::Instant;

use oversub::metrics::json::{obj, JsonValue};
use oversub::simcore::pool::Job;
use oversub::simcore::SimTime;
use oversub::workload::Workload;
use oversub::workloads::memcached::Memcached;
use oversub::workloads::pipeline::{SpinPipeline, WaitFlavor};
use oversub::workloads::skeletons::{BenchProfile, Skeleton};
use oversub::{
    run_counted, run_phase_profiled, sweep, MachineSpec, Mechanisms, PhaseProfile, RunConfig,
};

/// The arm whose wall-clock speedup carries an absolute floor in
/// `--check` mode. The tick-dominated-at-scale arm is where tickless
/// idle must show: the reference engine pops every idle core's tick,
/// while the optimized engine settles them in closed form.
const GATED_ARM: &str = "skeleton/streamcluster/8T/512c";

/// Absolute wall-clock speedup floor for [`GATED_ARM`], in milli-units
/// (8000 = 8.0x). Tickless idle measured 13.3-16.4x on a shared 2-vCPU
/// host.
const SPEEDUP_FLOOR_MILLI: u64 = 8000;

/// The relative speedup-regression gate only applies to arms whose
/// *committed* ratio is at least this (1200 = 1.2x). Near-1x arms
/// (memcached, the oversubscribed batch, the pipeline) complete in
/// ~1 ms and their engine-vs-engine ratio swings ±30% with host
/// scheduling noise — a 0.9x gate there measures the host, not the
/// code. Those arms stay covered by the absolute events/sec gate; the
/// ratio gate watches the arms the optimizations demonstrably win
/// (the tick-dominated machines), where rot would actually show.
const RATIO_GATE_MIN_MILLI: u64 = 1200;

struct Arm {
    name: &'static str,
    cfg: RunConfig,
    mk: Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>,
    /// This arm times `rep_factor × --reps` reps of the same config.
    rep_factor: usize,
}

fn arms() -> Vec<Arm> {
    let mut v = Vec::new();

    // Server workload: futex/epoll heavy, 19 CPUs, periodic BWD timers on
    // every CPU keep the cadence lanes busy.
    let cpus = Memcached::paper(16, 8, 60_000.0).total_cpus();
    v.push(Arm {
        name: "memcached/16T/8c",
        cfg: RunConfig::vanilla(cpus)
            .with_mech(Mechanisms::optimized())
            .with_seed(42)
            .with_max_time(SimTime::from_millis(300)),
        mk: Box::new(|| Box::new(Memcached::paper(16, 8, 60_000.0))),
        rep_factor: 1,
    });

    // Batch skeleton: heavy oversubscription (64 threads, 32 cores) makes
    // `pick_next` scans long and wakeup bursts dense.
    v.push(Arm {
        name: "skeleton/streamcluster/64T/32c",
        cfg: RunConfig::vanilla(32)
            .with_machine(MachineSpec::PaperN(32))
            .with_mech(Mechanisms::optimized())
            .with_seed(7),
        mk: Box::new(|| {
            let p = BenchProfile::by_name("streamcluster").expect("known benchmark");
            Box::new(Skeleton::scaled(p, 64, 0.10).with_salt(7))
        }),
        rep_factor: 1,
    });

    // Tick-dominated: 8 threads on a 64-CPU machine. Most cores sit idle
    // and the event mix is dominated by periodic BWD timers and balance
    // passes — tickless idle and the cadence lanes, plus the waiter-board
    // O(1) early-outs for idle_pull and periodic_balance.
    v.push(Arm {
        name: "skeleton/streamcluster/8T/64c",
        cfg: RunConfig::vanilla(64)
            .with_machine(MachineSpec::PaperN(64))
            .with_mech(Mechanisms::optimized())
            .with_seed(11)
            .with_max_time(SimTime::from_millis(300)),
        mk: Box::new(|| {
            let p = BenchProfile::by_name("streamcluster").expect("known benchmark");
            Box::new(Skeleton::scaled(p, 8, 0.60).with_salt(11))
        }),
        rep_factor: 1,
    });

    // Tick-dominated at scale: the same 8 threads on a 512-CPU machine.
    // Nearly every reference event is an idle-core BWD tick or balance
    // pass. The reference engine's cost per tick *grows* with machine
    // size (each pop is a binary-heap sift over one pending timer per
    // core), while the optimized engine lets idle cores' ticks lapse and
    // settles them in closed form — this arm is where tickless idle
    // shows, and where the `--check` gate demands its 8x wall-clock
    // floor (`SPEEDUP_FLOOR_MILLI`).
    v.push(Arm {
        name: "skeleton/streamcluster/8T/512c",
        cfg: RunConfig::vanilla(512)
            .with_machine(MachineSpec::PaperN(512))
            .with_mech(Mechanisms::optimized())
            .with_seed(11)
            .with_max_time(SimTime::from_millis(300)),
        mk: Box::new(|| {
            let p = BenchProfile::by_name("streamcluster").expect("known benchmark");
            Box::new(Skeleton::scaled(p, 8, 0.60).with_salt(11))
        }),
        rep_factor: 1,
    });

    // Spin pipeline: flag-wait heavy, exercises BWD skip flags and their
    // release on pick. A run takes about a millisecond, and on a shared
    // 2-vCPU VM host speed moves between phases that last up to a second
    // or so, so a best-of-3, and even a best-of-60, could sit wholly in a
    // slow phase and cross the 10% gate. Best-of-1,500 at `--reps 3`
    // spans several phases.
    v.push(Arm {
        name: "pipeline/16S/4c",
        cfg: RunConfig::vanilla(4)
            .with_machine(MachineSpec::PaperN(4))
            .with_mech(Mechanisms::optimized())
            .with_seed(5),
        mk: Box::new(|| Box::new(SpinPipeline::new(16, 60, WaitFlavor::Flags))),
        rep_factor: 500,
    });

    v
}

/// One engine flavor's measurement: best-of-`reps` wall time in
/// nanoseconds, the (deterministic) processed-event count, the
/// per-mechanism counters, and the exact tail percentiles of the run's
/// request digest (informational; empty-digest arms report zero
/// requests).
type Measurement = (u64, u64, Vec<JsonValue>, JsonValue);

/// Measure one arm under one engine configuration. The reps execute as a
/// pool batch at the given jobs count (default 1: timing fidelity).
fn measure(arm: &Arm, cfg: RunConfig, reps: usize, jobs: usize) -> Measurement {
    let batch: Vec<Job<'_, Measurement>> = (0..reps)
        .map(|_| {
            let cfg = cfg.clone();
            let mk = &arm.mk;
            let name = arm.name;
            Box::new(move || {
                let mut wl = mk();
                let t0 = Instant::now();
                let (report, n) = run_counted(&mut *wl, &cfg, name);
                let dt = t0.elapsed().as_nanos() as u64;
                let mechs = report
                    .mechanisms
                    .iter()
                    .map(|m| m.to_json_value())
                    .collect();
                let d = &report.latency_exact;
                let tails = obj(vec![
                    ("requests", JsonValue::UInt(d.count() as u128)),
                    ("p50_ns", JsonValue::UInt(d.p50() as u128)),
                    ("p99_ns", JsonValue::UInt(d.p99() as u128)),
                    ("p999_ns", JsonValue::UInt(d.p999() as u128)),
                ]);
                (dt.max(1), n, mechs, tails)
            }) as Job<'_, (u64, u64, Vec<JsonValue>, JsonValue)>
        })
        .collect();
    let mut best_ns = u64::MAX;
    let mut events = 0u64;
    let mut mechs = Vec::new();
    let mut tails = JsonValue::Null;
    for (dt, n, m, t) in sweep::run_batch_with_jobs(batch, jobs) {
        best_ns = best_ns.min(dt);
        events = n;
        mechs = m;
        tails = t;
    }
    (best_ns, events, mechs, tails)
}

/// One instrumented (untimed-rep) run of the arm: where the engine's
/// wall-clock goes, bucketed by phase. Runs outside the timed reps — the
/// per-event `Instant` pairs would distort them.
fn profile(arm: &Arm, cfg: RunConfig) -> PhaseProfile {
    let mut wl = (arm.mk)();
    let (_, _, prof) = run_phase_profiled(&mut *wl, &cfg, arm.name);
    prof
}

fn phase_json(p: &PhaseProfile) -> JsonValue {
    obj(vec![
        ("queue_pop_ns", JsonValue::UInt(p.queue_pop_ns as u128)),
        ("pick_ns", JsonValue::UInt(p.pick_ns as u128)),
        ("mech_timer_ns", JsonValue::UInt(p.mech_timer_ns as u128)),
        ("balance_ns", JsonValue::UInt(p.balance_ns as u128)),
        ("other_ns", JsonValue::UInt(p.other_ns as u128)),
        ("total_ns", JsonValue::UInt(p.total_ns() as u128)),
    ])
}

fn eps(events: u64, wall_ns: u64) -> u64 {
    ((events as u128) * 1_000_000_000 / (wall_ns as u128)) as u64
}

fn main() {
    let mut reps = 5usize;
    let mut jobs = 1usize;
    let mut check = false;
    let mut baseline_reset = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--reps" {
            reps = args.next().and_then(|v| v.parse().ok()).unwrap_or(5).max(1);
        } else if a == "--jobs" {
            jobs = args.next().and_then(|v| v.parse().ok()).unwrap_or(1).max(1);
        } else if a == "--check" {
            check = true;
        } else if a == "--baseline-reset" {
            baseline_reset = true;
        }
    }
    // The bench crate sits at <root>/crates/bench, so the repo root is two
    // levels up from the compile-time manifest dir.
    let Some(root) = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
    else {
        eprintln!(
            "sim_throughput: cannot locate the repo root from manifest dir {}",
            env!("CARGO_MANIFEST_DIR")
        );
        std::process::exit(1);
    };
    let path = root.join("BENCH_sim_throughput.json");

    // Committed baseline, for the conservative ratchet (see module docs).
    // `--check` never rewrites the file, so it needs no merge input.
    let prior = (!check && !baseline_reset)
        .then(|| std::fs::read_to_string(&path).ok())
        .flatten()
        .and_then(|t| JsonValue::parse(&t).ok());

    println!(
        "{:<32} {:>12} {:>10} {:>12} {:>10} {:>8} {:>8}",
        "workload", "ref ev/s", "ref ms", "fast ev/s", "fast ms", "ev/s x", "wall x"
    );
    let mut rows = Vec::new();
    for arm in arms() {
        let arm_reps = reps * arm.rep_factor;
        let (ref_ns, ref_events, ref_mechs, ref_tails) = measure(
            &arm,
            arm.cfg.clone().with_reference_engine(true),
            arm_reps,
            jobs,
        );
        let (fast_ns, fast_events, mechs, tails) = measure(&arm, arm.cfg.clone(), arm_reps, jobs);
        // The exact digest is a report metric: both engines must agree on
        // it bit-for-bit, same as the mechanism counters below.
        if ref_tails.to_string_compact() != tails.to_string_compact() {
            eprintln!(
                "{}: exact latency digest DIVERGED between engines\n  ref:  {}\n  fast: {}",
                arm.name,
                ref_tails.to_string_compact(),
                tails.to_string_compact()
            );
            std::process::exit(1);
        }
        // The two engines must agree on every report metric; the
        // per-mechanism counters are the part this binary can see, so
        // re-assert their bit-identity on every arm (the full-report
        // check lives in tests/determinism.rs). Processed-event counts
        // are the one engine-internal quantity allowed to differ, and
        // only downward: the optimized engine retires events, never adds
        // them.
        let ref_json = JsonValue::Array(ref_mechs).to_string_compact();
        let fast_json = JsonValue::Array(mechs.clone()).to_string_compact();
        if ref_json != fast_json {
            eprintln!(
                "{}: mechanism counters DIVERGED between engines\n  ref:  {ref_json}\n  fast: {fast_json}",
                arm.name
            );
            std::process::exit(1);
        }
        if fast_events > ref_events {
            eprintln!(
                "{}: optimized engine processed MORE events than reference \
                 ({fast_events} > {ref_events}) — the optimized engine can only remove events",
                arm.name
            );
            std::process::exit(1);
        }
        let ref_eps = eps(ref_events, ref_ns);
        let fast_eps = eps(fast_events, fast_ns);
        // Held-back reschedules, tickless idle and the timer slots remove
        // events, so events/sec on
        // the fast engine's own (smaller) count understates the win. The
        // gated throughput counts the work done, the reference events,
        // per optimized wall second; wall-clock speedup is the honest
        // end-to-end ratio. Speedups are in milli-units.
        let work_eps = eps(ref_events, fast_ns);
        let eps_x_milli = (fast_eps as u128 * 1000 / ref_eps.max(1) as u128) as u64;
        let wall_x_milli = (ref_ns as u128 * 1000 / fast_ns.max(1) as u128) as u64;
        println!(
            "{:<32} {:>12} {:>10.2} {:>12} {:>10.2} {:>7}.{:03} {:>7}.{:03}",
            arm.name,
            ref_eps,
            ref_ns as f64 / 1e6,
            fast_eps,
            fast_ns as f64 / 1e6,
            eps_x_milli / 1000,
            eps_x_milli % 1000,
            wall_x_milli / 1000,
            wall_x_milli % 1000,
        );
        // Ratchet the gate fields against the committed row (if any):
        // keep the minimum, so regenerating on a lucky run cannot
        // tighten the 0.9x gates (see module docs). Each gate quantity is
        // emitted twice: `*_floor` is the ratcheted gate value, `*_current`
        // the fresh measurement (informational). Pre-split baselines are
        // read through the legacy un-suffixed names.
        let prior_row = prior.as_ref().and_then(|p| {
            p.get("workloads")?
                .as_array()?
                .iter()
                .find(|b| b.get("workload").and_then(|v| v.as_str()) == Some(arm.name))
        });
        let ratchet = |field: &str, fresh: u64| -> u64 {
            let prev = prior_row.and_then(|r| {
                r.get(&format!("{field}_floor"))
                    .or_else(|| r.get(field))
                    .and_then(|v| v.as_u64())
            });
            match prev {
                Some(prev) => fresh.min(prev),
                None => fresh,
            }
        };
        rows.push(obj(vec![
            ("workload", JsonValue::Str(arm.name.to_string())),
            ("reference_events", JsonValue::UInt(ref_events as u128)),
            ("reference_wall_ns", JsonValue::UInt(ref_ns as u128)),
            ("reference_events_per_sec", JsonValue::UInt(ref_eps as u128)),
            ("optimized_events", JsonValue::UInt(fast_events as u128)),
            ("optimized_wall_ns", JsonValue::UInt(fast_ns as u128)),
            (
                "optimized_events_per_sec_floor",
                JsonValue::UInt(ratchet("optimized_events_per_sec", work_eps) as u128),
            ),
            (
                "optimized_events_per_sec_current",
                JsonValue::UInt(work_eps as u128),
            ),
            (
                "events_per_sec_speedup_milli_floor",
                JsonValue::UInt(ratchet("events_per_sec_speedup_milli", eps_x_milli) as u128),
            ),
            (
                "events_per_sec_speedup_milli_current",
                JsonValue::UInt(eps_x_milli as u128),
            ),
            (
                "wall_clock_speedup_milli_floor",
                JsonValue::UInt(ratchet("wall_clock_speedup_milli", wall_x_milli) as u128),
            ),
            (
                "wall_clock_speedup_milli_current",
                JsonValue::UInt(wall_x_milli as u128),
            ),
            ("mechanisms", JsonValue::Array(mechs)),
            ("latency_tails", tails),
            (
                "phase_breakdown",
                obj(vec![
                    (
                        "reference",
                        phase_json(&profile(&arm, arm.cfg.clone().with_reference_engine(true))),
                    ),
                    ("optimized", phase_json(&profile(&arm, arm.cfg.clone()))),
                ]),
            ),
        ]));
    }

    let sweep_stats = sweep::stats();
    let doc = obj(vec![
        ("bench", JsonValue::Str("sim_throughput".to_string())),
        (
            "detlint_ruleset",
            JsonValue::Str(analysis::RULESET_VERSION.to_string()),
        ),
        ("reps", JsonValue::UInt(reps as u128)),
        ("pool_jobs", JsonValue::UInt(jobs as u128)),
        (
            "pool_jobs_executed",
            JsonValue::UInt(sweep_stats.pool.jobs as u128),
        ),
        (
            "cache_hits",
            JsonValue::UInt(sweep_stats.cache_hits as u128),
        ),
        (
            "note",
            JsonValue::Str(
                "best-of-reps wall time; speedups in milli-units (1300 = 1.3x); \
             report metrics are bit-identical across engines (tests/determinism.rs, \
             re-asserted per arm here) while processed-event counts may differ \
             (held-back reschedules, tickless idle, timer slots; optimized <= \
             reference); \
             optimized_events_per_sec counts reference events (work done) per \
             optimized wall second; the gates read it and \
             wall_clock_speedup_milli; phase_breakdown is one instrumented \
             untimed run per engine; gate fields (*_floor) ratchet to the \
             per-arm minimum across regenerations unless --baseline-reset, \
             *_current is the fresh measurement"
                    .to_string(),
            ),
        ),
        ("workloads", JsonValue::Array(rows)),
    ]);

    if check {
        match check_against_baseline(&doc, &path) {
            Ok(()) => println!("\nthroughput gate passed against {}", path.display()),
            Err(e) => {
                eprintln!("\nthroughput gate FAILED: {e}");
                eprintln!(
                    "(regenerate the baseline with `cargo run --release -p oversub-bench \
                     --bin sim_throughput` and commit the JSON)"
                );
                std::process::exit(1);
            }
        }
        return;
    }

    if let Err(e) = std::fs::write(&path, doc.to_string_pretty() + "\n") {
        eprintln!("sim_throughput: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());
}

/// Compare a fresh measurement against the committed baseline. Three
/// gates, all of which must hold:
///
/// 1. every arm's `optimized_events_per_sec` (reference events per
///    optimized wall second) stays above 0.9x the committed value
///    (absolute regression — catches "the engine got slower");
/// 2. every arm whose committed wall-clock ratio is at least
///    [`RATIO_GATE_MIN_MILLI`] keeps its wall-clock *speedup over the
///    reference engine* above 0.9x the committed ratio (relative
///    regression — the ratio is host-speed independent, so this catches
///    optimizations quietly rotting even on faster or slower CI
///    hardware; near-1x arms are exempt, see the constant's docs);
/// 3. [`GATED_ARM`]'s fresh wall-clock speedup clears the absolute
///    [`SPEEDUP_FLOOR_MILLI`] floor.
///
/// Neither gate divides by the optimized engine's own event count, which
/// tickless idle shrinks without shrinking the work.
///
/// Gate fields read the `*_floor` names, falling back to the legacy
/// un-suffixed names for baselines committed before the split; fresh
/// values read `*_current` the same way. The baseline file is not
/// rewritten.
fn check_against_baseline(fresh: &JsonValue, path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline = JsonValue::parse(&text)
        .map_err(|e| format!("baseline {} is malformed: {e}", path.display()))?;
    let base_rows = baseline
        .get("workloads")
        .and_then(|w| w.as_array())
        .ok_or("baseline has no 'workloads' array")?;
    let fresh_rows = fresh
        .get("workloads")
        .and_then(|w| w.as_array())
        .ok_or("fresh run has no 'workloads' array")?;
    // `*_floor` on new-format rows, legacy un-suffixed name otherwise
    // (and `*_current` for fresh values, same fallback).
    let field = |row: &JsonValue, base: &str, suffix: &str| -> Option<u64> {
        row.get(&format!("{base}_{suffix}"))
            .or_else(|| row.get(base))
            .and_then(|v| v.as_u64())
    };
    let mut failures = Vec::new();
    for row in fresh_rows {
        let name = row
            .get("workload")
            .and_then(|v| v.as_str())
            .ok_or("row without 'workload'")?;
        let fresh_eps = field(row, "optimized_events_per_sec", "current")
            .ok_or("row without 'optimized_events_per_sec_current'")?;
        let fresh_speedup = field(row, "wall_clock_speedup_milli", "current")
            .ok_or("row without 'wall_clock_speedup_milli_current'")?;
        if name == GATED_ARM && fresh_speedup < SPEEDUP_FLOOR_MILLI {
            failures.push(format!(
                "{name}: wall speedup {fresh_speedup} milli below the hard floor \
                 {SPEEDUP_FLOOR_MILLI} milli"
            ));
        }
        let Some(base) = base_rows
            .iter()
            .find(|b| b.get("workload").and_then(|v| v.as_str()) == Some(name))
        else {
            // A new arm has no baseline yet; skip rather than fail, so
            // adding arms does not require regenerating in the same PR.
            println!("  {name}: no committed baseline, skipped");
            continue;
        };
        let base_eps = field(base, "optimized_events_per_sec", "floor")
            .ok_or("baseline row without 'optimized_events_per_sec_floor'")?;
        let base_speedup = field(base, "wall_clock_speedup_milli", "floor")
            .ok_or("baseline row without 'wall_clock_speedup_milli_floor'")?;
        let eps_ok = (fresh_eps as u128) * 10 >= (base_eps as u128) * 9;
        let ratio_gated = base_speedup >= RATIO_GATE_MIN_MILLI;
        let speedup_ok = !ratio_gated || (fresh_speedup as u128) * 10 >= (base_speedup as u128) * 9;
        println!(
            "  {name}: fresh {fresh_eps} ev/s vs committed {base_eps} ev/s -> {}; \
             wall speedup {fresh_speedup} vs committed {base_speedup} milli -> {}",
            if eps_ok { "ok" } else { "REGRESSED" },
            if !ratio_gated {
                "ungated (near-1x arm)"
            } else if speedup_ok {
                "ok"
            } else {
                "REGRESSED"
            },
        );
        if !eps_ok {
            failures.push(format!(
                "{name}: {fresh_eps} ev/s < 0.9x committed {base_eps} ev/s"
            ));
        }
        if !speedup_ok {
            failures.push(format!(
                "{name}: wall speedup {fresh_speedup} milli < 0.9x committed {base_speedup} milli"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}
