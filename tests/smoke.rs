//! The smoke matrix: 37 short runs over every workload family, each
//! under one arming, run on the sweep pool (`OVERSUB_JOBS`) by one cell
//! runner. Every cell must produce a report (no panic, no engine error)
//! that passes `RunReport::check` and did not exhaust its event budget.
//! Each arming adds its own checks:
//!
//! - **faults** (13 cells; watchdog and lockdep armed): memcached, a flag
//!   pipeline and a batch skeleton with no fault, lost wakeups, timer
//!   jitter and drops, or sensor noise, plus the overload plane under lost
//!   wakeups. The no-fault arm reports no `deadlock-cycle`: these
//!   workloads take their locks in order.
//! - **tails** (5 cells, one request-shaped workload per family): the
//!   exact latency digest is not empty.
//! - **overload** (12 cells): memcached at 0.8x, 1.2x and 2.0x capacity,
//!   with and without CoDel shedding, under vanilla and optimized. The
//!   goodput section is populated, no goodput sample exceeds the deadline,
//!   and no diagnostic of any kind is raised. At 2.0x load CoDel's goodput
//!   is at least the no-shedding goodput.
//! - **race** (7 cells, certified over 8 tie-break schedules): golden
//!   workloads report no `data-race`, the racy micro-workload exactly one
//!   naming both access sites. Robust workloads certify byte-identical,
//!   and every divergence names its salt and first diverging field.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oversub::simcore::pool::Job;
use oversub::simcore::{SimTime, MICROS, MILLIS};
use oversub::workload::Workload;
use oversub::workloads::admission::{AdmissionPolicy, OverloadParams, RetryPolicy};
use oversub::workloads::forkjoin::ForkJoin;
use oversub::workloads::memcached::Memcached;
use oversub::workloads::micro::{Primitive, PrimitiveStress, RacyFlagSpin};
use oversub::workloads::pipeline::{SpinPipeline, WaitFlavor};
use oversub::workloads::skeletons::{BenchProfile, Skeleton};
use oversub::workloads::webserving::WebServing;
use oversub::{
    certify_schedules, sweep, try_run, FaultPlan, MachineSpec, Mechanisms, RunConfig,
    WatchdogParams,
};

/// The overload plane's request deadline.
const DEADLINE_NS: u64 = 3 * MILLIS;
/// Nominal capacity of the 2-core memcached server (mean ~9.5 us/op).
const CAPACITY_OPS: f64 = 200_000.0;
/// Tie-break schedules each race cell is certified over.
const SCHEDULES: usize = 8;

#[derive(Clone, Copy)]
enum Arming {
    Faults { clean: bool },
    Tails,
    Overload,
    Race { robust: bool, races: usize },
}

struct Cell {
    name: String,
    arming: Arming,
    cfg: RunConfig,
    mk: Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>,
}

fn cell(
    name: String,
    arming: Arming,
    cfg: RunConfig,
    mk: impl Fn() -> Box<dyn Workload> + Send + Sync + 'static,
) -> Cell {
    let mk = Box::new(mk);
    Cell {
        name,
        arming,
        cfg,
        mk,
    }
}

fn skeleton(name: &str, threads: usize, scale: f64, salt: u64) -> Box<dyn Workload> {
    let profile = BenchProfile::by_name(name).expect("known benchmark");
    Box::new(Skeleton::scaled(profile, threads, scale).with_salt(salt))
}

fn memcached(threads: usize, cores: usize, rate: f64) -> Box<dyn Workload> {
    Box::new(Memcached::paper(threads, cores, rate))
}

fn overload(admission: AdmissionPolicy) -> OverloadParams {
    OverloadParams::disabled()
        .with_deadline_ns(DEADLINE_NS)
        .with_admission(admission)
        .with_retry(RetryPolicy::default())
}

const CODEL: AdmissionPolicy = AdmissionPolicy::CoDel {
    target_ns: 300 * MICROS,
    interval_ns: 500 * MICROS,
};

/// The family × arming table.
fn cells() -> Vec<Cell> {
    type Family = (&'static str, usize, fn() -> Box<dyn Workload>);
    let mut cells = Vec::new();
    let mc_8c = Memcached::paper(16, 8, 40_000.0).total_cpus();
    let memcached_8c: fn() -> Box<dyn Workload> = || memcached(16, 8, 40_000.0);
    let pipeline_12s: fn() -> Box<dyn Workload> =
        || Box::new(SpinPipeline::new(12, 40, WaitFlavor::Flags));
    let streamcluster: fn() -> Box<dyn Workload> = || skeleton("streamcluster", 24, 0.15, 13);

    let chaos = |cpus: usize, plan: FaultPlan| {
        RunConfig::vanilla(cpus)
            .with_mech(Mechanisms::optimized())
            .with_seed(2026)
            .with_faults(plan)
            .with_lockdep()
            .with_watchdog(WatchdogParams::default())
            .with_max_events(50_000_000)
    };
    let plans = [
        ("clean", FaultPlan::default()),
        ("lost-wakeup", FaultPlan::default().lost_wakeups(0.3)),
        (
            "timer-jitter",
            FaultPlan::default().timer_jitter(200_000).timer_drops(0.2),
        ),
        ("sensor-noise", FaultPlan::default().sensor_noise(0.3)),
    ];
    let families: [Family; 3] = [
        ("memcached/16T/8c", mc_8c, memcached_8c),
        ("pipeline/12S/8c", 8, pipeline_12s),
        ("skeleton/streamcluster/24T/8c", 8, streamcluster),
    ];
    for (family, cpus, mk) in families {
        for (plan_name, plan) in &plans {
            let cfg = chaos(cpus, plan.clone())
                .with_machine(MachineSpec::PaperN(cpus))
                .with_max_time(SimTime::from_millis(200));
            let arming = Arming::Faults {
                clean: *plan_name == "clean",
            };
            cells.push(cell(
                format!("faults {family} x {plan_name}"),
                arming,
                cfg,
                mk,
            ));
        }
    }
    // The overload plane's retries and timeouts next to the watchdog's
    // rescues.
    let rate = 240_000.0;
    let lost = FaultPlan::default().lost_wakeups(0.3);
    let cfg = chaos(Memcached::paper(8, 2, rate).total_cpus(), lost)
        .with_max_time(SimTime::from_millis(150))
        .with_overload(overload(CODEL));
    let name = "faults memcached/8T/2c/overload x lost-wakeup".to_string();
    let arming = Arming::Faults { clean: false };
    cells.push(cell(name, arming, cfg, move || memcached(8, 2, rate)));

    let families: [Family; 5] = [
        (
            "memcached/16T/4c",
            Memcached::paper(16, 4, 80_000.0).total_cpus(),
            || memcached(16, 4, 80_000.0),
        ),
        (
            "web-serving/16T/4c",
            WebServing::new(16, 4, 40_000.0).total_cpus(),
            || Box::new(WebServing::new(16, 4, 40_000.0)),
        ),
        ("pipeline/8S/4c", 4, || {
            Box::new(SpinPipeline::new(8, 60, WaitFlavor::Flags))
        }),
        ("forkjoin/16T/4c", 4, || {
            Box::new(ForkJoin::new(16, 16, 40, 32, 8_000))
        }),
        ("skeleton/ferret/16T/4c", 4, || {
            skeleton("ferret", 16, 0.12, 7)
        }),
    ];
    for (family, cpus, mk) in families {
        let cfg = RunConfig::vanilla(cpus)
            .with_mech(Mechanisms::optimized())
            .with_seed(2026)
            .with_max_time(SimTime::from_millis(300));
        cells.push(cell(format!("tails {family}"), Arming::Tails, cfg, mk));
    }

    let mechs = [
        ("vanilla", Mechanisms::vanilla()),
        ("optimized", Mechanisms::optimized()),
    ];
    for (mech_name, mech) in mechs {
        for load in [0.8, 1.2, 2.0] {
            for (mode, admission) in [("off", AdmissionPolicy::None), ("codel", CODEL)] {
                let rate = CAPACITY_OPS * load;
                let cfg = RunConfig::vanilla(Memcached::paper(8, 2, rate).total_cpus())
                    .with_mech(mech)
                    .with_seed(2026)
                    .with_max_time(SimTime::from_millis(150))
                    .with_max_events(50_000_000)
                    .with_overload(overload(admission));
                let name = format!("overload memcached/{mech_name}/{load}x/{mode}");
                cells.push(cell(name, Arming::Overload, cfg, move || {
                    memcached(8, 2, rate)
                }));
            }
        }
    }

    // Flag hand-offs pin the pipeline's schedule, and the deliberate race
    // is a happens-before gap, not a tie-order dependence: both must
    // certify. The rest contend on equal-time ties and may diverge,
    // explained.
    let robust = ["pipeline-flags/12S/8c", "racy-flag-spin/2T/2c"];
    let families: [Family; 7] = [
        ("pipeline-flags/12S/8c", 8, pipeline_12s),
        ("racy-flag-spin/2T/2c", 2, || {
            Box::new(RacyFlagSpin::default())
        }),
        ("memcached/16T/8c", mc_8c, memcached_8c),
        ("mutex-stress/12T/8c", 8, || {
            Box::new(PrimitiveStress::new(12, 200, Primitive::Mutex, 2_000))
        }),
        ("barrier-stress/8T/4c", 4, || {
            Box::new(PrimitiveStress::new(8, 20, Primitive::Barrier, 2_000))
        }),
        ("forkjoin/8T/4c", 4, || {
            Box::new(ForkJoin::region_heavy(8, 8, 3))
        }),
        ("skeleton/streamcluster/24T/8c", 8, streamcluster),
    ];
    for (family, cpus, mk) in families {
        let cfg = RunConfig::vanilla(cpus)
            .with_machine(MachineSpec::PaperN(cpus))
            .with_mech(Mechanisms::optimized())
            .with_seed(2026)
            .with_max_time(SimTime::from_millis(150))
            .with_max_events(50_000_000)
            .with_race_detector();
        let arming = Arming::Race {
            robust: robust.contains(&family),
            races: usize::from(family.starts_with("racy")),
        };
        cells.push(cell(format!("race {family}"), arming, cfg, mk));
    }
    cells
}

/// Run one cell; its goodput (ops/s), or its failures.
fn run_cell(cell: &Cell) -> Result<f64, Vec<String>> {
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let report = try_run(&mut *(cell.mk)(), &cell.cfg).map_err(|e| vec![e.to_string()])?;
        let mut failures = report.check();
        let kinds: Vec<&str> = report.diagnostics.iter().map(|d| d.kind.as_str()).collect();
        if kinds.contains(&"event-budget") {
            failures.push("event budget exhausted (a hang)".into());
        }
        match cell.arming {
            Arming::Faults { clean } => {
                if clean && kinds.contains(&"deadlock-cycle") {
                    failures.push("deadlock-cycle on the no-fault arm".into());
                }
            }
            Arming::Tails => {
                if report.latency_exact.is_empty() {
                    failures.push("exact latency digest is empty".into());
                }
            }
            Arming::Overload => {
                let gp = &report.goodput;
                if gp.is_empty() {
                    failures.push("goodput section is empty".into());
                }
                if gp.latency.max() > DEADLINE_NS {
                    failures.push(format!("goodput sample of {} ns", gp.latency.max()));
                }
                if !kinds.is_empty() {
                    failures.push(format!("diagnostics {kinds:?}"));
                }
            }
            Arming::Race { robust, races } => {
                let found: Vec<&str> = report
                    .diagnostics
                    .iter()
                    .filter(|d| d.kind == "data-race")
                    .map(|d| d.detail.as_str())
                    .collect();
                let names_sites =
                    |d: &&str| d.contains("racy-writer") && d.contains("racy-spinner");
                if found.len() != races || (races == 1 && !found.iter().all(names_sites)) {
                    failures.push(format!(
                        "expected {races} data race(s) naming both sites, got {found:?}"
                    ));
                }
                let cert = certify_schedules(&mut || (cell.mk)(), &cell.cfg, SCHEDULES);
                if robust && !cert.certified() {
                    failures.push(format!("schedules diverged: {:?}", cert.divergences));
                }
                for d in &cert.divergences {
                    let explained = d.kind == "schedule-divergence"
                        && d.detail.contains("tie-break salt")
                        && d.detail.contains("near field");
                    if !explained {
                        failures.push(format!("unexplained divergence: {} {}", d.kind, d.detail));
                    }
                }
            }
        }
        if failures.is_empty() {
            Ok(report.goodput_ops())
        } else {
            Err(failures)
        }
    }));
    let named = |f: String| format!("{}: {f}", cell.name);
    checked
        .unwrap_or_else(|_| Err(vec!["panicked".into()]))
        .map_err(|failures| failures.into_iter().map(named).collect())
}

#[test]
fn smoke_matrix_passes_every_check() {
    let cells = cells();
    assert_eq!(cells.len(), 37);
    let jobs: Vec<Job<'_, Result<f64, Vec<String>>>> = cells
        .iter()
        .map(|cell| Box::new(move || run_cell(cell)) as Job<'_, _>)
        .collect();
    let results = sweep::run_batch(jobs);
    let mut failures: Vec<String> = results
        .iter()
        .filter_map(|r| r.clone().err())
        .flatten()
        .collect();
    let goodput = |name: String| {
        let at = cells.iter().position(|c| c.name == name);
        results[at.unwrap_or_else(|| panic!("no cell {name}"))]
            .clone()
            .unwrap_or(0.0)
    };
    for mech in ["vanilla", "optimized"] {
        let off = goodput(format!("overload memcached/{mech}/2x/off"));
        let codel = goodput(format!("overload memcached/{mech}/2x/codel"));
        if codel < off {
            failures.push(format!(
                "{mech}: at 2.0x load CoDel yields {codel:.0} good op/s, below the \
                 no-shedding {off:.0}"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
