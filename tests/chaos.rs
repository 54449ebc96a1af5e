//! Chaos suite for the fault-injection layer and liveness watchdog.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Golden zero-rate determinism** — a `FaultPlan::default()` (all
//!    rates zero) must be byte-identical, through the canonical report
//!    JSON, to a run with no fault layer at all. The injector draws zero
//!    random numbers, schedules zero events, and allocates zero state.
//! 2. **Chaos matrix** — every fault kind crossed with representative
//!    workloads either completes cleanly or terminates with a structured
//!    watchdog diagnostic. No panic, no hang, and never a report that
//!    fails `RunReport::check` (an engine-fault diagnostic is an engine
//!    bug, not an acceptable fault outcome).
//! 3. **Degradation actually engages** — heavy lost wakeups drive the
//!    watchdog's VB rescue path (counted in `MechCounters::recoveries`),
//!    and sensor noise drives BWD's adaptive backoff.
//! 4. **Bad configs are refused, not crashed on** — hand-found holes in
//!    `RunConfig::validate()` and the engine's placement check, plus a
//!    config fuzzer: whatever `validate()` accepts runs to a sound report,
//!    byte-identical to the reference engine's, or comes back as
//!    `EngineError::InvalidConfig`.

use oversub::sched::SchedParams;
use oversub::simcore::SimTime;
use oversub::workload::Workload;
use oversub::workloads::memcached::Memcached;
use oversub::workloads::micro::{Primitive, PrimitiveStress};
use oversub::workloads::pipeline::{SpinPipeline, WaitFlavor};
use oversub::workloads::skeletons::{BenchProfile, Skeleton};
use oversub::{
    run, try_run, ElasticEvent, EngineError, FaultPlan, MachineSpec, MechCounters, Mechanism,
    Mechanisms, RunConfig, RunReport, WatchdogParams,
};
use proptest::prelude::*;

/// A named workload case: label, CPU count, and a fresh-instance factory.
type WorkloadCase<'a> = (&'a str, usize, Box<dyn FnMut() -> Box<dyn Workload>>);

/// The report passes `RunReport::check`, and carries no analysis finding:
/// these runs never arm the race detector or the schedule certifier, so a
/// `data-race` or `schedule-divergence` diagnostic means analysis state
/// leaked into an unarmed run.
fn assert_no_invariant_violations(report: &RunReport, scenario: &str) {
    assert_eq!(report.check(), Vec::<String>::new(), "{scenario}");
    let leaked: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.kind == "data-race" || d.kind == "schedule-divergence")
        .collect();
    assert!(
        leaked.is_empty(),
        "{scenario}: unarmed analysis: {leaked:?}"
    );
}

fn base_cfg(cpus: usize, seed: u64) -> RunConfig {
    RunConfig::vanilla(cpus)
        .with_machine(MachineSpec::PaperN(cpus))
        .with_mech(Mechanisms::optimized())
        .with_seed(seed)
        .with_max_time(SimTime::from_millis(150))
}

/// Golden test: a zero-rate fault plan must not perturb a single byte of
/// the report, on every workload class the fault hooks touch (futex
/// parks, epoll waits, BWD timers, slice arming).
#[test]
fn zero_rate_fault_plan_is_bit_identical() {
    let mc_cpus = Memcached::paper(16, 8, 40_000.0).total_cpus();
    let mut cases: Vec<WorkloadCase> = vec![
        (
            "pipeline",
            8,
            Box::new(|| Box::new(SpinPipeline::new(12, 40, WaitFlavor::Flags))),
        ),
        (
            "memcached",
            mc_cpus,
            Box::new(|| Box::new(Memcached::paper(16, 8, 40_000.0))),
        ),
        (
            "mutex-stress",
            8,
            Box::new(|| Box::new(PrimitiveStress::new(12, 200, Primitive::Mutex, 2_000))),
        ),
    ];
    for (name, cpus, mk) in &mut cases {
        let cfg = base_cfg(*cpus, 42);
        let plain = run(&mut *mk(), &cfg).to_json();
        let zeroed = run(&mut *mk(), &cfg.clone().with_faults(FaultPlan::default())).to_json();
        assert_eq!(
            plain, zeroed,
            "{name}: zero-rate fault plan perturbed the run"
        );
    }
}

/// An armed watchdog on a healthy run is pure observation: no rescues, no
/// diagnostics, and a byte-identical report.
#[test]
fn quiet_watchdog_is_invisible() {
    let cfg = base_cfg(Memcached::paper(16, 8, 40_000.0).total_cpus(), 7);
    let plain = run(&mut Memcached::paper(16, 8, 40_000.0), &cfg);
    let watched = run(
        &mut Memcached::paper(16, 8, 40_000.0),
        &cfg.clone().with_watchdog(WatchdogParams::default()),
    );
    assert!(
        watched.diagnostics.is_empty(),
        "healthy run produced diagnostics: {:?}",
        watched.diagnostics
    );
    assert_eq!(plain.to_json(), watched.to_json());
}

/// The chaos matrix: every fault kind crossed with three workload shapes,
/// watchdog armed, bounded by an event budget. Each cell must produce a
/// report (clean or diagnosed) — never a panic, never a violated engine
/// invariant. The 15 cells are independent simulations and run as one
/// batch on the sweep worker pool (`OVERSUB_JOBS`), results checked in
/// matrix order.
#[test]
fn chaos_matrix_completes_or_diagnoses() {
    use oversub::simcore::pool::Job;

    let plans: Vec<(&str, FaultPlan)> = vec![
        ("lost-wakeup", FaultPlan::default().lost_wakeups(0.3)),
        (
            "timer-jitter",
            FaultPlan::default().timer_jitter(200_000).timer_drops(0.2),
        ),
        ("sensor-noise", FaultPlan::default().sensor_noise(0.3)),
        (
            "spurious-storm",
            FaultPlan::default()
                .spurious_wakeups(0.5)
                .revocation_storms(0.2, 2),
        ),
        ("slice-delay", FaultPlan::default().slice_delays(100_000)),
    ];
    let mc_cpus = Memcached::paper(16, 8, 40_000.0).total_cpus();
    type SendCase<'a> = (
        &'a str,
        usize,
        Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>,
    );
    let workloads: Vec<SendCase> = vec![
        (
            "pipeline",
            8,
            Box::new(|| Box::new(SpinPipeline::new(12, 30, WaitFlavor::Flags))),
        ),
        (
            "memcached",
            mc_cpus,
            Box::new(|| Box::new(Memcached::paper(16, 8, 40_000.0))),
        ),
        (
            "barrier-stress",
            8,
            Box::new(|| Box::new(PrimitiveStress::new(16, 150, Primitive::Barrier, 2_000))),
        ),
    ];
    let mut cells: Vec<Job<'_, (String, RunReport)>> = Vec::new();
    for (plan_name, plan) in &plans {
        for (wl_name, cpus, mk) in &workloads {
            let scenario = format!("{plan_name}/{wl_name}");
            let cfg = base_cfg(*cpus, 9)
                .with_faults(plan.clone())
                .with_watchdog(WatchdogParams::default())
                .with_max_events(20_000_000);
            cells.push(Box::new(move || {
                let report = try_run(&mut *mk(), &cfg)
                    .unwrap_or_else(|e| panic!("{scenario}: engine error: {e}"));
                (scenario, report)
            }));
        }
    }
    for (scenario, report) in oversub::sweep::run_batch(cells) {
        assert_no_invariant_violations(&report, &scenario);
    }
}

/// Heavy lost wakeups + an armed watchdog: parked orphans must be rescued
/// (VB degrades to a real wake), visible both as `recoveries` on the VB
/// mechanism and as `lost-wakeup-rescue` diagnostics.
#[test]
fn lost_wakeups_are_rescued_by_the_watchdog() {
    let cfg = RunConfig::vanilla(4)
        .with_machine(MachineSpec::PaperN(4))
        .with_mech(Mechanisms::optimized())
        .with_seed(11)
        .with_max_time(SimTime::from_millis(400))
        .with_faults(FaultPlan::default().lost_wakeups(0.5))
        .with_watchdog(WatchdogParams::default())
        .with_max_events(20_000_000);
    let mut wl = PrimitiveStress::new(16, 400, Primitive::Mutex, 2_000);
    let report = try_run(&mut wl, &cfg).expect("chaos run must not error");
    assert_no_invariant_violations(&report, "lost-wakeup-rescue");
    let vb = report.mech("vb").expect("vb mechanism present");
    assert!(
        vb.recoveries > 0,
        "expected watchdog rescues, got none; diagnostics: {:?}",
        report.diagnostics
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.kind == "lost-wakeup-rescue"),
        "rescues happened but no lost-wakeup-rescue diagnostic was recorded"
    );
}

/// A lost-wakeup stall, observed with lockdep armed but the rescue path
/// suppressed (enormous park timeout): the watchdog's `no-progress`
/// diagnostic must be *attributed* — its detail carries the wait-for
/// summary, and the stranded waiter's lock shows up as held by nobody,
/// which is exactly the lost-wakeup signature (a deadlock would show a
/// cycle of owners instead).
#[test]
fn lost_wakeup_stall_is_attributed_by_lockdep() {
    let cfg = RunConfig::vanilla(2)
        .with_machine(MachineSpec::PaperN(2))
        // VB is what makes wakeups losable (virtual parks); without it
        // every park is a real sleep and the fault hook never fires.
        .with_mech(Mechanisms::optimized())
        .with_seed(3)
        .with_max_time(SimTime::from_millis(200))
        .with_faults(FaultPlan::default().lost_wakeups(1.0))
        .with_lockdep()
        .with_watchdog(WatchdogParams {
            // No rescue: the park timeout never fires inside the run.
            park_timeout_ns: u64::MAX / 2,
            hang_timeout_ns: 5_000_000,
            ..WatchdogParams::default()
        })
        .with_max_events(5_000_000);
    let mut wl = PrimitiveStress::new(6, 50, Primitive::Mutex, 2_000);
    let report = try_run(&mut wl, &cfg).expect("stalled run must still produce a report");
    assert_no_invariant_violations(&report, "lost-wakeup-attribution");
    let hang = report
        .diagnostics
        .iter()
        .find(|d| d.kind == "no-progress")
        .expect("fully lost wakeups with no rescue must stall into no-progress");
    assert!(
        hang.detail.contains("wait-for:"),
        "no-progress detail lacks lockdep attribution: {}",
        hang.detail
    );
    assert!(
        hang.detail.contains("held by nobody"),
        "lost-wakeup signature (waiting on a free lock) missing: {}",
        hang.detail
    );
}

/// Sensor noise with BWD enabled: the adaptive backoff must engage
/// (counted as `recoveries` on the BWD mechanism) once the false-positive
/// rate crosses its threshold.
#[test]
fn sensor_noise_triggers_bwd_backoff() {
    let cfg = RunConfig::vanilla(8)
        .with_machine(MachineSpec::PaperN(8))
        .with_mech(Mechanisms::optimized())
        .with_seed(5)
        .with_max_time(SimTime::from_millis(300))
        .with_faults(FaultPlan::default().sensor_noise(0.6))
        .with_watchdog(WatchdogParams::default())
        .with_max_events(20_000_000);
    let mut wl = Skeleton::scaled(
        BenchProfile::by_name("streamcluster").expect("known benchmark"),
        16,
        0.3,
    )
    .with_salt(3);
    let report = try_run(&mut wl, &cfg).expect("chaos run must not error");
    assert_no_invariant_violations(&report, "sensor-noise-backoff");
    let bwd = report.mech("bwd").expect("bwd mechanism present");
    assert!(
        bwd.recoveries > 0,
        "expected BWD backoff escalations under 60% sensor noise, got none \
         (checks {}, detections {})",
        report.bwd.checks,
        report.bwd.detections
    );
}

/// The message `try_run` refuses `cfg` with. A config that cannot run
/// must come back as `InvalidConfig`: running it, another error and a
/// panic all fail the calling test.
fn refusal(wl: &mut dyn Workload, cfg: &RunConfig) -> String {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| try_run(wl, cfg))) {
        Ok(Err(EngineError::InvalidConfig(msg))) => msg,
        Ok(Err(e)) => panic!("wrong error: {e}"),
        Ok(Ok(r)) => panic!("try_run ran the config: {}", r.summary()),
        Err(_) => panic!("try_run panicked instead of returning an error"),
    }
}

/// The engine divides by the balance interval when it staggers the
/// balance ticks, so `validate()` must reject zero.
#[test]
fn zero_balance_interval_is_rejected_without_a_panic() {
    let mut cfg = RunConfig::vanilla(4)
        .with_machine(MachineSpec::PaperN(4))
        .with_mech(Mechanisms::optimized());
    cfg.sched.balance_interval_ns = 0;
    let err = cfg.validate().expect_err("validate() must reject it");
    assert!(
        err.contains("balance_interval_ns"),
        "unexpected message: {err}"
    );
    let mut wl = SpinPipeline::new(8, 20, WaitFlavor::Flags);
    assert_eq!(refusal(&mut wl, &cfg), err);
}

/// A timer interval the config cannot show: an out-of-tree mechanism
/// whose `timer_interval_ns()` is `Some(0)` passes `validate()`, and the
/// engine divides by every interval when it staggers the first ticks.
/// `try_run` must refuse the mechanism before any tick is armed.
#[test]
fn zero_period_custom_timer_is_rejected_without_a_panic() {
    struct ZeroTick;
    impl Mechanism for ZeroTick {
        fn name(&self) -> &'static str {
            "zero-tick"
        }
        fn timer_interval_ns(&self) -> Option<u64> {
            Some(0)
        }
        fn counters(&self) -> MechCounters {
            MechCounters::named("zero-tick")
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let cfg = RunConfig::vanilla(4)
        .with_machine(MachineSpec::PaperN(4))
        .with_mechanism(|| Box::new(ZeroTick));
    assert!(
        cfg.validate().is_ok(),
        "the interval is invisible to validate()"
    );
    let msg = refusal(&mut SpinPipeline::new(8, 20, WaitFlavor::Flags), &cfg);
    assert!(
        msg.contains("zero-tick") && msg.contains("zero timer interval"),
        "unexpected message: {msg}"
    );
}

/// With a zero `min_granularity_ns` and a target latency below the
/// runqueue length, the CFS slice is zero: a busy CPU's slice timer
/// re-expires at the same instant forever, and the run sits at one
/// sim time until its event budget runs out. `validate()` must refuse
/// the config, so `try_run` returns at once instead of spinning.
#[test]
fn zero_slice_is_rejected_without_a_hang() {
    let mut cfg = RunConfig::vanilla(4)
        .with_seed(1)
        .with_max_time(SimTime::from_millis(50))
        .with_max_events(2_000_000);
    cfg.sched.target_latency_ns = 0;
    cfg.sched.min_granularity_ns = 0;
    let err = cfg.validate().expect_err("validate() must reject it");
    assert!(
        err.contains("min_granularity_ns"),
        "unexpected message: {err}"
    );
    let profile = BenchProfile::by_name("streamcluster").expect("streamcluster profile");
    assert_eq!(refusal(&mut Skeleton::scaled(profile, 4, 0.05), &cfg), err);
}

/// A BWD check that costs as much as its own interval would book more
/// kernel time than the CPUs have: `try_run` must refuse the config.
#[test]
fn bwd_check_cost_at_interval_is_rejected_without_a_panic() {
    let mut cfg = RunConfig::vanilla(16)
        .with_machine(MachineSpec::PaperN(16))
        .with_mech(Mechanisms::optimized())
        .with_max_time(SimTime::from_millis(20));
    cfg.bwd_params.check_cost_ns = 250_000;
    let err = cfg.validate().expect_err("validate() must reject it");
    assert!(err.contains("check_cost_ns"), "unexpected message: {err}");
    let mut wl = SpinPipeline::new(8, 20, WaitFlavor::Flags);
    assert_eq!(refusal(&mut wl, &cfg), err);
}

/// A machine without CPUs: `validate()` must refuse it before it builds
/// the topology, which asserts on a zero dimension.
#[test]
fn zero_cpu_machine_is_rejected_without_a_panic() {
    for cfg in [
        RunConfig::vanilla(0),
        RunConfig::vanilla(4).with_machine(MachineSpec::PaperN(0)),
        RunConfig::vanilla(4).with_machine(MachineSpec::Numa(2, 0, 1)),
    ] {
        let err = cfg.validate().expect_err("validate() must reject it");
        assert!(err.contains("no CPUs"), "unexpected message: {err}");
        let mut wl = SpinPipeline::new(8, 20, WaitFlavor::Flags);
        assert_eq!(refusal(&mut wl, &cfg), err);
    }
}

/// A thread placed beyond the machine passes `validate()`, which cannot
/// see the workload: memcached pins its three clients after its server
/// cores, here on CPUs 2-4 of a 4-CPU machine. `try_run` must refuse the
/// run and name the thread and the CPU.
#[test]
fn thread_placed_beyond_the_machine_is_rejected_without_a_panic() {
    let cfg = RunConfig::vanilla(4).with_max_time(SimTime::from_millis(20));
    assert!(
        cfg.validate().is_ok(),
        "placement is invisible to validate()"
    );
    let msg = refusal(&mut Memcached::paper(8, 2, 40_000.0), &cfg);
    assert!(
        msg.contains("thread 10 is placed on cpu 4 but the machine has 4 CPUs"),
        "unexpected message: {msg}"
    );
}

/// Scheduler costs feed plain `u64` arithmetic: at `u64::MAX / 4` a
/// context switch overflowed the vruntime charge of `stop_current` (the
/// stint times 1024), and the per-CPU wakeup scan cost overflowed its
/// product with the CPU count, panicking debug runs of `memcached-16T`'s
/// config and wrapping in release. `validate()` caps each
/// per-operation cost, and `try_run` must refuse the config.
#[test]
fn huge_scheduler_costs_are_rejected_without_a_panic() {
    let cpus = Memcached::paper(16, 8, 60_000.0).total_cpus();
    let base = RunConfig::vanilla(cpus)
        .with_mech(Mechanisms::optimized())
        .with_seed(42)
        .with_max_time(SimTime::from_millis(20));
    type Cost = fn(&mut SchedParams) -> &mut u64;
    let costs: [(&str, Cost); 4] = [
        ("ctx_switch_ns", |s| &mut s.ctx_switch_ns),
        ("syscall_entry_ns", |s| &mut s.syscall_entry_ns),
        ("vb_wake_ns", |s| &mut s.vb_wake_ns),
        ("wakeup_scan_per_cpu_ns", |s| &mut s.wakeup_scan_per_cpu_ns),
    ];
    for (name, field) in costs {
        let mut cfg = base.clone();
        *field(&mut cfg.sched) = u64::MAX / 4;
        let err = cfg.validate().expect_err("validate() must reject it");
        assert!(err.contains(name), "unexpected message: {err}");
        assert_eq!(refusal(&mut Memcached::paper(16, 8, 60_000.0), &cfg), err);
    }
}

/// `RunConfig::validate`'s cap on one scheduler operation's cost.
const SCHED_OP_CAP_NS: u64 = 1_000_000_000;

/// A per-operation scheduler cost: small most of the time, else at the
/// cap (accepted), just above it, or far above it (refused).
fn cost_ns() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..5_000,
        0u64..5_000,
        0u64..5_000,
        0u64..5_000,
        0u64..5_000,
        Just(SCHED_OP_CAP_NS),
        Just(SCHED_OP_CAP_NS + 1),
        (SCHED_OP_CAP_NS + 1)..u64::MAX / 4,
    ]
}

/// 0 or 1 (the edges `validate()` guards) a quarter of the time each,
/// else a value below `max`.
fn edge_ns(max: u64) -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(1u64), 2..max, 2..max]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any fault schedule — arbitrary rates, seed, and core count — must
    /// complete or terminate with a watchdog diagnostic within the step
    /// budget. Never a panic, never an invariant violation.
    #[test]
    fn arbitrary_fault_schedules_are_safe(
        seed in any::<u64>(),
        cpus in 2usize..8,
        lost in 0.0f64..1.0,
        spurious in 0.0f64..1.0,
        drops in 0.0f64..1.0,
        jitter in 0u64..500_000,
        noise in 0.0f64..1.0,
        slice in 0u64..200_000,
        storm in 0.0f64..1.0,
    ) {
        let plan = FaultPlan::default()
            .lost_wakeups(lost)
            .spurious_wakeups(spurious)
            .timer_drops(drops)
            .timer_jitter(jitter)
            .sensor_noise(noise)
            .slice_delays(slice)
            .revocation_storms(storm, 1);
        let cfg = RunConfig::vanilla(cpus)
            .with_machine(MachineSpec::PaperN(cpus))
            .with_mech(Mechanisms::optimized())
            .with_seed(seed)
            .with_max_time(SimTime::from_millis(60))
            .with_faults(plan)
            .with_watchdog(WatchdogParams::default())
            .with_max_events(5_000_000);
        let mut wl = SpinPipeline::new(8, 20, WaitFlavor::Flags);
        let report = try_run(&mut wl, &cfg);
        prop_assert!(report.is_ok(), "engine error: {:?}", report.err());
        assert_no_invariant_violations(&report.unwrap(), "arbitrary faults");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Config fuzzer: any machine shape (zero dimensions included), core
    /// count, mechanism preset, environment, pinning, elastic shrink and
    /// grow, and value of the fields `validate()` guards, crossed with
    /// three workload families whose CPU demand may exceed the machine.
    /// `validate()` never panics. A config it refuses, `try_run` refuses
    /// with the same message; one it accepts runs to a report that passes
    /// `check()`, or is refused as `InvalidConfig` for a thread placed
    /// beyond the machine. A run that ends within its event budget gives
    /// the same report bytes on the reference engine (the engines pop
    /// different numbers of events, so a run cut by the budget is exempt).
    #[test]
    fn fuzzed_configs_are_refused_or_run_clean(
        shape in (0usize..5, 0usize..10, 0usize..10, 0usize..10),
        initial_cores in prop_oneof![Just(None::<usize>), (0usize..11).prop_map(Some)],
        preset in 0usize..7,
        env in (any::<bool>(), any::<bool>()),
        sched_ns in (edge_ns(20_000_000), edge_ns(2_000_000)),
        bwd_ns in (edge_ns(400_000), edge_ns(400_000)),
        ple_window_ns in edge_ns(100_000),
        costs in (0usize..9, cost_ns()),
        elastic in prop_oneof![
            Just(None),
            (1usize..8, 1usize..8, 0u64..10_000_000, 0u64..10_000_000).prop_map(Some),
        ],
        max_events in 0u64..200_001,
        workload in (0usize..3, 1usize..17, 1usize..9),
        seed in any::<u64>(),
    ) {
        let machine = match shape {
            (0, n, _, _) => MachineSpec::Flat(n),
            (1, n, _, _) => MachineSpec::PaperN(n),
            (2, nodes, cores, smt) => MachineSpec::Numa(nodes, cores, smt),
            (3, ..) => MachineSpec::Paper8Cores,
            _ => MachineSpec::Paper8Hyperthreads,
        };
        let presets = [
            Mechanisms::vanilla(),
            Mechanisms::optimized(),
            Mechanisms::ple_only(),
            Mechanisms::vb_only(),
            Mechanisms::bwd_only(),
            Mechanisms::neighbour_aware(),
            Mechanisms::neighbour_only(),
        ];
        let mut cfg = RunConfig::vanilla(1)
            .with_machine(machine)
            .with_mech(presets[preset])
            .with_seed(seed)
            .with_max_time(SimTime::from_millis(20))
            .with_max_events(max_events);
        let (vm, pinned) = env;
        if vm {
            cfg = cfg.in_vm();
        }
        cfg.pinned = pinned;
        cfg.initial_cores = initial_cores;
        (cfg.sched.balance_interval_ns, cfg.sched.min_granularity_ns) = sched_ns;
        (cfg.bwd_params.interval_ns, cfg.bwd_params.check_cost_ns) = bwd_ns;
        cfg.ple_params.window_ns = ple_window_ns;
        let (field, ns) = costs;
        let s = &mut cfg.sched;
        *[
            &mut s.ctx_switch_ns,
            &mut s.syscall_entry_ns,
            &mut s.wakeup_fixed_ns,
            &mut s.wakeup_scan_per_cpu_ns,
            &mut s.rq_lock_hold_ns,
            &mut s.rq_lock.base_cost_ns,
            &mut s.rq_lock.per_waiter_ns,
            &mut s.vb_wake_ns,
            &mut s.vb_poll_ns,
        ][field] = ns;
        if let Some((shrink, grow, at, after)) = elastic {
            cfg.elastic = vec![
                ElasticEvent { at: SimTime::from_nanos(at), cores: shrink },
                ElasticEvent { at: SimTime::from_nanos(at + after), cores: shrink + grow },
            ];
        }
        let (family, threads, cores) = workload;
        let mk = || -> Box<dyn Workload> {
            match family {
                0 => Box::new(SpinPipeline::new(threads.max(2), 20, WaitFlavor::Flags)),
                1 => Box::new(PrimitiveStress::new(threads, 50, Primitive::Mutex, 2_000)),
                _ => Box::new(Memcached::paper(threads, cores, 40_000.0)),
            }
        };
        let mut wl = mk();
        let case = format!("{} ({threads}T, {cores} server cores) on {cfg:?}", wl.name());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (cfg.validate(), try_run(&mut *wl, &cfg))
        }));
        let Ok((verdict, run)) = outcome else {
            panic!("panicked: {case}");
        };
        match (verdict, run) {
            (Err(why), Err(EngineError::InvalidConfig(msg))) => prop_assert_eq!(why, msg, "{}", case),
            (Ok(_), Err(EngineError::InvalidConfig(msg))) => prop_assert!(
                msg.contains("but the machine has"),
                "{case}: {msg}"
            ),
            (Ok(_), Ok(report)) => {
                assert_no_invariant_violations(&report, &case);
                if report.diagnostics.iter().all(|d| d.kind != "event-budget") {
                    let reference = try_run(&mut *mk(), &cfg.clone().with_reference_engine(true));
                    let reference = reference.unwrap_or_else(|e| panic!("{case}: reference: {e}"));
                    prop_assert_eq!(
                        report.to_json(),
                        reference.to_json(),
                        "{}: optimized engine diverged from reference",
                        case
                    );
                }
            }
            (verdict, run) => panic!(
                "{case}: validate() gave {verdict:?} but try_run gave {:?}",
                run.map(|r| r.makespan_ns)
            ),
        }
    }
}
