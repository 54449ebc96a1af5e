//! Golden determinism test for the engine hot-path overhaul.
//!
//! The optimized engine (an event heap with a front slot, cadence lanes
//! and timer slots, tickless idle, held-back reschedules) must produce
//! **bit-identical metrics** to the reference engine (one plain heap,
//! full balancer scans, every tick and reschedule queued) on every
//! workload class the tier-1 suite covers. Reports are compared through
//! their canonical JSON serialization, which is integer-exact, so
//! equality here means every counter, histogram bucket, and timing field
//! matches to the last bit. Each golden also pins both engines' event
//! counts, and `salted_reports_are_pinned` pins the certifier's salted
//! schedules, which run on the reference engine.

use oversub::ksync::WaitMode;
use oversub::metrics::MechCounters;
use oversub::simcore::SimTime;
use oversub::task::{SpinSig, TaskId};
use oversub::workload::Workload;
use oversub::workloads::memcached::Memcached;
use oversub::workloads::micro::{Primitive, PrimitiveStress};
use oversub::workloads::pipeline::{SpinPipeline, WaitFlavor};
use oversub::workloads::skeletons::{BenchProfile, Skeleton};
use oversub::workloads::webserving::WebServing;
use oversub::{
    run, run_counted, schedule_salt, ElasticEvent, ExecEnv, MachineSpec, Mechanism, Mechanisms,
    RunConfig, SpinExitVerdict, TimerCtx, TimerVerdict,
};
use proptest::prelude::*;
use std::any::Any;
use std::sync::{Arc, Mutex};

/// FNV-1a-64 of `bytes`: a dependency-free fingerprint of a report.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run one workload twice — optimized vs reference engine — and assert
/// byte-identical report JSON. The optimized report must also match
/// `expected`, its pinned `(len, FNV-1a-64)` of `to_json()`: comparing
/// the two engines alone cannot catch an edit to shared code (scheduler,
/// task table, event queue) that moves both reports the same way.
/// `events` pins the `(optimized, reference)` event counts, which are
/// exact: a change that adds or loses an event moves them even when
/// every report byte stays put.
fn assert_golden(
    mut mk: impl FnMut() -> Box<dyn Workload>,
    cfg: &RunConfig,
    label: &str,
    expected: (usize, u64),
    events: (u64, u64),
) {
    let optimized = {
        let mut wl = mk();
        run_counted(&mut *wl, &cfg.clone().with_reference_engine(false), label)
    };
    let reference = {
        let mut wl = mk();
        run_counted(&mut *wl, &cfg.clone().with_reference_engine(true), label)
    };
    let json = optimized.0.to_json();
    assert_eq!(
        json,
        reference.0.to_json(),
        "{label}: optimized engine diverged from reference"
    );
    assert_eq!(
        (json.len(), fnv1a64(json.as_bytes())),
        expected,
        "{label}: report bytes moved from the pinned fingerprint"
    );
    // The optimized engine may only ever *remove* events, never add.
    assert!(
        optimized.1 <= reference.1,
        "{label}: optimized engine processed more events ({} > {})",
        optimized.1,
        reference.1
    );
    assert_eq!(
        (optimized.1, reference.1),
        events,
        "{label}: (optimized, reference) event counts moved"
    );
}

#[test]
fn memcached_reports_are_bit_identical() {
    // The machine must host server cores plus the client threads.
    let cpus = Memcached::paper(16, 8, 40_000.0).total_cpus();
    let cfg = RunConfig::vanilla(cpus)
        .with_mech(Mechanisms::optimized())
        .with_seed(42)
        .with_max_time(SimTime::from_millis(120));
    assert_golden(
        || Box::new(Memcached::paper(16, 8, 40_000.0)),
        &cfg,
        "memcached/16T/8c",
        (26828, 0xddc0_b4d7_5344_1288),
        (28_107, 51_498),
    );
}

#[test]
fn pipeline_reports_are_bit_identical_across_mechanisms() {
    for (mech, name, expected, events) in [
        (
            Mechanisms::vanilla(),
            "vanilla",
            (2231, 0xb6ff_c288_ee99_d39d),
            (1_465, 1_481),
        ),
        (
            Mechanisms::bwd_only(),
            "bwd",
            (2395, 0x3535_829f_c476_f52b),
            (2_682, 3_724),
        ),
        (
            Mechanisms::optimized(),
            "optimized",
            (2530, 0x9bb9_7871_6f4c_1aae),
            (2_682, 3_724),
        ),
    ] {
        let cfg = RunConfig::vanilla(4)
            .with_machine(MachineSpec::PaperN(4))
            .with_mech(mech)
            .with_seed(5);
        assert_golden(
            || Box::new(SpinPipeline::new(16, 30, WaitFlavor::Flags)),
            &cfg,
            &format!("pipeline/{name}"),
            expected,
            events,
        );
    }
}

#[test]
fn skeleton_benchmarks_are_bit_identical() {
    for (bench, expected, events) in [
        (
            "fluidanimate",
            (1158, 0x227e_171a_f0b2_6d67),
            (6_981, 10_059),
        ),
        (
            "streamcluster",
            (1169, 0xf931_9280_599a_d002),
            (5_927, 10_053),
        ),
    ] {
        let profile = BenchProfile::by_name(bench).expect("known benchmark");
        let cfg = RunConfig::vanilla(8)
            .with_machine(MachineSpec::Paper8Cores)
            .with_mech(Mechanisms::optimized())
            .with_seed(7);
        assert_golden(
            || Box::new(Skeleton::scaled(profile, 16, 0.05).with_salt(7)),
            &cfg,
            &format!("skeleton/{bench}"),
            expected,
            events,
        );
    }
}

#[test]
fn oversubscribed_batch_is_bit_identical() {
    // 64 threads on 32 cores: long runqueues and dense wakeup bursts.
    let profile = BenchProfile::by_name("streamcluster").expect("known benchmark");
    let cfg = RunConfig::vanilla(32)
        .with_machine(MachineSpec::PaperN(32))
        .with_mech(Mechanisms::optimized())
        .with_seed(7);
    assert_golden(
        || Box::new(Skeleton::scaled(profile, 64, 0.10).with_salt(7)),
        &cfg,
        "skeleton/64T/32c",
        (1179, 0xbe67_a1fe_e7c7_8c20),
        (36_476, 56_962),
    );
}

#[test]
fn idle_heavy_machine_is_bit_identical() {
    // 8 threads on 64 CPUs: the event mix is dominated by periodic BWD
    // timers and balance passes on idle cores, which is exactly where
    // tickless idle, the cadence lanes and the waiter-board O(1)
    // early-outs (idle_pull, periodic_balance) fire most — this pins
    // their equivalence proofs.
    let profile = BenchProfile::by_name("streamcluster").expect("known benchmark");
    let cfg = RunConfig::vanilla(64)
        .with_machine(MachineSpec::PaperN(64))
        .with_mech(Mechanisms::optimized())
        .with_seed(11)
        .with_max_time(SimTime::from_millis(120));
    assert_golden(
        || Box::new(Skeleton::scaled(profile, 8, 0.60).with_salt(11)),
        &cfg,
        "skeleton/8T/64c",
        (1159, 0x12f8_a4ed_5866_dab7),
        (15_543, 95_872),
    );
}

#[test]
fn tick_dominated_512c_machine_is_bit_identical() {
    // The benchmark's `tick-512c` run: 8 threads on 512 CPUs, where
    // nearly every core idles and tickless idle lets its BWD tick lapse.
    // The fingerprint predates tickless idle: settling the skipped ticks
    // in closed form must leave every report byte where ticking put it.
    let profile = BenchProfile::by_name("streamcluster").expect("known benchmark");
    let cfg = RunConfig::vanilla(512)
        .with_machine(MachineSpec::PaperN(512))
        .with_mech(Mechanisms::optimized())
        .with_seed(11)
        .with_max_time(SimTime::from_millis(300));
    assert_golden(
        || Box::new(Skeleton::scaled(profile, 8, 0.60).with_salt(11)),
        &cfg,
        "skeleton/8T/512c",
        (1172, 0xab20_a0bc_08a2_59eb),
        (49_667, 1_588_289),
    );
}

#[test]
fn web_serving_with_elasticity_is_bit_identical() {
    // Exercises the elastic path (core count changes mid-run) plus epoll.
    let cpus = WebServing::new(24, 8, 50_000.0).total_cpus();
    let mut cfg = RunConfig::vanilla(cpus)
        .with_mech(Mechanisms::optimized())
        .with_seed(11)
        .with_max_time(SimTime::from_millis(80));
    cfg.elastic = vec![
        ElasticEvent {
            at: SimTime::from_millis(20),
            cores: 4,
        },
        ElasticEvent {
            at: SimTime::from_millis(50),
            cores: 8,
        },
    ];
    assert_golden(
        || Box::new(WebServing::new(24, 8, 50_000.0)),
        &cfg,
        "web/24T/8c",
        (10414, 0x7360_2654_cae2_de2a),
        (11_555, 21_532),
    );
}

/// An active out-of-tree mechanism for the golden tests: throttle any
/// spin segment after a fixed window (it deschedules tasks, so it truly
/// perturbs the schedule — both engines must agree on every perturbation).
struct ThrottleSpin {
    window_ns: u64,
    exits: u64,
}

impl Mechanism for ThrottleSpin {
    fn name(&self) -> &'static str {
        "throttle"
    }
    fn on_spin_segment(
        &mut self,
        _cpu: usize,
        _tid: TaskId,
        _sig: &SpinSig,
        _env: ExecEnv,
        now: SimTime,
    ) -> Option<SimTime> {
        Some(now + self.window_ns)
    }
    fn on_spin_exit(&mut self, _cpu: usize, _tid: TaskId) -> SpinExitVerdict {
        self.exits += 1;
        SpinExitVerdict {
            charge_ns: 900,
            set_skip: false,
        }
    }
    fn counters(&self) -> MechCounters {
        MechCounters {
            decisions: self.exits,
            spin_exits: self.exits,
            ..MechCounters::named("throttle")
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn custom_mechanism_runs_are_bit_identical() {
    // A custom mechanism registered through the public API must replay
    // identically on both engines: the factory builds a fresh instance
    // per engine, so the reference twin starts from the same state.
    let cfg = RunConfig::vanilla(4)
        .with_machine(MachineSpec::PaperN(4))
        .with_seed(23)
        .with_mechanism(|| {
            Box::new(ThrottleSpin {
                window_ns: 80_000,
                exits: 0,
            })
        });
    assert_golden(
        || Box::new(SpinPipeline::new(12, 24, WaitFlavor::Flags)),
        &cfg,
        "pipeline/custom-throttle",
        (2220, 0xadc6_a1a8_33ff_8154),
        (1_053, 1_433),
    );
    // And it must actually have fired, or the test proves nothing.
    let mut wl = SpinPipeline::new(12, 24, WaitFlavor::Flags);
    let r = run(&mut wl, &cfg);
    assert!(
        r.mech("throttle").map(|m| m.spin_exits).unwrap_or(0) > 0,
        "custom mechanism never fired"
    );
}

/// An out-of-tree mechanism with its own monitoring timer: it charges a
/// fixed cost on every tick, idle core or not, and counts the ticks that
/// found a task running.
struct Heartbeat {
    ticks: u64,
    busy_ticks: u64,
}

impl Mechanism for Heartbeat {
    fn name(&self) -> &'static str {
        "heartbeat"
    }
    fn timer_interval_ns(&self) -> Option<u64> {
        Some(250_000)
    }
    fn on_timer(&mut self, ctx: &mut TimerCtx<'_>) -> TimerVerdict {
        self.ticks += 1;
        self.busy_ticks += u64::from(ctx.has_current);
        TimerVerdict {
            charge_ns: 300,
            ..TimerVerdict::default()
        }
    }
    fn counters(&self) -> MechCounters {
        MechCounters {
            timer_checks: self.ticks,
            decisions: self.busy_ticks,
            ..MechCounters::named("heartbeat")
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn second_timer_mechanism_is_bit_identical() {
    // `skeleton/8T/64c` with a second timer mechanism beside BWD. Tickless
    // idle needs a single timer mechanism, so this is the clean run on
    // which the optimized engine pops every idle core's BWD tick and
    // runs it through the full `on_timer` path, as the reference does.
    let profile = BenchProfile::by_name("streamcluster").expect("known benchmark");
    let cfg = RunConfig::vanilla(64)
        .with_machine(MachineSpec::PaperN(64))
        .with_mech(Mechanisms::optimized())
        .with_seed(11)
        .with_max_time(SimTime::from_millis(120))
        .with_mechanism(|| {
            Box::new(Heartbeat {
                ticks: 0,
                busy_ticks: 0,
            })
        });
    assert_golden(
        || Box::new(Skeleton::scaled(profile, 8, 0.60).with_salt(11)),
        &cfg,
        "skeleton/8T/64c+heartbeat",
        (1312, 0x55c2_b20a_adde_f0d3),
        (113_287, 130_064),
    );
}

#[test]
fn vm_ple_runs_are_bit_identical() {
    let cfg = RunConfig::vanilla(4)
        .with_machine(MachineSpec::PaperN(4))
        .with_mech(Mechanisms::ple_only())
        .with_seed(13)
        .in_vm();
    assert_golden(
        || {
            Box::new(SpinPipeline::new(
                12,
                20,
                WaitFlavor::SpinLock(oversub::locks::SpinPolicy::ttas()),
            ))
        },
        &cfg,
        "pipeline/ple-vm",
        (2374, 0xacee_c454_8ef9_c73d),
        (360, 382),
    );
}

/// The schedule-robustness certifier's salted runs, reference runs that
/// take the classic queue's tie-break permutation: the three race cells of
/// `tests/smoke.rs` whose salted schedules diverge, at the salts of
/// schedules 1–3. Each pins the
/// report's `(len, FNV-1a-64)` and the event count, so a change to the
/// permutation or to the salted engine path cannot pass unnoticed (the
/// certifier itself only checks that divergences are explained).
#[test]
fn salted_reports_are_pinned() {
    let mc_cpus = Memcached::paper(16, 8, 40_000.0).total_cpus();
    type Cell = (
        &'static str,
        usize,
        fn() -> Box<dyn Workload>,
        [(usize, u64, u64); 3],
    );
    let cells: [Cell; 3] = [
        (
            "memcached/16T/8c",
            mc_cpus,
            || Box::new(Memcached::paper(16, 8, 40_000.0)),
            [
                (31780, 0x3ae8_26f4_eee9_3a41, 65_817),
                (31683, 0xcfbf_976b_21fb_bba7, 65_855),
                (31663, 0x0c0a_b671_3f9a_24eb, 65_708),
            ],
        ),
        (
            "mutex-stress/12T/8c",
            8,
            || Box::new(PrimitiveStress::new(12, 200, Primitive::Mutex, 2_000)),
            [
                (1152, 0x1a23_169c_1d9a_357f, 12_031),
                (1152, 0xc6fd_0677_5809_9a7b, 12_035),
                (1152, 0xe9d7_f664_e7e2_51de, 12_018),
            ],
        ),
        (
            "skeleton/streamcluster/24T/8c",
            8,
            || {
                let p = BenchProfile::by_name("streamcluster").expect("known benchmark");
                Box::new(Skeleton::scaled(p, 24, 0.15).with_salt(13))
            },
            [
                (1182, 0xae0a_bccb_be91_ebda, 39_634),
                (1182, 0x2811_79f0_e8d1_b020, 39_604),
                (1182, 0xa752_7178_fe04_156b, 39_628),
            ],
        ),
    ];
    for (name, cpus, mk, pins) in cells {
        for (k, expected) in (1..).zip(pins) {
            let cfg = RunConfig::vanilla(cpus)
                .with_machine(MachineSpec::PaperN(cpus))
                .with_mech(Mechanisms::optimized())
                .with_seed(2026)
                .with_max_time(SimTime::from_millis(150))
                .with_max_events(50_000_000)
                .with_race_detector()
                .with_schedule_salt(schedule_salt(k));
            let (report, events) = run_counted(&mut *mk(), &cfg, name);
            let json = report.to_json();
            assert_eq!(
                (json.len(), fnv1a64(json.as_bytes()), events),
                expected,
                "{name}, schedule {k}: salted report or event count moved"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Hook invocation order is deterministic
// ---------------------------------------------------------------------

/// A passive observer mechanism: records every hook invocation (with its
/// arguments) into a shared log and never changes any verdict, so it can
/// ride along any configuration without perturbing the run.
struct Recorder {
    log: Arc<Mutex<Vec<String>>>,
}

impl Mechanism for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn on_block(&mut self, cpu: usize, tid: TaskId, mode: WaitMode) {
        self.log
            .lock()
            .unwrap()
            .push(format!("block cpu={cpu} tid={} mode={mode:?}", tid.0));
    }
    fn on_wake(&mut self, tid: TaskId, mode: WaitMode) {
        self.log
            .lock()
            .unwrap()
            .push(format!("wake tid={} mode={mode:?}", tid.0));
    }
    fn on_pick(&mut self, cpu: usize, skips_released: u64) {
        self.log
            .lock()
            .unwrap()
            .push(format!("pick cpu={cpu} released={skips_released}"));
    }
    fn on_slice_expiry(&mut self, cpu: usize, tid: TaskId) {
        self.log
            .lock()
            .unwrap()
            .push(format!("slice cpu={cpu} tid={}", tid.0));
    }
    fn on_spin_segment(
        &mut self,
        cpu: usize,
        tid: TaskId,
        sig: &SpinSig,
        env: ExecEnv,
        now: SimTime,
    ) -> Option<SimTime> {
        self.log.lock().unwrap().push(format!(
            "spin cpu={cpu} tid={} pause={} env={env:?} now={now}",
            tid.0, sig.uses_pause
        ));
        None
    }
    fn on_elastic_change(&mut self, cores: usize) {
        self.log
            .lock()
            .unwrap()
            .push(format!("elastic cores={cores}"));
    }
    fn counters(&self) -> MechCounters {
        MechCounters::named("recorder")
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Run one SpinPipeline config with a Recorder appended to the pipeline
/// and return the full hook log.
fn hook_log(
    stages: usize,
    items: usize,
    cores: usize,
    mech: Mechanisms,
    seed: u64,
    vm: bool,
) -> Vec<String> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let handle = Arc::clone(&log);
    let mut cfg = RunConfig::vanilla(cores)
        .with_machine(MachineSpec::PaperN(cores))
        .with_mech(mech)
        .with_seed(seed)
        .with_mechanism(move || {
            Box::new(Recorder {
                log: Arc::clone(&handle),
            })
        });
    if vm {
        cfg = cfg.in_vm();
    }
    let mut wl = SpinPipeline::new(stages, items, WaitFlavor::Flags);
    run(&mut wl, &cfg);
    // The factory closure inside `cfg` keeps a handle alive; read through.
    let out = log.lock().unwrap().clone();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The exact sequence of hook invocations — names, arguments, and
    /// order — replays identically for identical configurations, under
    /// random mechanism pipelines, core counts, seeds, and environments.
    #[test]
    fn hook_order_is_deterministic(
        stages in 4usize..10,
        items in 6usize..20,
        cores in 2usize..6,
        vb in any::<bool>(),
        bwd in any::<bool>(),
        ple in any::<bool>(),
        vm in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mech = Mechanisms { vb, vb_auto_disable: true, bwd, ple: ple && vm, neighbour: false };
        let a = hook_log(stages, items, cores, mech, seed, vm);
        let b = hook_log(stages, items, cores, mech, seed, vm);
        prop_assert!(!a.is_empty(), "recorder saw no hooks at all");
        prop_assert_eq!(a, b);
    }
}
