//! Happens-before race detector + schedule-robustness integration tests.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Race detection is deterministic** — the canonical unsynchronized
//!    flag-spin workload reports exactly one `data-race` diagnostic
//!    naming both access sites, identically across repeated runs.
//! 2. **The detector is pure observation** — arming it on golden-style
//!    configurations changes nothing but the diagnostics list: with
//!    diagnostics cleared, the reports are byte-identical through the
//!    canonical JSON.
//! 3. **No false positives** — every golden workload synchronizes its
//!    shared state through release/acquire channels (futexes, locks,
//!    sync flags, epoll), so the armed detector stays silent on them.
//! 4. **Schedule robustness** — perturbing event-queue tie-breaks with a
//!    seeded salt leaves golden reports byte-identical: no simulated
//!    outcome hinges on insertion-order coincidences.
use oversub::simcore::SimTime;
use oversub::workloads::memcached::Memcached;
use oversub::workloads::micro::{Primitive, PrimitiveStress, RacyFlagSpin};
use oversub::workloads::pipeline::{SpinPipeline, WaitFlavor};
use oversub::workloads::ForkJoin;
use oversub::{certify_schedules, run, MachineSpec, Mechanisms, RunConfig, RunReport};
use proptest::prelude::*;

fn racy_cfg() -> RunConfig {
    RunConfig::vanilla(2)
        .with_machine(MachineSpec::PaperN(2))
        .with_seed(1)
        .with_max_time(SimTime::from_millis(50))
        .with_race_detector()
}

fn kinds(report: &RunReport) -> Vec<&str> {
    report.diagnostics.iter().map(|d| d.kind.as_str()).collect()
}

/// A named workload case: label, CPU count, and a fresh-instance factory.
type WorkloadCase<'a> = (
    &'a str,
    usize,
    Box<dyn Fn() -> Box<dyn oversub::workload::Workload>>,
);

fn golden_cases<'a>() -> Vec<WorkloadCase<'a>> {
    let mc_cpus = Memcached::paper(16, 8, 40_000.0).total_cpus();
    vec![
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
    ]
}

fn golden_cfg(cpus: usize) -> RunConfig {
    RunConfig::vanilla(cpus)
        .with_machine(MachineSpec::PaperN(cpus))
        .with_mech(Mechanisms::optimized())
        .with_seed(42)
        .with_max_time(SimTime::from_millis(150))
}

/// The canonical racy workload must produce exactly one `data-race`
/// diagnostic naming both unsynchronized access sites and their vector
/// clocks, and the run must still complete (the race "works" at runtime).
#[test]
fn racy_flag_spin_reports_one_canonical_race() {
    let report = run(&mut RacyFlagSpin::default(), &racy_cfg());
    let races: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.kind == "data-race")
        .collect();
    assert_eq!(
        races.len(),
        1,
        "expected exactly one data-race; got {:?}",
        kinds(&report)
    );
    let d = races[0];
    assert!(
        d.detail.contains("racy-writer") && d.detail.contains("racy-spinner"),
        "race must name both access sites: {}",
        d.detail
    );
    assert!(
        d.detail.contains("neither happens-before the other"),
        "race must state the missing ordering: {}",
        d.detail
    );
    assert!(
        d.detail.contains("clocks {"),
        "race must carry clock provenance: {}",
        d.detail
    );
    assert_eq!(report.tasks.tasks, 2, "both racy threads ran");
    assert!(
        report.makespan_ns < SimTime::from_millis(50).as_nanos(),
        "the racy run still completes (the store does release the spinner)"
    );
}

/// The race analysis is bit-deterministic: two identical runs serialize to
/// the same canonical JSON, diagnostics included.
#[test]
fn race_analysis_is_deterministic() {
    let a = run(&mut RacyFlagSpin::default(), &racy_cfg()).to_json();
    let b = run(&mut RacyFlagSpin::default(), &racy_cfg()).to_json();
    assert_eq!(a, b, "race-armed run is not reproducible");
}

/// Golden bit-identity: detector on vs off over golden-style configs must
/// agree on every byte of the report once diagnostics are set aside, and
/// the armed detector must report zero races on them (their shared state
/// is ordered by futex/lock/flag release-acquire edges by construction).
#[test]
fn race_detector_is_observation_only_and_silent_on_golden_configs() {
    for (name, cpus, mk) in &golden_cases() {
        let cfg = golden_cfg(*cpus);
        let mut plain = run(&mut *mk(), &cfg);
        let mut armed = run(&mut *mk(), &cfg.clone().with_race_detector());
        assert!(
            !armed.diagnostics.iter().any(|d| d.kind == "data-race"),
            "{name}: false positive on a golden workload"
        );
        plain.diagnostics.clear();
        armed.diagnostics.clear();
        assert_eq!(
            plain.to_json(),
            armed.to_json(),
            "{name}: race detector perturbed the run beyond diagnostics"
        );
    }
}

/// Schedule-robustness certification at small N (the race cells of
/// `tests/smoke.rs` run the same harness at 8 schedules): every schedule
/// is either byte-identical to the pinned tie order or explained by a
/// `schedule-divergence` diagnostic naming the salt and the first
/// diverging report field. The flag pipeline — whose cross-stage
/// hand-offs are all explicit flag releases — must certify fully clean;
/// the racy micro-workload must too (its race is a happens-before gap,
/// not a tie-order dependence).
#[test]
fn schedules_certify_clean_or_explained() {
    for (name, cpus, mk) in &golden_cases() {
        let cert = certify_schedules(&mut || mk(), &golden_cfg(*cpus), 3);
        for d in &cert.divergences {
            assert_eq!(d.kind, "schedule-divergence");
            assert!(
                d.detail.contains("tie-break salt") && d.detail.contains("near field"),
                "{name}: divergence must carry salt and field provenance: {}",
                d.detail
            );
        }
        if *name == "pipeline" {
            assert!(
                cert.certified(),
                "{name}: flag pipeline must be schedule-robust: {:?}",
                cert.divergences
            );
        }
    }
    let cert = certify_schedules(&mut || Box::new(RacyFlagSpin::default()), &racy_cfg(), 4);
    assert!(
        cert.certified(),
        "racy flag spin must certify (race ≠ tie-order dependence): {:?}",
        cert.divergences
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fork-join and primitive-stress workloads synchronize all shared
    /// state, so the armed detector must stay silent for any seed,
    /// thread count, or primitive.
    #[test]
    fn synchronized_workloads_never_report(
        seed in any::<u64>(),
        threads in 2usize..12,
        rounds in 10usize..60,
        prim in prop_oneof![
            Just(Primitive::Mutex),
            Just(Primitive::Cond),
            Just(Primitive::Barrier),
        ],
        forkjoin in any::<bool>(),
    ) {
        let cfg = RunConfig::vanilla(4)
            .with_machine(MachineSpec::PaperN(4))
            .with_mech(Mechanisms::optimized())
            .with_seed(seed)
            .with_max_time(SimTime::from_millis(80))
            .with_race_detector()
            .with_max_events(5_000_000);
        let report = if forkjoin {
            run(&mut ForkJoin::region_heavy(threads, threads, 3), &cfg)
        } else {
            run(&mut PrimitiveStress::new(threads, rounds, prim, 1_500), &cfg)
        };
        for d in &report.diagnostics {
            prop_assert!(
                d.kind != "data-race",
                "false positive on synchronized workload: {}", d.detail
            );
        }
    }
}
