//! End-to-end guarantees of the overload control plane:
//!
//! 1. **Frontier byte-identity** — `ext_overload_frontier` rendered at
//!    `jobs = 1` and `jobs = 4` from cold caches, and again from the warm
//!    cache, must produce identical bytes.
//! 2. **Accounting invariant** — `completed + deadline_exceeded + shed +
//!    abandoned == offered` holds under arbitrary fault schedules, and
//!    the goodput digest holds exactly the in-deadline completions.
//! 3. **Outcome partitioning** — classifying latencies against a deadline
//!    partitions them exactly, and the partitioned digests merge
//!    associatively (canonical bytes).
//! 4. **Legacy byte-identity** — a config without deadlines/retries/
//!    shedding emits an empty-but-present goodput section; stripping it
//!    yields the pre-overload serialization, and the report is engine-
//!    golden (optimized vs reference engine) with overload both off and
//!    on.
//! 5. **Panic isolation** — a panicking sweep arm becomes a `job-panic`
//!    diagnostic report without disturbing its neighbours, at any jobs
//!    count, and is never published to the run cache.
//!
//! The sweep jobs knob and run cache are process-global, so everything
//! that flips `set_jobs` or calls `reset` lives in ONE `#[test]` (same
//! discipline as `tests/sweep.rs`).

use oversub::experiments::{self as exp, ExpOpts};
use oversub::metrics::LatencyDigest;
use oversub::simcore::SimTime;
use oversub::sweep::{self, Sweep};
use oversub::workload::{Workload, WorldBuilder};
use oversub::workloads::admission::{AdmissionPolicy, OverloadParams, RetryPolicy};
use oversub::workloads::memcached::Memcached;
use oversub::workloads::micro::ComputeYield;
use oversub::{
    run_counted, run_labelled, FaultPlan, Mechanisms, RunConfig, RunReport, WatchdogParams,
};
use proptest::prelude::*;

/// The smoke/test overload plane: 3 ms deadline, CoDel shedder, default
/// retry client.
fn codel_overload() -> OverloadParams {
    OverloadParams::disabled()
        .with_deadline_ns(3_000_000)
        .with_admission(AdmissionPolicy::CoDel {
            target_ns: 300_000,
            interval_ns: 500_000,
        })
        .with_retry(RetryPolicy::default())
}

#[test]
fn frontier_is_byte_identical_across_jobs_and_replay() {
    let o = ExpOpts {
        scale: 0.02,
        seed: 11,
    };

    sweep::reset();
    sweep::set_jobs(1);
    let seq = exp::ext_overload_frontier(o).render();

    sweep::reset();
    sweep::set_jobs(4);
    let par = exp::ext_overload_frontier(o).render();
    // Same process, warm cache: every eligible arm replays from JSON.
    let before = sweep::stats();
    let replay = exp::ext_overload_frontier(o).render();
    let after = sweep::stats();
    sweep::set_jobs(0);

    assert_eq!(
        seq, par,
        "ext_overload_frontier differs between jobs=1 and jobs=4"
    );
    assert_eq!(par, replay, "warm-cache replay changed the frontier table");
    assert!(
        after.cache_hits >= before.cache_hits + 32,
        "expected all 32 frontier arms to replay from cache, hits went {} -> {}",
        before.cache_hits,
        after.cache_hits
    );
}

// ---------------------------------------------------------------------
// Accounting and partitioning properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The outcome ledger balances under arbitrary load multiples, fault
    /// schedules, and shedding modes — and the goodput digest only ever
    /// holds in-deadline completions.
    #[test]
    fn accounting_balances_under_arbitrary_fault_schedules(
        seed in 0u64..500,
        load in 0.5f64..2.5,
        lost in 0.0f64..0.4,
        jitter_ns in 0u64..300_000,
        shed_on in any::<bool>(),
    ) {
        let rate = 120_000.0 * load;
        let deadline_ns = 3_000_000;
        let mut ov = codel_overload();
        if !shed_on {
            ov = ov.with_admission(AdmissionPolicy::None);
        }
        let cfg = RunConfig::vanilla(Memcached::paper(4, 1, rate).total_cpus())
            .with_mech(Mechanisms::optimized())
            .with_seed(seed)
            .with_max_time(SimTime::from_millis(30))
            .with_faults(
                FaultPlan::default()
                    .lost_wakeups(lost)
                    .timer_jitter(jitter_ns),
            )
            .with_watchdog(WatchdogParams::default())
            .with_max_events(20_000_000)
            .with_overload(ov);
        let r = run_labelled(&mut Memcached::paper(4, 1, rate), &cfg, "prop");
        let gp = &r.goodput;
        prop_assert_eq!(r.check(), Vec::<String>::new());
        prop_assert!(gp.offered > 0, "no requests were offered at all");
        if !gp.latency.is_empty() {
            prop_assert!(
                gp.latency.max() <= deadline_ns,
                "goodput digest holds a {} ns sample beyond the {} ns deadline",
                gp.latency.max(), deadline_ns
            );
        }
    }

    /// Classifying latencies against a deadline partitions them exactly,
    /// and the per-shard goodput digests merge associatively.
    #[test]
    fn outcome_partitioned_digests_merge_associatively(
        a in proptest::collection::vec(0u64..4_000_000, 0..30),
        b in proptest::collection::vec(0u64..4_000_000, 0..30),
        c in proptest::collection::vec(0u64..4_000_000, 0..30),
        deadline in 1u64..4_000_000,
    ) {
        let shard = |samples: &[u64]| -> (LatencyDigest, u64, u64) {
            let mut good = LatencyDigest::new();
            let (mut completed, mut exceeded) = (0u64, 0u64);
            for &s in samples {
                if s <= deadline {
                    good.record(s);
                    completed += 1;
                } else {
                    exceeded += 1;
                }
            }
            (good, completed, exceeded)
        };
        let (da, ca, ea) = shard(&a);
        let (db, cb, eb) = shard(&b);
        let (dc, cc, ec) = shard(&c);

        // Exact partition per shard.
        prop_assert_eq!(ca + ea, a.len() as u64);
        prop_assert_eq!(cb + eb, b.len() as u64);
        prop_assert_eq!(cc + ec, c.len() as u64);
        prop_assert_eq!(da.count(), ca);

        let canonical = |d: &LatencyDigest| {
            let mut d = d.clone();
            d.canonicalize();
            d.to_json_value().to_string_compact()
        };
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), as canonical bytes.
        let mut left = da.clone();
        left.merge(&db);
        left.merge(&dc);
        let mut bc = db.clone();
        bc.merge(&dc);
        let mut right = da.clone();
        right.merge(&bc);
        prop_assert_eq!(canonical(&left), canonical(&right));
        prop_assert_eq!(left.count(), ca + cb + cc);
    }
}

// ---------------------------------------------------------------------
// Legacy byte-identity and engine goldens
// ---------------------------------------------------------------------

#[test]
fn zero_overload_config_serializes_like_the_legacy_baseline() {
    let rate = 100_000.0;
    let cfg = RunConfig::vanilla(Memcached::paper(8, 2, rate).total_cpus())
        .with_mech(Mechanisms::optimized())
        .with_seed(42)
        .with_max_time(SimTime::from_millis(60));

    let disabled = run_labelled(&mut Memcached::paper(8, 2, rate), &cfg, "legacy");
    assert!(
        disabled.goodput.is_empty(),
        "a run without overload configured must emit an empty goodput section"
    );
    let json = disabled.to_json();
    let empty = ",\"goodput\":{\"offered\":0,\"completed\":0,\"deadline_exceeded\":0,\
                 \"shed\":0,\"abandoned\":0,\"retries\":0,\"latency\":{\"count\":0,\
                 \"sum\":0,\"values\":[],\"counts\":[]}}";
    assert!(
        json.contains(empty),
        "empty goodput section missing from serialized report"
    );
    // Strip the goodput key: the remaining bytes are exactly the legacy
    // serialization, and the legacy parser accepts them unchanged.
    let legacy = json.replace(empty, "");
    let reparsed = RunReport::from_json(&legacy).expect("legacy JSON parses");
    assert_eq!(reparsed, disabled, "legacy round-trip diverged");

    // An explicitly-disabled overload plane is the same config.
    let explicit = cfg.clone().with_overload(OverloadParams::disabled());
    let again = run_labelled(&mut Memcached::paper(8, 2, rate), &explicit, "legacy");
    assert_eq!(again.to_json(), json);
}

#[test]
fn overload_reports_are_engine_golden() {
    // Optimized vs reference engine, overload plane on: the mechanism
    // overhaul and the overload layer must agree to the last bit.
    let rate = 250_000.0;
    let cfg = RunConfig::vanilla(Memcached::paper(8, 2, rate).total_cpus())
        .with_mech(Mechanisms::optimized())
        .with_seed(7)
        .with_max_time(SimTime::from_millis(60))
        .with_overload(codel_overload());

    let (opt, opt_events) = run_counted(
        &mut Memcached::paper(8, 2, rate),
        &cfg.clone().with_reference_engine(false),
        "overload",
    );
    let (reference, ref_events) = run_counted(
        &mut Memcached::paper(8, 2, rate),
        &cfg.clone().with_reference_engine(true),
        "overload",
    );
    assert_eq!(
        opt.to_json(),
        reference.to_json(),
        "optimized engine diverged from reference with the overload plane on"
    );
    assert!(opt_events <= ref_events);
    // The run actually exercised the plane: something was offered, and
    // under 1.25x load with CoDel something was shed or retried.
    assert!(opt.goodput.offered > 0);
    assert_eq!(opt.check(), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// Panic isolation through the sweep
// ---------------------------------------------------------------------

/// A workload whose build panics — the sweep must contain the blast.
#[derive(Clone, Debug)]
struct PanicWorkload;

impl Workload for PanicWorkload {
    fn name(&self) -> &str {
        "panic-probe"
    }
    fn build(&mut self, _w: &mut WorldBuilder) {
        panic!("intentional workload panic");
    }
    fn collect(&self, _report: &mut RunReport) {}
    fn cache_key(&self) -> Option<String> {
        Some("panic-probe".to_string())
    }
}

#[test]
fn sweep_isolates_panicking_arms_deterministically() {
    let submit = |s: &mut Sweep| {
        s.add("ok/1", RunConfig::vanilla(2).with_seed(881_001), || {
            Box::new(ComputeYield::fig2a(2, 2_000_000)) as Box<dyn Workload>
        });
        s.add("boom", RunConfig::vanilla(2).with_seed(881_002), || {
            Box::new(PanicWorkload) as Box<dyn Workload>
        });
        s.add("ok/2", RunConfig::vanilla(2).with_seed(881_003), || {
            Box::new(ComputeYield::fig2a(3, 2_000_000)) as Box<dyn Workload>
        });
    };

    // Silence the default hook for the intentional panics.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut s1 = Sweep::new();
    submit(&mut s1);
    let r1 = s1.run_with_jobs(1);
    let mut s4 = Sweep::new();
    submit(&mut s4);
    let r4 = s4.run_with_jobs(4);
    std::panic::set_hook(prev);

    assert_eq!(r1, r4, "panic isolation broke jobs=1 vs jobs=4 identity");
    assert_eq!(r1.len(), 3);
    assert_eq!(r1[0].label, "ok/1");
    assert_eq!(r1[2].label, "ok/2");
    assert!(
        !r1[0].diagnostics.iter().any(|d| d.kind == "job-panic"),
        "healthy arm caught a panic diagnostic"
    );
    let boom = &r1[1];
    assert_eq!(boom.label, "boom");
    assert_eq!(boom.diagnostics.len(), 1);
    assert_eq!(boom.diagnostics[0].kind, "job-panic");
    assert!(boom.diagnostics[0]
        .detail
        .contains("intentional workload panic"));

    // A crash is not a result: the panicked arm must never be cached.
    let key = sweep::cache_key_for(&RunConfig::vanilla(2).with_seed(881_002), &PanicWorkload)
        .expect("panic probe is cache-eligible");
    assert!(
        !sweep::cache_contains(&key),
        "a panicked arm was published to the run cache"
    );
}
