//! The exact tail-latency pipeline, end to end:
//!
//! 1. **Digest algebra** — merging [`LatencyDigest`]s is associative and
//!    commutative, and a merged digest is byte-identical (canonical JSON)
//!    to single-threaded accumulation of the same samples.
//! 2. **Sweep byte-identity** — the exact digest inside a `RunReport`
//!    serializes byte-identically at `jobs = 1` and `jobs = 4`, and again
//!    on a warm-cache replay, for a request-shaped workload.
//! 3. **Empty-but-present** — a workload that completes zero requests
//!    still serializes an empty latency block, and reports parsed from
//!    legacy JSON (no `latency_exact` key) tolerate its absence.
//!
//! The sweep jobs knob and run cache are process-global, so the sweep
//! assertions live in one `#[test]` (same discipline as `tests/sweep.rs`).

use oversub::metrics::LatencyDigest;
use oversub::simcore::SimTime;
use oversub::sweep::{self, Sweep};
use oversub::workload::Workload;
use oversub::workloads::memcached::Memcached;
use oversub::workloads::micro::ComputeYield;
use oversub::{run_labelled, Mechanisms, RunConfig, RunReport};
use proptest::prelude::*;

fn digest_of(samples: &[u64]) -> LatencyDigest {
    let mut d = LatencyDigest::new();
    for &s in samples {
        d.record(s);
    }
    d
}

fn canonical_json(d: &LatencyDigest) -> String {
    let mut d = d.clone();
    d.canonicalize();
    d.to_json_value().to_string_compact()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// merge(a, b) == merge(b, a), as canonical bytes.
    #[test]
    fn digest_merge_is_commutative(
        a in proptest::collection::vec(0u64..2_000_000, 0..40),
        b in proptest::collection::vec(0u64..2_000_000, 0..40),
    ) {
        let (da, db) = (digest_of(&a), digest_of(&b));
        let mut ab = da.clone();
        ab.merge(&db);
        let mut ba = db.clone();
        ba.merge(&da);
        prop_assert_eq!(canonical_json(&ab), canonical_json(&ba));
    }

    /// merge(merge(a, b), c) == merge(a, merge(b, c)), as canonical bytes.
    #[test]
    fn digest_merge_is_associative(
        a in proptest::collection::vec(0u64..2_000_000, 0..30),
        b in proptest::collection::vec(0u64..2_000_000, 0..30),
        c in proptest::collection::vec(0u64..2_000_000, 0..30),
    ) {
        let (da, db, dc) = (digest_of(&a), digest_of(&b), digest_of(&c));
        let mut left = da.clone();
        left.merge(&db);
        left.merge(&dc);
        let mut bc = db.clone();
        bc.merge(&dc);
        let mut right = da.clone();
        right.merge(&bc);
        prop_assert_eq!(canonical_json(&left), canonical_json(&right));
    }

    /// Sharding samples across workers and merging equals accumulating
    /// them on one thread — the pool-merge soundness property.
    #[test]
    fn sharded_merge_equals_single_threaded_accumulation(
        samples in proptest::collection::vec(0u64..5_000_000, 1..120),
        shards in 2usize..5,
    ) {
        let single = digest_of(&samples);
        let mut merged = LatencyDigest::new();
        for chunk in samples.chunks(samples.len().div_ceil(shards)) {
            merged.merge(&digest_of(chunk));
        }
        prop_assert_eq!(canonical_json(&merged), canonical_json(&single));
        prop_assert_eq!(merged.count(), samples.len() as u64);
        // Percentiles agree with a sorted reference.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(merged.p50(), sorted[(samples.len()).div_ceil(2) - 1]);
        prop_assert_eq!(merged.max(), *sorted.last().unwrap());
    }
}

/// One request-shaped arm, rendered as the report's canonical JSON.
fn render_memcached_json() -> String {
    let mk = || Box::new(Memcached::paper(8, 2, 40_000.0)) as Box<dyn Workload>;
    let cfg = RunConfig::vanilla(Memcached::paper(8, 2, 40_000.0).total_cpus())
        .with_mech(Mechanisms::optimized())
        .with_seed(23)
        .with_max_time(SimTime::from_millis(120));
    let mut sweep = Sweep::new();
    let idx = sweep.add("memcached", cfg, mk);
    let r = sweep.run();
    r[idx].to_json()
}

#[test]
fn exact_digest_is_byte_identical_across_jobs_and_cache_replay() {
    // Cold cache, sequential.
    sweep::reset();
    sweep::set_jobs(1);
    let seq = render_memcached_json();
    assert!(
        seq.contains("\"latency_exact\""),
        "request-shaped report must carry the exact digest block"
    );
    // Cold cache, pooled.
    sweep::reset();
    sweep::set_jobs(4);
    let par = render_memcached_json();
    assert_eq!(
        seq, par,
        "exact digest bytes differ between jobs=1 and jobs=4"
    );
    // Warm-cache replay.
    let before = sweep::stats();
    let replay = render_memcached_json();
    let after = sweep::stats();
    sweep::set_jobs(0);
    assert_eq!(replay, par, "warm-cache replay changed the digest bytes");
    assert!(
        after.cache_hits > before.cache_hits,
        "replay was expected to hit the run cache"
    );

    // The replayed report round-trips through JSON with its invariants.
    let r = RunReport::from_json(&replay).expect("report JSON parses");
    assert!(
        !r.latency_exact.is_empty(),
        "memcached run must complete requests"
    );
    assert_eq!(r.check(), Vec::<String>::new());
}

#[test]
fn zero_request_workload_serializes_empty_but_present_latency_block() {
    // ComputeYield is a batch workload: no requests, no sink.
    let mut wl = ComputeYield::fig2a(4, 4_000_000);
    let cfg = RunConfig::vanilla(4).with_seed(3);
    let r = run_labelled(&mut wl, &cfg, "batch");
    assert!(r.latency_exact.is_empty());
    assert_eq!(r.latency_exact.p999(), 0, "empty digest percentiles are 0");
    let json = r.to_json();
    let golden = "\"latency_exact\":{\"count\":0,\"sum\":0,\"values\":[],\"counts\":[]}";
    assert!(
        json.contains(golden),
        "zero-request reports must serialize an empty-but-present latency \
         block; got: {json}"
    );
    // Round trip preserves emptiness.
    let back = RunReport::from_json(&json).expect("round trip");
    assert!(back.latency_exact.is_empty());
}

#[test]
fn legacy_reports_without_the_digest_key_still_parse() {
    let r = RunReport {
        label: "legacy".to_string(),
        ..RunReport::default()
    };
    let json = r.to_json();
    // Strip the new key to simulate a report written before the digest
    // existed (old sweep caches, committed baselines).
    let legacy = json.replace(
        "\"latency_exact\":{\"count\":0,\"sum\":0,\"values\":[],\"counts\":[]},",
        "",
    );
    assert_ne!(legacy, json, "the strip must remove the digest key");
    let back = RunReport::from_json(&legacy).expect("legacy JSON parses");
    assert!(back.latency_exact.is_empty());
    assert_eq!(back.label, "legacy");
}
