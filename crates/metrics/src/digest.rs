//! Exact, mergeable latency digest: the full sorted sample set.
//!
//! The log-bucketed [`crate::hist::LatencyHist`] answers percentile
//! queries with ~4.6% relative error, which is fine for plotting Figure 12
//! but not for gating on p999 — at the tail, a bucket's lower bound can
//! sit an entire bucket width below the true order statistic. The digest
//! keeps every recorded value instead, so:
//!
//! - **Exactness**: `percentile(p)` is the nearest-rank order statistic of
//!   the recorded multiset — no interpolation, no bucket rounding.
//! - **Mergeability**: merging digests concatenates multisets, so merge is
//!   associative and commutative, and a digest accumulated by any
//!   partition of the samples across pool workers equals the
//!   single-threaded accumulation.
//! - **Byte stability**: serialization is a run-length encoding of the
//!   *sorted* multiset (all integers, no floats), so equal multisets
//!   produce byte-identical JSON regardless of insertion or merge order.
//!   This is what lets `oversub::sweep`'s content-addressed cache replay a
//!   report at any `--jobs` count without byte churn.
//!
//! Simulated request counts are small (thousands per run), so the O(n)
//! memory and O(n log n) canonicalization are noise next to the engine
//! run that produced the samples.

use crate::json::{field, field_u64, obj, JsonValue};

/// An exact digest of nanosecond latency samples.
///
/// Samples are held in insertion order until a read forces the canonical
/// (sorted) form; [`LatencyDigest::canonicalize`] sorts in place so
/// subsequent reads are allocation-free. Equality and serialization are
/// defined on the canonical form: two digests holding the same multiset
/// compare equal and serialize identically however they were built.
#[derive(Clone, Debug, Default)]
pub struct LatencyDigest {
    samples: Vec<u64>,
    sum: u128,
    sorted: bool,
}

impl PartialEq for LatencyDigest {
    fn eq(&self, other: &Self) -> bool {
        if self.samples.len() != other.samples.len() || self.sum != other.sum {
            return false;
        }
        self.canonical() == other.canonical()
    }
}

impl Eq for LatencyDigest {}

impl LatencyDigest {
    /// Empty digest.
    pub fn new() -> Self {
        LatencyDigest {
            samples: Vec::new(),
            sum: 0,
            sorted: true,
        }
    }

    /// Record one value (nanoseconds).
    pub fn record(&mut self, v: u64) {
        if self.sorted && self.samples.last().is_some_and(|&last| last > v) {
            self.sorted = false;
        }
        self.samples.push(v);
        self.sum += v as u128;
    }

    /// Merge another digest into this one (multiset union). Associative
    /// and commutative: any merge tree over the same sample partition
    /// yields an equal digest.
    pub fn merge(&mut self, other: &LatencyDigest) {
        if other.samples.is_empty() {
            return;
        }
        if self.samples.is_empty() {
            self.samples = other.samples.clone();
            self.sum = other.sum;
            self.sorted = other.sorted;
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.sum += other.sum;
        self.sorted = false;
    }

    /// A digest holding `samples` in the given order yet marked canonical,
    /// so its order statistics can come out of order: the hand-broken
    /// input of the report invariant tests.
    #[cfg(test)]
    pub(crate) fn with_order_unchecked(samples: Vec<u64>) -> Self {
        LatencyDigest {
            sum: samples.iter().map(|&v| v as u128).sum(),
            samples,
            sorted: true,
        }
    }

    /// Sort the samples in place so later reads are allocation-free.
    pub fn canonicalize(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The sorted sample vector (borrows when already canonical).
    fn canonical(&self) -> std::borrow::Cow<'_, [u64]> {
        if self.sorted {
            std::borrow::Cow::Borrowed(&self.samples)
        } else {
            let mut v = self.samples.clone();
            v.sort_unstable();
            std::borrow::Cow::Owned(v)
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// True when no value has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of recorded values, 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.samples.len() as f64
        }
    }

    /// Smallest recorded value, 0 if empty.
    pub fn min(&self) -> u64 {
        self.canonical().first().copied().unwrap_or(0)
    }

    /// Largest recorded value, 0 if empty.
    pub fn max(&self) -> u64 {
        self.canonical().last().copied().unwrap_or(0)
    }

    /// Exact nearest-rank percentile: the smallest recorded value `v` such
    /// that at least `ceil(p/100 * count)` samples are `<= v`. `p` is
    /// clamped to [0, 100] (p <= 0 returns the minimum, p >= 100 the
    /// maximum); an empty digest returns 0.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.samples.len();
        if n == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Nearest rank = ceil(p/100 * n), with a relative epsilon so that
        // float noise in p/100 (e.g. 99.9/100 * 1000 = 999.0000000000001)
        // cannot bump the rank past the intended order statistic.
        let x = (p / 100.0) * n as f64;
        let rank = (x - x * 1e-12).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        self.canonical().get(idx).copied().unwrap_or(0)
    }

    /// Exact median (nearest-rank p50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Exact p99.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Exact p999 (the 99.9th percentile).
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Serialize to a JSON tree: a run-length encoding of the sorted
    /// multiset (`values[i]` occurs `counts[i]` times, values strictly
    /// increasing) plus the exact count and sum. All fields are integers
    /// and the encoding is canonical, so equal multisets serialize
    /// byte-identically. An empty digest serializes as an empty-but-present
    /// block (`count: 0`, empty arrays).
    pub fn to_json_value(&self) -> JsonValue {
        let sorted = self.canonical();
        let mut values = Vec::new();
        let mut counts = Vec::new();
        for &v in sorted.iter() {
            if values.last() == Some(&JsonValue::UInt(v as u128)) {
                if let Some(JsonValue::UInt(c)) = counts.last_mut() {
                    *c += 1;
                    continue;
                }
            }
            values.push(JsonValue::UInt(v as u128));
            counts.push(JsonValue::UInt(1));
        }
        obj(vec![
            ("count", JsonValue::UInt(self.samples.len() as u128)),
            ("sum", JsonValue::UInt(self.sum)),
            ("values", JsonValue::Array(values)),
            ("counts", JsonValue::Array(counts)),
        ])
    }

    /// Rebuild from [`LatencyDigest::to_json_value`] output. The result is
    /// already canonical (sorted).
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        let count = field_u64(v, "count")? as usize;
        let sum = field(v, "sum")?
            .as_u128()
            .ok_or("'sum' is not an integer")?;
        let values = field(v, "values")?
            .as_array()
            .ok_or("'values' is not an array")?;
        let counts = field(v, "counts")?
            .as_array()
            .ok_or("'counts' is not an array")?;
        if values.len() != counts.len() {
            return Err(format!(
                "values/counts length mismatch: {} vs {}",
                values.len(),
                counts.len()
            ));
        }
        let mut samples = Vec::with_capacity(count);
        for (val, cnt) in values.iter().zip(counts.iter()) {
            let val = val.as_u64().ok_or("bad digest value")?;
            let cnt = cnt.as_u64().ok_or("bad digest count")?;
            for _ in 0..cnt {
                samples.push(val);
            }
        }
        if samples.len() != count {
            return Err(format!(
                "digest count {} disagrees with encoded samples {}",
                count,
                samples.len()
            ));
        }
        if samples.windows(2).any(|w| w[0] > w[1]) {
            return Err("digest values are not sorted".to_string());
        }
        Ok(LatencyDigest {
            samples,
            sum,
            sorted: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest_is_zeroes() {
        let d = LatencyDigest::new();
        assert_eq!(d.count(), 0);
        assert!(d.is_empty());
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.percentile(99.9), 0);
        assert_eq!(d.min(), 0);
        assert_eq!(d.max(), 0);
        assert_eq!(
            d.to_json_value().to_string_compact(),
            r#"{"count":0,"sum":0,"values":[],"counts":[]}"#
        );
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let mut d = LatencyDigest::new();
        // Insert in reverse to exercise canonicalization.
        for i in (1..=1000u64).rev() {
            d.record(i * 10);
        }
        assert_eq!(d.p50(), 5_000); // exactly the 500th of 1000
        assert_eq!(d.p99(), 9_900);
        assert_eq!(d.p999(), 9_990);
        assert_eq!(d.percentile(100.0), 10_000);
        assert_eq!(d.percentile(0.0), 10);
        // Out-of-range p clamps instead of under/overflowing the rank.
        assert_eq!(d.percentile(-5.0), 10);
        assert_eq!(d.percentile(250.0), 10_000);
        assert_eq!(d.min(), 10);
        assert_eq!(d.max(), 10_000);
        assert_eq!(d.mean(), 5_005.0);
    }

    #[test]
    fn single_sample() {
        let mut d = LatencyDigest::new();
        d.record(777);
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(d.percentile(p), 777);
        }
    }

    #[test]
    fn merge_is_multiset_union() {
        let mut a = LatencyDigest::new();
        let mut b = LatencyDigest::new();
        for v in [5u64, 1, 9] {
            a.record(v);
        }
        for v in [3u64, 9] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 9);
        assert_eq!(a.percentile(50.0), 5);

        // Order independence: b ∪ a equals a ∪ b.
        let mut a2 = LatencyDigest::new();
        let mut b2 = LatencyDigest::new();
        for v in [3u64, 9] {
            a2.record(v);
        }
        for v in [5u64, 1, 9] {
            b2.record(v);
        }
        a2.merge(&b2);
        assert_eq!(a, a2);
        assert_eq!(
            a.to_json_value().to_string_compact(),
            a2.to_json_value().to_string_compact()
        );
    }

    #[test]
    fn merge_into_empty_and_with_empty() {
        let mut a = LatencyDigest::new();
        let mut b = LatencyDigest::new();
        b.record(42);
        a.merge(&b);
        assert_eq!(a, b);
        let before = a.clone();
        a.merge(&LatencyDigest::new());
        assert_eq!(a, before);
    }

    #[test]
    fn json_round_trip_is_byte_stable() {
        let mut d = LatencyDigest::new();
        for v in [100u64, 50, 100, 2_000_000_000, 50, 100] {
            d.record(v);
        }
        let json = d.to_json_value().to_string_compact();
        assert_eq!(
            json,
            r#"{"count":6,"sum":2000000400,"values":[50,100,2000000000],"counts":[2,3,1]}"#
        );
        let back = LatencyDigest::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.to_json_value().to_string_compact(), json);
    }

    #[test]
    fn from_json_rejects_malformed_encodings() {
        let bad = [
            // values/counts length mismatch
            r#"{"count":1,"sum":5,"values":[5],"counts":[]}"#,
            // count disagrees with expansion
            r#"{"count":3,"sum":10,"values":[5],"counts":[1]}"#,
            // unsorted values
            r#"{"count":2,"sum":15,"values":[10,5],"counts":[1,1]}"#,
        ];
        for text in bad {
            let v = JsonValue::parse(text).unwrap();
            assert!(LatencyDigest::from_json_value(&v).is_err(), "{text}");
        }
    }

    #[test]
    fn canonicalize_is_idempotent_and_order_blind() {
        let mut fwd = LatencyDigest::new();
        let mut rev = LatencyDigest::new();
        for v in 0..100u64 {
            fwd.record(v * 3 % 71);
        }
        for v in (0..100u64).rev() {
            rev.record(v * 3 % 71);
        }
        fwd.canonicalize();
        fwd.canonicalize();
        assert_eq!(fwd, rev);
        assert_eq!(
            fwd.to_json_value().to_string_compact(),
            rev.to_json_value().to_string_compact()
        );
    }
}
