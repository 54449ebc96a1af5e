//! The result of one invocation and its one-line JSON form, plus the
//! order statistics every metric is reported with.

/// One named metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What one invocation measured: operations attempted and failed, and
/// either the end-to-end or the per-layer metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed operation failed.
    pub first_failure: Option<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Count one operation; `Err` carries why it failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The single JSON line the benchmark ends its standard output with.
    /// Values print with Rust's shortest round-trip formatting, so every
    /// measured digit survives.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The share of fastest operations the timing metrics are read at: host
/// time is taken at the 10th percentile of the per-operation times, rates
/// at the 90th. On a shared host, slowdowns only ever add time, and they
/// come in bursts of seconds to minutes; the fastest tenth of a window's
/// operations is the program's own speed, while the median moves with
/// whatever share of the window the host was busy.
pub const FAST_SHARE: f64 = 0.1;

/// The host time of the fastest [`FAST_SHARE`] of `walls`.
pub fn fast_time(walls: &[f64]) -> f64 {
    quantile(walls, FAST_SHARE)
}

/// The rate of the fastest [`FAST_SHARE`] of `rates`.
pub fn fast_rate(rates: &[f64]) -> f64 {
    quantile(rates, 1.0 - FAST_SHARE)
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between closest ranks;
/// 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0 (a ratio over no attempts).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(fast_time(&v), 1.0);
        assert_eq!(fast_rate(&v), 9.0);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.record(Ok(()));
        o.record(Err("boom".into()));
        o.metrics.push("wall_ms_p10", 1.25, "ms");
        assert_eq!(
            o.to_json_line(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"wall_ms_p10\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(o.first_failure.as_deref(), Some("boom"));
    }
}
