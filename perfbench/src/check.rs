//! The correctness gate every timed operation passes through.

use oversub::RunReport;

/// Diagnostic kinds that mean the engine itself broke (the same set the
/// chaos tests treat as failures).
pub const FAILURE_KINDS: &[&str] = &[
    "rq-inconsistency",
    "waiter-board-mismatch",
    "event-order",
    "lock-grant-mismatch",
    "data-race",
    "schedule-divergence",
];

/// Check one run's report on its own: no failure-kind diagnostic and the
/// report's own invariants.
pub fn check_invariants(report: &RunReport) -> Result<(), String> {
    if let Some(d) = report
        .diagnostics
        .iter()
        .find(|d| FAILURE_KINDS.contains(&d.kind.as_str()))
    {
        return Err(format!("{} diagnostic: {}", d.kind, d.detail));
    }
    if !report.goodput.balanced() {
        return Err("goodput outcomes do not sum to offered".into());
    }
    let digest = &report.latency_exact;
    if digest.count() != report.completed_ops {
        return Err(format!(
            "latency digest holds {} samples but completed_ops is {}",
            digest.count(),
            report.completed_ops
        ));
    }
    if !(digest.p50() <= digest.p99() && digest.p99() <= digest.p999()) {
        return Err(format!(
            "percentiles out of order: p50 {} p99 {} p999 {}",
            digest.p50(),
            digest.p99(),
            digest.p999()
        ));
    }
    Ok(())
}

/// Check one run's canonical report JSON for byte equality with the
/// reference engine's report of the same configuration.
pub fn check_json(json: &str, reference_json: &str) -> Result<(), String> {
    if json == reference_json {
        return Ok(());
    }
    let at = json
        .bytes()
        .zip(reference_json.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(json.len().min(reference_json.len()));
    Err(format!(
        "report differs from the reference engine's at byte {at}"
    ))
}
