//! Run reports, statistics, and table/figure formatting.
//!
//! - [`hist`]: log-bucketed latency histograms (p95/p99 tails).
//! - [`digest`]: exact, mergeable latency digests (p99/p999 gates).
//! - [`report`]: the [`RunReport`] produced by every simulation run, with
//!   the derived quantities the paper reports (normalized execution time,
//!   CPU utilization in Table-1 units, migration counts, throughput).
//! - [`table`]: plain-text / CSV rendering used by the experiment drivers.

pub mod digest;
pub mod hist;
pub mod json;
pub mod report;
pub mod stats;
pub mod table;

pub use digest::LatencyDigest;
pub use hist::LatencyHist;
pub use report::{
    BlockingAggregate, BwdAggregate, CpuAggregate, Diagnostic, GoodputStats, MechCounters,
    RunReport, TaskAggregate, ENGINE_FAULT_KINDS,
};
pub use stats::Summary;
pub use table::{fmt_ns, fmt_ratio, TextTable};
