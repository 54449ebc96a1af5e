//! Run reports: everything a simulation run produces, in plain data form
//! suitable for serialization and for regenerating the paper's tables.

use crate::digest::LatencyDigest;
use crate::hist::LatencyHist;
use crate::json::{field, field_u64, field_usize, obj, JsonValue};

/// Aggregated task-side statistics for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskAggregate {
    /// Number of tasks.
    pub tasks: usize,
    /// Total useful execution time across tasks.
    pub exec_ns: u64,
    /// Total busy-wait time.
    pub spin_ns: u64,
    /// Total sleep time.
    pub sleep_ns: u64,
    /// Total runnable-but-waiting time.
    pub wait_ns: u64,
    /// Voluntary context switches.
    pub nvcsw: u64,
    /// Involuntary context switches.
    pub nivcsw: u64,
    /// In-node migrations (Table 1's "#In-node Migr").
    pub migrations_local: u64,
    /// Cross-node migrations (Table 1's "#Cross-nodes Migr").
    pub migrations_remote: u64,
    /// Kernel wakeups.
    pub wakeups: u64,
    /// Total wake-request-to-run latency.
    pub wakeup_latency_ns: u64,
    /// BWD deschedules.
    pub bwd_deschedules: u64,
}

impl TaskAggregate {
    /// Total migrations.
    pub fn migrations(&self) -> u64 {
        self.migrations_local + self.migrations_remote
    }

    /// Mean wakeup latency in nanoseconds.
    pub fn mean_wakeup_latency_ns(&self) -> f64 {
        if self.wakeups == 0 {
            0.0
        } else {
            self.wakeup_latency_ns as f64 / self.wakeups as f64
        }
    }
}

/// Per-CPU time breakdown for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuAggregate {
    /// Number of CPUs.
    pub cpus: usize,
    /// Useful work time summed over CPUs.
    pub useful_ns: u64,
    /// Spin time summed over CPUs.
    pub spin_ns: u64,
    /// Kernel overhead summed over CPUs.
    pub kernel_ns: u64,
    /// Idle time summed over CPUs.
    pub idle_ns: u64,
    /// Context switches summed over CPUs.
    pub context_switches: u64,
}

/// Kernel blocking-layer statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockingAggregate {
    /// futex/epoll waits that slept.
    pub sleep_waits: u64,
    /// Waits that used virtual blocking.
    pub virtual_waits: u64,
    /// Wakeups issued.
    pub wakes: u64,
}

/// BWD statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BwdAggregate {
    /// Timer windows examined.
    pub checks: u64,
    /// Spin detections.
    pub detections: u64,
    /// Detections on genuine busy-waiting.
    pub true_positives: u64,
    /// Detections on innocent tight loops.
    pub false_positives: u64,
    /// PLE VM exits (when the PLE arm is on).
    pub ple_exits: u64,
    /// Ground-truth busy-wait episodes the workload entered (denominator
    /// of the sensitivity metric in Table 2).
    pub spin_episodes: u64,
}

/// Structured decision counters for one mechanism in the engine's
/// mechanism pipeline (VB, BWD, PLE, or a user-registered mechanism).
/// Every field is an exact integer, so serialization is byte-stable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MechCounters {
    /// Mechanism name ("vb", "bwd", "ple", ...).
    pub name: String,
    /// Total decisions the mechanism took (mechanism-defined: VB counts
    /// parks + unparks, BWD counts deschedules, PLE counts exits).
    pub decisions: u64,
    /// Blocking calls diverted to an in-place park (VB).
    pub parks: u64,
    /// Parked tasks woken by a flag clear + vruntime restore (VB).
    pub unparks: u64,
    /// Skip flags set on descheduled spinners (BWD).
    pub skips_set: u64,
    /// Skip flags released after every other task ran (BWD).
    pub skips_cleared: u64,
    /// Spin-window exits taken (PLE VM exits, or a custom mechanism's
    /// spin-throttle trips).
    pub spin_exits: u64,
    /// Monitoring windows examined by the mechanism's periodic timer.
    pub timer_checks: u64,
    /// Graceful-degradation actions: watchdog rescues of lost VB parks,
    /// BWD window widenings / per-core disables under sensor noise.
    pub recoveries: u64,
}

impl MechCounters {
    /// A zeroed counter block for mechanism `name`.
    pub fn named(name: &str) -> Self {
        MechCounters {
            name: name.to_string(),
            ..MechCounters::default()
        }
    }

    /// Serialize to a JSON tree.
    pub fn to_json_value(&self) -> JsonValue {
        obj(vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("decisions", JsonValue::UInt(self.decisions as u128)),
            ("parks", JsonValue::UInt(self.parks as u128)),
            ("unparks", JsonValue::UInt(self.unparks as u128)),
            ("skips_set", JsonValue::UInt(self.skips_set as u128)),
            ("skips_cleared", JsonValue::UInt(self.skips_cleared as u128)),
            ("spin_exits", JsonValue::UInt(self.spin_exits as u128)),
            ("timer_checks", JsonValue::UInt(self.timer_checks as u128)),
            ("recoveries", JsonValue::UInt(self.recoveries as u128)),
        ])
    }

    /// Rebuild from [`Self::to_json_value`] output.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        Ok(MechCounters {
            name: field(v, "name")?
                .as_str()
                .ok_or("'name' is not a string")?
                .to_string(),
            decisions: field_u64(v, "decisions")?,
            parks: field_u64(v, "parks")?,
            unparks: field_u64(v, "unparks")?,
            skips_set: field_u64(v, "skips_set")?,
            skips_cleared: field_u64(v, "skips_cleared")?,
            spin_exits: field_u64(v, "spin_exits")?,
            timer_checks: field_u64(v, "timer_checks")?,
            // Absent in reports serialized before the fault layer.
            recoveries: match v.get("recoveries") {
                Some(r) => r.as_u64().ok_or("'recoveries' is not a u64")?,
                None => 0,
            },
        })
    }
}

/// Diagnostic kinds that mean the engine itself broke: a runqueue, the
/// waiter board, the event order, a lock grant or a task continuation
/// disagrees with the rest of the engine state. Faults and watchdog
/// findings degrade a run; these corrupt it, so [`RunReport::check`]
/// fails on any of them.
pub const ENGINE_FAULT_KINDS: &[&str] = &[
    "rq-inconsistency",
    "waiter-board-mismatch",
    "event-order",
    "lock-grant-mismatch",
    "cont-mismatch",
];

/// One structured engine diagnostic: an invariant violation or a liveness
/// watchdog finding. Diagnostics are facts about the run ("task 3 was
/// parked with no waker for 12 ms"), not errors — a run that degrades
/// gracefully completes with a non-empty diagnostics list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable kind tag: a watchdog finding ("lost-wakeup-rescue",
    /// "starvation", "no-progress"), a stop ("event-budget"), an analysis
    /// finding ("deadlock-cycle", "lock-order-inversion", "data-race",
    /// "schedule-divergence"), "fault-injection", or one of the
    /// [`ENGINE_FAULT_KINDS`].
    pub kind: String,
    /// Virtual time the condition was observed (ns).
    pub at_ns: u64,
    /// The task involved, if the condition is task-scoped.
    pub task: Option<usize>,
    /// The CPU involved, if the condition is CPU-scoped.
    pub cpu: Option<usize>,
    /// Human-readable detail.
    pub detail: String,
}

impl Diagnostic {
    /// Serialize to a JSON tree.
    pub fn to_json_value(&self) -> JsonValue {
        let opt = |v: Option<usize>| match v {
            Some(n) => JsonValue::UInt(n as u128),
            None => JsonValue::Null,
        };
        obj(vec![
            ("kind", JsonValue::Str(self.kind.clone())),
            ("at_ns", JsonValue::UInt(self.at_ns as u128)),
            ("task", opt(self.task)),
            ("cpu", opt(self.cpu)),
            ("detail", JsonValue::Str(self.detail.clone())),
        ])
    }

    /// Rebuild from [`Self::to_json_value`] output.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        let opt = |key: &str| -> Result<Option<usize>, String> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(n) => n
                    .as_usize()
                    .map(Some)
                    .ok_or_else(|| format!("'{key}' is not a usize")),
            }
        };
        Ok(Diagnostic {
            kind: field(v, "kind")?
                .as_str()
                .ok_or("'kind' is not a string")?
                .to_string(),
            at_ns: field_u64(v, "at_ns")?,
            task: opt("task")?,
            cpu: opt("cpu")?,
            detail: field(v, "detail")?
                .as_str()
                .ok_or("'detail' is not a string")?
                .to_string(),
        })
    }
}

/// Outcome-partitioned request accounting for runs with the overload
/// control plane on (deadlines / shedding / retries). Every offered
/// attempt lands in exactly one bucket:
/// `offered == completed + deadline_exceeded + shed + abandoned`.
/// Default (all-zero, empty digest) when the control plane is off, so
/// reports from pre-overload configs keep their byte-stable JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GoodputStats {
    /// Request attempts offered to admission (fresh sends and retries).
    pub offered: u64,
    /// Completed within deadline — the goodput numerator.
    pub completed: u64,
    /// Completed, but past the deadline (wasted work).
    pub deadline_exceeded: u64,
    /// Rejected by the admission policy.
    pub shed: u64,
    /// Admitted but still in flight when the run ended.
    pub abandoned: u64,
    /// Client retry re-injections (a subset of `offered`).
    pub retries: u64,
    /// Exact latency digest restricted to within-deadline completions.
    pub latency: LatencyDigest,
}

impl GoodputStats {
    /// True when no overload accounting happened (control plane off).
    pub fn is_empty(&self) -> bool {
        self.offered == 0 && self.completed == 0 && self.latency.is_empty()
    }

    /// The conservation invariant: every offered attempt has one outcome.
    pub fn balanced(&self) -> bool {
        self.offered == self.completed + self.deadline_exceeded + self.shed + self.abandoned
    }

    /// Serialize to a JSON tree (canonical field order).
    pub fn to_json_value(&self) -> JsonValue {
        obj(vec![
            ("offered", JsonValue::UInt(self.offered as u128)),
            ("completed", JsonValue::UInt(self.completed as u128)),
            (
                "deadline_exceeded",
                JsonValue::UInt(self.deadline_exceeded as u128),
            ),
            ("shed", JsonValue::UInt(self.shed as u128)),
            ("abandoned", JsonValue::UInt(self.abandoned as u128)),
            ("retries", JsonValue::UInt(self.retries as u128)),
            ("latency", self.latency.to_json_value()),
        ])
    }

    /// Rebuild from [`Self::to_json_value`] output.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        Ok(GoodputStats {
            offered: field_u64(v, "offered")?,
            completed: field_u64(v, "completed")?,
            deadline_exceeded: field_u64(v, "deadline_exceeded")?,
            shed: field_u64(v, "shed")?,
            abandoned: field_u64(v, "abandoned")?,
            retries: field_u64(v, "retries")?,
            latency: LatencyDigest::from_json_value(field(v, "latency")?)?,
        })
    }
}

/// The full result of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Human-readable label of the configuration ("32T(optimized)").
    pub label: String,
    /// Virtual makespan of the run (ns) — the benchmark's execution time.
    pub makespan_ns: u64,
    /// Task-side aggregates.
    pub tasks: TaskAggregate,
    /// CPU-side aggregates.
    pub cpus: CpuAggregate,
    /// Blocking-layer stats.
    pub blocking: BlockingAggregate,
    /// BWD stats.
    pub bwd: BwdAggregate,
    /// Request latency histogram (server workloads only).
    pub latency: LatencyHist,
    /// Exact per-request latency digest (request-shaped workloads only;
    /// empty-but-present otherwise). Unlike [`RunReport::latency`], its
    /// percentiles are exact order statistics and its serialization is
    /// canonical, so it merges across pool workers and replays from the
    /// sweep run cache byte-identically.
    pub latency_exact: LatencyDigest,
    /// Completed operations (server workloads: requests served).
    pub completed_ops: u64,
    /// Outcome-partitioned goodput accounting (all-zero when the overload
    /// control plane is off).
    pub goodput: GoodputStats,
    /// Per-mechanism decision counters, in pipeline order.
    pub mechanisms: Vec<MechCounters>,
    /// Invariant-checker and liveness-watchdog findings, in detection
    /// order. Empty on a clean run.
    pub diagnostics: Vec<Diagnostic>,
}

/// Emit `to_json_value` / `from_json_value` for a plain aggregate struct
/// whose fields are all unsigned integers.
macro_rules! aggregate_json {
    ($ty:ident { $($f:ident: $kind:ident),+ $(,)? }) => {
        impl $ty {
            /// Serialize to a JSON tree.
            pub fn to_json_value(&self) -> JsonValue {
                obj(vec![$((stringify!($f), JsonValue::UInt(self.$f as u128)),)+])
            }

            /// Rebuild from [`Self::to_json_value`] output.
            pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
                Ok($ty { $($f: aggregate_json!(@get $kind, v, $f)?,)+ })
            }
        }
    };
    (@get u64, $v:ident, $f:ident) => { field_u64($v, stringify!($f)) };
    (@get usize, $v:ident, $f:ident) => { field_usize($v, stringify!($f)) };
}

aggregate_json!(TaskAggregate {
    tasks: usize,
    exec_ns: u64,
    spin_ns: u64,
    sleep_ns: u64,
    wait_ns: u64,
    nvcsw: u64,
    nivcsw: u64,
    migrations_local: u64,
    migrations_remote: u64,
    wakeups: u64,
    wakeup_latency_ns: u64,
    bwd_deschedules: u64,
});

aggregate_json!(CpuAggregate {
    cpus: usize,
    useful_ns: u64,
    spin_ns: u64,
    kernel_ns: u64,
    idle_ns: u64,
    context_switches: u64,
});

aggregate_json!(BlockingAggregate {
    sleep_waits: u64,
    virtual_waits: u64,
    wakes: u64,
});

aggregate_json!(BwdAggregate {
    checks: u64,
    detections: u64,
    true_positives: u64,
    false_positives: u64,
    ple_exits: u64,
    spin_episodes: u64,
});

impl RunReport {
    /// Serialize to a JSON tree. Every stored field is an integer or a
    /// string, so this is exact (no float formatting involved) — equal
    /// reports produce byte-identical JSON.
    pub fn to_json_value(&self) -> JsonValue {
        obj(vec![
            ("label", JsonValue::Str(self.label.clone())),
            ("makespan_ns", JsonValue::UInt(self.makespan_ns as u128)),
            ("tasks", self.tasks.to_json_value()),
            ("cpus", self.cpus.to_json_value()),
            ("blocking", self.blocking.to_json_value()),
            ("bwd", self.bwd.to_json_value()),
            ("latency", self.latency.to_json_value()),
            ("latency_exact", self.latency_exact.to_json_value()),
            ("completed_ops", JsonValue::UInt(self.completed_ops as u128)),
            ("goodput", self.goodput.to_json_value()),
            (
                "mechanisms",
                JsonValue::Array(
                    self.mechanisms
                        .iter()
                        .map(MechCounters::to_json_value)
                        .collect(),
                ),
            ),
            (
                "diagnostics",
                JsonValue::Array(
                    self.diagnostics
                        .iter()
                        .map(Diagnostic::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }

    /// Compact JSON rendering (one line).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_compact()
    }

    /// Indented JSON rendering.
    pub fn to_json_pretty(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Parse a report serialized with [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = JsonValue::parse(text)?;
        Ok(RunReport {
            label: field(&v, "label")?
                .as_str()
                .ok_or("'label' is not a string")?
                .to_string(),
            makespan_ns: field_u64(&v, "makespan_ns")?,
            tasks: TaskAggregate::from_json_value(field(&v, "tasks")?)?,
            cpus: CpuAggregate::from_json_value(field(&v, "cpus")?)?,
            blocking: BlockingAggregate::from_json_value(field(&v, "blocking")?)?,
            bwd: BwdAggregate::from_json_value(field(&v, "bwd")?)?,
            latency: LatencyHist::from_json_value(field(&v, "latency")?)?,
            // Absent in reports serialized before the request-lifecycle
            // refactor.
            latency_exact: match v.get("latency_exact") {
                Some(d) => LatencyDigest::from_json_value(d)?,
                None => LatencyDigest::new(),
            },
            completed_ops: field_u64(&v, "completed_ops")?,
            // Absent in reports serialized before the overload control
            // plane; defaults to the empty (control-plane-off) section.
            goodput: match v.get("goodput") {
                Some(g) => GoodputStats::from_json_value(g)?,
                None => GoodputStats::default(),
            },
            // Absent in reports serialized before the mechanism layer.
            mechanisms: match v.get("mechanisms") {
                Some(m) => m
                    .as_array()
                    .ok_or("'mechanisms' is not an array")?
                    .iter()
                    .map(MechCounters::from_json_value)
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            },
            // Absent in reports serialized before the fault layer.
            diagnostics: match v.get("diagnostics") {
                Some(d) => d
                    .as_array()
                    .ok_or("'diagnostics' is not an array")?
                    .iter()
                    .map(Diagnostic::from_json_value)
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            },
        })
    }

    /// Execution time in (virtual) seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }

    /// CPU utilization in the paper's Table-1 units: percent of one CPU,
    /// summed over CPUs (8 fully busy cores = 800).
    pub fn cpu_utilization_pct(&self) -> f64 {
        let denom = self.makespan_ns as f64 * self.cpus.cpus as f64;
        if denom == 0.0 {
            return 0.0;
        }
        let busy = (self.cpus.useful_ns + self.cpus.spin_ns + self.cpus.kernel_ns) as f64;
        busy / denom * 100.0 * self.cpus.cpus as f64
    }

    /// Fraction of busy time that was useful work (not spin, not kernel).
    pub fn efficiency(&self) -> f64 {
        let busy = self.cpus.useful_ns + self.cpus.spin_ns + self.cpus.kernel_ns;
        if busy == 0 {
            return 1.0;
        }
        self.cpus.useful_ns as f64 / busy as f64
    }

    /// Throughput in operations per (virtual) second.
    pub fn throughput_ops(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.completed_ops as f64 / self.makespan_secs()
    }

    /// Goodput in within-deadline completions per (virtual) second. Zero
    /// when the overload control plane is off.
    pub fn goodput_ops(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.goodput.completed as f64 / self.makespan_secs()
    }

    /// The report's own invariants, one line per violation; empty when the
    /// report is sound:
    /// - no diagnostic of an [`ENGINE_FAULT_KINDS`] kind;
    /// - the goodput outcomes sum to `offered`;
    /// - the goodput digest holds `goodput.completed` samples;
    /// - the exact digest holds `completed_ops` samples;
    /// - the exact digest's `min <= p50 <= p99 <= p999 <= max`;
    /// - the histogram mean is finite.
    pub fn check(&self) -> Vec<String> {
        let mut violations: Vec<String> = self
            .diagnostics
            .iter()
            .filter(|d| ENGINE_FAULT_KINDS.contains(&d.kind.as_str()))
            .map(|d| format!("{} at {} ns: {}", d.kind, d.at_ns, d.detail))
            .collect();
        let gp = &self.goodput;
        if !gp.balanced() {
            violations.push(format!(
                "goodput outcomes do not sum to offered: {} completed + {} late + {} shed + \
                 {} abandoned != {} offered",
                gp.completed, gp.deadline_exceeded, gp.shed, gp.abandoned, gp.offered
            ));
        }
        if gp.latency.count() != gp.completed {
            violations.push(format!(
                "goodput digest holds {} samples but {} requests completed in deadline",
                gp.latency.count(),
                gp.completed
            ));
        }
        let d = &self.latency_exact;
        if d.count() != self.completed_ops {
            violations.push(format!(
                "latency digest holds {} samples but completed_ops is {}",
                d.count(),
                self.completed_ops
            ));
        }
        let order = [d.min(), d.p50(), d.p99(), d.p999(), d.max()];
        if order.windows(2).any(|w| w[0] > w[1]) {
            violations.push(format!(
                "latency percentiles out of order: min/p50/p99/p999/max = {order:?}"
            ));
        }
        if !self.latency.mean().is_finite() {
            violations.push(format!(
                "latency histogram mean is not finite: {}",
                self.latency.mean()
            ));
        }
        violations
    }

    /// Look up a mechanism's counters by name ("vb", "bwd", "ple", ...).
    pub fn mech(&self, name: &str) -> Option<&MechCounters> {
        self.mechanisms.iter().find(|m| m.name == name)
    }

    /// Ratio of this run's makespan to a baseline's (>1 = slower).
    pub fn normalized_to(&self, baseline: &RunReport) -> f64 {
        if baseline.makespan_ns == 0 {
            return f64::NAN;
        }
        self.makespan_ns as f64 / baseline.makespan_ns as f64
    }

    /// A multi-line human-readable summary of the run.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "run '{}'", self.label);
        let _ = writeln!(
            out,
            "  makespan        {:.3} s ({} tasks, {} cpus)",
            self.makespan_secs(),
            self.tasks.tasks,
            self.cpus.cpus
        );
        let busy = (self.cpus.useful_ns + self.cpus.spin_ns + self.cpus.kernel_ns).max(1);
        let _ = writeln!(
            out,
            "  cpu time        useful {:.1}%  spin {:.1}%  kernel {:.1}%  (utilization {:.0})",
            100.0 * self.cpus.useful_ns as f64 / busy as f64,
            100.0 * self.cpus.spin_ns as f64 / busy as f64,
            100.0 * self.cpus.kernel_ns as f64 / busy as f64,
            self.cpu_utilization_pct()
        );
        let _ = writeln!(
            out,
            "  switches        {} ({} voluntary, {} preemptions)",
            self.cpus.context_switches, self.tasks.nvcsw, self.tasks.nivcsw
        );
        let _ = writeln!(
            out,
            "  migrations      {} in-node, {} cross-node",
            self.tasks.migrations_local, self.tasks.migrations_remote
        );
        let _ = writeln!(
            out,
            "  blocking        {} sleeps, {} virtual waits, {} wakes (mean wake latency {:.1} us)",
            self.blocking.sleep_waits,
            self.blocking.virtual_waits,
            self.blocking.wakes,
            self.tasks.mean_wakeup_latency_ns() / 1e3
        );
        if self.bwd.checks > 0 {
            let _ = writeln!(
                out,
                "  bwd             {} windows, {} detections ({} TP / {} FP)",
                self.bwd.checks,
                self.bwd.detections,
                self.bwd.true_positives,
                self.bwd.false_positives
            );
        }
        for m in &self.mechanisms {
            let _ = writeln!(
                out,
                "  mech {:<10} {} decisions (parks {} / unparks {} / skips {}+{}- / exits {} / checks {} / recoveries {})",
                m.name,
                m.decisions,
                m.parks,
                m.unparks,
                m.skips_set,
                m.skips_cleared,
                m.spin_exits,
                m.timer_checks,
                m.recoveries
            );
        }
        if !self.diagnostics.is_empty() {
            let _ = writeln!(out, "  diagnostics     {}", self.diagnostics.len());
            for d in &self.diagnostics {
                let _ = writeln!(out, "    [{} @ {} ns] {}", d.kind, d.at_ns, d.detail);
            }
        }
        if self.completed_ops > 0 {
            let _ = writeln!(
                out,
                "  server          {:.0} ops/s, p50 {} us, p95 {} us, p99 {} us",
                self.throughput_ops(),
                self.latency.percentile(50.0) / 1_000,
                self.latency.percentile(95.0) / 1_000,
                self.latency.percentile(99.0) / 1_000
            );
        }
        if !self.latency_exact.is_empty() {
            let _ = writeln!(
                out,
                "  tail (exact)    {} requests, p50 {} us, p99 {} us, p999 {} us",
                self.latency_exact.count(),
                self.latency_exact.p50() / 1_000,
                self.latency_exact.p99() / 1_000,
                self.latency_exact.p999() / 1_000
            );
        }
        if !self.goodput.is_empty() {
            let _ = writeln!(
                out,
                "  goodput         {:.0} ops/s ({} of {} offered; {} late, {} shed, {} abandoned, {} retries)",
                self.goodput_ops(),
                self.goodput.completed,
                self.goodput.offered,
                self.goodput.deadline_exceeded,
                self.goodput.shed,
                self.goodput.abandoned,
                self.goodput.retries
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            label: "test".into(),
            makespan_ns: 1_000_000_000,
            tasks: TaskAggregate {
                tasks: 4,
                wakeups: 10,
                wakeup_latency_ns: 1000,
                migrations_local: 3,
                migrations_remote: 2,
                ..Default::default()
            },
            cpus: CpuAggregate {
                cpus: 8,
                useful_ns: 6_000_000_000,
                spin_ns: 1_000_000_000,
                kernel_ns: 500_000_000,
                idle_ns: 500_000_000,
                context_switches: 100,
            },
            ..Default::default()
        }
    }

    #[test]
    fn utilization_matches_table1_units() {
        let r = sample();
        // busy = 7.5e9 over 8 cpus * 1e9 ns => 93.75% * 8 = 750.
        assert!((r.cpu_utilization_pct() - 750.0).abs() < 0.01);
    }

    #[test]
    fn efficiency_excludes_spin_and_kernel() {
        let r = sample();
        assert!((r.efficiency() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn normalization() {
        let base = sample();
        let mut slow = sample();
        slow.makespan_ns = 2_000_000_000;
        assert!((slow.normalized_to(&base) - 2.0).abs() < 1e-9);
        assert!((base.normalized_to(&base) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn aggregates_report_means() {
        let r = sample();
        assert_eq!(r.tasks.migrations(), 5);
        assert!((r.tasks.mean_wakeup_latency_ns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_from_ops() {
        let mut r = sample();
        r.completed_ops = 5_000;
        assert!((r.throughput_ops() - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn summary_renders_key_lines() {
        let mut r = sample();
        r.completed_ops = 100;
        r.bwd.checks = 10;
        r.bwd.detections = 2;
        let s = r.summary();
        assert!(s.contains("makespan"));
        assert!(s.contains("utilization 750"));
        assert!(s.contains("migrations"));
        assert!(s.contains("bwd"));
        assert!(s.contains("server"));
    }

    #[test]
    fn json_round_trip() {
        let mut r = sample();
        r.latency.record(12_345);
        r.latency.record(999);
        r.mechanisms.push(MechCounters {
            decisions: 7,
            parks: 4,
            unparks: 3,
            ..MechCounters::named("vb")
        });
        r.mechanisms.push(MechCounters {
            decisions: 2,
            skips_set: 2,
            skips_cleared: 1,
            timer_checks: 90,
            ..MechCounters::named("bwd")
        });
        let json = r.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.cpus.context_switches, 100);
        // Pretty output parses to the same report.
        assert_eq!(RunReport::from_json(&r.to_json_pretty()).unwrap(), r);
        // Equal reports serialize byte-identically (golden-test invariant).
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn diagnostics_round_trip() {
        let mut r = sample();
        r.diagnostics.push(Diagnostic {
            kind: "lost-wakeup-rescue".into(),
            at_ns: 42_000_000,
            task: Some(3),
            cpu: Some(1),
            detail: "task 3 parked 12 ms with no waker".into(),
        });
        r.diagnostics.push(Diagnostic {
            kind: "no-progress".into(),
            at_ns: 99_000_000,
            task: None,
            cpu: None,
            detail: "no task made progress for 50 ms".into(),
        });
        // The analysis-layer kinds ride the same schema: a report carrying
        // them must survive the round trip so older readers (which treat
        // `kind` as an opaque string) keep parsing new reports.
        r.diagnostics.push(Diagnostic {
            kind: "data-race".into(),
            at_ns: 12_000,
            task: Some(1),
            cpu: Some(0),
            detail: "plain flag 0: write by \"w\" and read by \"r\" are unordered".into(),
        });
        r.diagnostics.push(Diagnostic {
            kind: "schedule-divergence".into(),
            at_ns: 0,
            task: None,
            cpu: None,
            detail: "schedule 1 (tie-break salt 0x1) diverged near field \"makespan_ns\"".into(),
        });
        let json = r.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(json, back.to_json());
        assert!(r.summary().contains("lost-wakeup-rescue"));
    }

    #[test]
    fn from_json_tolerates_missing_fault_layer_fields() {
        // Reports serialized before the fault layer have no "diagnostics"
        // key and no per-mechanism "recoveries"; they must still parse.
        let mut r = sample();
        r.mechanisms.push(MechCounters::named("vb"));
        let json = r.to_json();
        let legacy = json
            .replace(",\"diagnostics\":[]", "")
            .replace(",\"recoveries\":0", "");
        assert_ne!(legacy, json, "replacement must have removed the fields");
        let back = RunReport::from_json(&legacy).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn latency_exact_round_trips_and_tolerates_legacy_json() {
        let mut r = sample();
        r.completed_ops = 3;
        for v in [5_000u64, 1_000, 1_000] {
            r.latency.record(v);
            r.latency_exact.record(v);
        }
        let json = r.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(json, back.to_json());
        assert!(r.summary().contains("tail (exact)"));

        // Reports serialized before the request-lifecycle refactor have no
        // "latency_exact" key; they must parse with an empty digest.
        let mut legacy_r = sample();
        legacy_r.completed_ops = 3;
        let legacy = legacy_r.to_json().replace(
            ",\"latency_exact\":{\"count\":0,\"sum\":0,\"values\":[],\"counts\":[]}",
            "",
        );
        assert_ne!(
            legacy,
            legacy_r.to_json(),
            "replacement must have removed the field"
        );
        let back = RunReport::from_json(&legacy).unwrap();
        assert_eq!(back, legacy_r);
    }

    #[test]
    fn goodput_round_trips_and_tolerates_legacy_json() {
        let mut r = sample();
        r.goodput = GoodputStats {
            offered: 10,
            completed: 6,
            deadline_exceeded: 2,
            shed: 1,
            abandoned: 1,
            retries: 3,
            latency: LatencyDigest::new(),
        };
        for v in [1_000, 1_200, 900, 1_000, 3_000, 2_000] {
            r.goodput.latency.record(v);
        }
        r.goodput.latency.canonicalize();
        assert_eq!(r.check(), Vec::<String>::new());
        let json = r.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(json, back.to_json());
        assert!((r.goodput_ops() - 6.0).abs() < 1e-9);
        assert!(r.summary().contains("goodput"));

        // Reports serialized before the overload control plane have no
        // "goodput" key; they must parse with the empty section.
        let legacy_r = sample();
        let legacy = legacy_r.to_json().replace(
            ",\"goodput\":{\"offered\":0,\"completed\":0,\"deadline_exceeded\":0,\
             \"shed\":0,\"abandoned\":0,\"retries\":0,\
             \"latency\":{\"count\":0,\"sum\":0,\"values\":[],\"counts\":[]}}",
            "",
        );
        assert_ne!(
            legacy,
            legacy_r.to_json(),
            "replacement must have removed the field"
        );
        let back = RunReport::from_json(&legacy).unwrap();
        assert_eq!(back, legacy_r);
        assert!(back.goodput.is_empty());
        assert!(!legacy_r.summary().contains("goodput"));
    }

    #[test]
    fn from_json_tolerates_missing_mechanisms_field() {
        // Reports serialized before the mechanism layer have no
        // "mechanisms" key; they must still parse (as an empty pipeline).
        let mut r = sample();
        r.mechanisms.clear();
        let json = r.to_json();
        let legacy = json.replace(",\"mechanisms\":[]", "");
        assert_ne!(legacy, json, "replacement must have removed the field");
        let back = RunReport::from_json(&legacy).unwrap();
        assert_eq!(back, r);
    }

    /// A sound request-shaped report: three completions in both digests,
    /// balanced goodput, and a watchdog finding that is not a fault.
    fn sound() -> RunReport {
        let mut r = sample();
        for v in [5_000u64, 1_000, 3_000] {
            r.latency.record(v);
            r.latency_exact.record(v);
            r.goodput.latency.record(v);
        }
        r.completed_ops = 3;
        r.goodput.offered = 5;
        r.goodput.completed = 3;
        r.goodput.shed = 2;
        r.diagnostics.push(Diagnostic {
            kind: "lost-wakeup-rescue".into(),
            ..Diagnostic::default()
        });
        r
    }

    fn assert_one_violation(r: &RunReport, expected: &str) {
        let v = r.check();
        assert!(v.len() == 1 && v[0].contains(expected), "{expected}: {v:?}");
    }

    /// Sound reports pass; one hand-broken report per clause gives exactly
    /// one violation. (The mean clause has none: an integer sum over a
    /// non-zero count is always finite.)
    #[test]
    fn check_flags_each_broken_invariant_once() {
        assert_eq!(sound().check(), Vec::<String>::new());
        assert_eq!(RunReport::default().check(), Vec::<String>::new());
        type Break = fn(&mut RunReport);
        let breaks: [(&str, Break); 4] = [
            ("do not sum to offered", |r| r.goodput.shed = 1),
            ("goodput digest holds 3", |r| {
                (r.goodput.completed, r.goodput.shed) = (4, 1)
            }),
            ("completed_ops is 4", |r| r.completed_ops = 4),
            ("out of order", |r| {
                r.latency_exact = LatencyDigest::with_order_unchecked(vec![5_000, 1_000, 3_000])
            }),
        ];
        for (expected, break_it) in breaks {
            let mut r = sound();
            break_it(&mut r);
            assert_one_violation(&r, expected);
        }
        // Every kind the engine emits for a broken engine invariant.
        for kind in [
            "rq-inconsistency",
            "waiter-board-mismatch",
            "event-order",
            "lock-grant-mismatch",
            "cont-mismatch",
        ] {
            let mut r = sound();
            r.diagnostics.push(Diagnostic {
                kind: kind.into(),
                ..Diagnostic::default()
            });
            assert_one_violation(&r, kind);
        }
    }

    #[test]
    fn summary_renders_mechanism_lines() {
        let mut r = sample();
        r.mechanisms.push(MechCounters {
            decisions: 11,
            parks: 6,
            unparks: 5,
            ..MechCounters::named("vb")
        });
        let s = r.summary();
        assert!(s.contains("mech vb"));
        assert!(s.contains("11 decisions"));
    }
}
