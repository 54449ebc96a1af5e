//! The workload interface: how benchmarks plug into the simulation engine,
//! plus the request-lifecycle API ([`RequestClock`] / [`RequestSink`])
//! every request-shaped workload uses to emit per-request records.

use crate::admission::{AdmissionState, OverloadParams, RequestOutcome};
use oversub_hw::CpuId;
use oversub_ksync::EpollTable;
use oversub_locks::{MutexKind, SpinPolicy, SyncRegistry};
use oversub_metrics::{GoodputStats, LatencyDigest, LatencyHist, RunReport};
use oversub_task::{BarrierId, CondId, EpollFd, FlagId, LockId, Program, SemId};
use std::cell::RefCell;
use std::rc::Rc;

/// Arrival and start stamps for one in-flight request.
///
/// The lifecycle is `arrive` (the request enters the system: a client
/// sends it, a pipeline item is produced, a fork-join region opens) →
/// `started` (a worker begins servicing it) → `complete` (the response is
/// done). Latency is measured arrival→completion, so queueing delay — the
/// component oversubscription actually moves — is included; `started`
/// splits it into queueing and service time for diagnosis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestClock {
    arrival_ns: u64,
    start_ns: u64,
    attempt: u32,
}

impl Default for RequestClock {
    fn default() -> Self {
        RequestClock {
            arrival_ns: 0,
            start_ns: 0,
            attempt: 1,
        }
    }
}

impl RequestClock {
    /// Stamp a request's arrival at virtual time `now_ns`. Until
    /// [`RequestClock::started`] is called the start time equals the
    /// arrival (zero queueing).
    pub fn arrive(now_ns: u64) -> Self {
        RequestClock {
            arrival_ns: now_ns,
            start_ns: now_ns,
            attempt: 1,
        }
    }

    /// Tag the clock with its attempt number (1 = the original send).
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt.max(1);
        self
    }

    /// The attempt number (1 = the original send).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Stamp the moment a worker begins servicing the request.
    pub fn started(&mut self, now_ns: u64) {
        self.start_ns = now_ns.max(self.arrival_ns);
    }

    /// The arrival stamp.
    pub fn arrival_ns(&self) -> u64 {
        self.arrival_ns
    }

    /// Close the lifecycle at `now_ns` and produce the record. The outcome
    /// defaults to `Completed`; the sink reclassifies against the run's
    /// deadline.
    pub fn complete(self, now_ns: u64) -> RequestRecord {
        let completion_ns = now_ns.max(self.start_ns);
        RequestRecord {
            arrival_ns: self.arrival_ns,
            start_ns: self.start_ns,
            completion_ns,
            attempt: self.attempt,
            deadline_ns: 0,
            outcome: RequestOutcome::Completed,
        }
    }
}

/// One completed request's lifecycle stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// When the request entered the system.
    pub arrival_ns: u64,
    /// When a worker began servicing it.
    pub start_ns: u64,
    /// When the response was complete.
    pub completion_ns: u64,
    /// The attempt number of this request (1 = the original send).
    pub attempt: u32,
    /// Deadline in force when the record was sealed (0 = none).
    pub deadline_ns: u64,
    /// How the request left the system.
    pub outcome: RequestOutcome,
}

impl RequestRecord {
    /// End-to-end latency (arrival → completion).
    pub fn latency_ns(&self) -> u64 {
        self.completion_ns - self.arrival_ns
    }

    /// Queueing delay (arrival → service start).
    pub fn queue_ns(&self) -> u64 {
        self.start_ns - self.arrival_ns
    }

    /// Service time (service start → completion).
    pub fn service_ns(&self) -> u64 {
        self.completion_ns - self.start_ns
    }

    /// Classify the record against `deadline_ns` (0 = no deadline, always
    /// `Completed`), stamping both the deadline and the outcome.
    pub fn classified(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = deadline_ns;
        self.outcome = if deadline_ns == 0 || self.latency_ns() <= deadline_ns {
            RequestOutcome::Completed
        } else {
            RequestOutcome::DeadlineExceeded
        };
        self
    }
}

struct SinkInner {
    hist: LatencyHist,
    digest: LatencyDigest,
    ops: u64,
    params: OverloadParams,
    adm: AdmissionState,
    good_digest: LatencyDigest,
    offered: u64,
    completed_in_deadline: u64,
    deadline_exceeded: u64,
    shed: u64,
    retries: u64,
}

/// Shared per-run sink for completed request records.
///
/// Cloned into every program of a workload (cheap `Rc`); the workload's
/// `collect` folds it into the report — the legacy bucketed histogram and
/// the exact digest side by side. Workloads must call
/// [`RequestSink::reset`] at the top of `build` so a reused workload value
/// (sweeps run build→run→collect per arm on the same instance) never
/// leaks samples across runs.
#[derive(Clone, Default)]
pub struct RequestSink {
    inner: Rc<RefCell<SinkInner>>,
}

impl Default for SinkInner {
    fn default() -> Self {
        SinkInner {
            hist: LatencyHist::new(),
            digest: LatencyDigest::new(),
            ops: 0,
            params: OverloadParams::disabled(),
            adm: AdmissionState::default(),
            good_digest: LatencyDigest::new(),
            offered: 0,
            completed_in_deadline: 0,
            deadline_exceeded: 0,
            shed: 0,
            retries: 0,
        }
    }
}

impl RequestSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all samples (call at the top of `Workload::build`). Keeps the
    /// overload parameters set by [`RequestSink::configure`].
    pub fn reset(&self) {
        let params = self.inner.borrow().params;
        *self.inner.borrow_mut() = SinkInner {
            params,
            ..SinkInner::default()
        };
    }

    /// Install the run's overload parameters (the engine calls this via
    /// `WorldBuilder` before `Workload::build` populates the world).
    pub fn configure(&self, params: OverloadParams) {
        self.inner.borrow_mut().params = params;
    }

    /// The overload parameters in force for this run.
    pub fn overload(&self) -> OverloadParams {
        self.inner.borrow().params
    }

    /// Offer `n` requests to the admission policy at virtual time `now_ns`.
    /// Counts them as offered; on admission they join the standing queue,
    /// on rejection they are counted as shed. Always admits (and counts
    /// nothing) when the overload control plane is disabled.
    pub fn try_admit(&self, _now_ns: u64, n: u64) -> bool {
        let mut g = self.inner.borrow_mut();
        if !g.params.enabled() {
            return true;
        }
        g.offered += n;
        let policy = g.params.admission;
        if g.adm.admit(&policy) {
            g.adm.in_queue += n;
            true
        } else {
            g.shed += n;
            false
        }
    }

    /// Note that a worker started servicing an admitted request whose
    /// queueing delay was `queue_ns`. Feeds the CoDel controller and
    /// shrinks the standing queue. No-op when overload is disabled.
    pub fn note_started(&self, queue_ns: u64, now_ns: u64) {
        let mut g = self.inner.borrow_mut();
        if !g.params.enabled() {
            return;
        }
        let policy = g.params.admission;
        g.adm.observe(&policy, queue_ns, now_ns);
        g.adm.in_queue = g.adm.in_queue.saturating_sub(1);
    }

    /// Count a client retry re-injection.
    pub fn record_retry(&self) {
        self.inner.borrow_mut().retries += 1;
    }

    /// Record a completed request, classifying it against the run deadline.
    pub fn push(&self, rec: RequestRecord) {
        let mut g = self.inner.borrow_mut();
        g.hist.record(rec.latency_ns());
        g.digest.record(rec.latency_ns());
        g.ops += 1;
        if g.params.enabled() {
            let rec = rec.classified(g.params.deadline_ns);
            match rec.outcome {
                RequestOutcome::Completed => {
                    g.completed_in_deadline += 1;
                    let lat = rec.latency_ns();
                    g.good_digest.record(lat);
                }
                _ => g.deadline_exceeded += 1,
            }
        }
    }

    /// Close `clock` at `now_ns` and record the request.
    pub fn complete(&self, clock: RequestClock, now_ns: u64) {
        self.push(clock.complete(now_ns));
    }

    /// Fold the collected data into a report: the bucketed histogram, the
    /// canonicalized exact digest, the op count, and — when the overload
    /// control plane is on — the outcome-partitioned goodput section.
    /// Admitted requests still in flight at the end of the run surface as
    /// `abandoned` (offered minus every terminal outcome).
    pub fn collect(&self, report: &mut RunReport) {
        let mut g = self.inner.borrow_mut();
        g.digest.canonicalize();
        report.latency = g.hist.clone();
        report.latency_exact = g.digest.clone();
        report.completed_ops = g.ops;
        let mut gp = GoodputStats::default();
        if g.params.enabled() {
            g.good_digest.canonicalize();
            gp.offered = g.offered;
            gp.completed = g.completed_in_deadline;
            gp.deadline_exceeded = g.deadline_exceeded;
            gp.shed = g.shed;
            gp.abandoned = g
                .offered
                .saturating_sub(g.completed_in_deadline + g.deadline_exceeded + g.shed);
            gp.retries = g.retries;
            gp.latency = g.good_digest.clone();
        }
        report.goodput = gp;
    }
}

/// A thread to launch: its program and optional placement constraints.
pub struct ThreadSpec {
    /// The driving program.
    pub program: Box<dyn Program>,
    /// Preferred initial CPU (defaults to round-robin).
    pub initial_cpu: Option<CpuId>,
    /// Hard pin (overrides the run-level `pinned` flag).
    pub pinned: Option<CpuId>,
    /// Initial cache footprint estimate in bytes.
    pub footprint: u64,
    /// Allowed-CPU bitmask (cpuset). Defaults to all CPUs.
    pub allowed: u64,
    /// CFS load weight (1024 = nice 0; 512 ~ nice +3; 2048 ~ nice -3).
    pub weight: u32,
}

impl ThreadSpec {
    /// A plain thread running `program`.
    pub fn new(program: Box<dyn Program>) -> Self {
        ThreadSpec {
            program,
            initial_cpu: None,
            pinned: None,
            footprint: 0,
            allowed: u64::MAX,
            weight: 1024,
        }
    }

    /// Set the CFS load weight (1024 = nice 0).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Restrict the thread to CPUs `[lo, hi)` (cpuset).
    pub fn allowed_range(mut self, lo: usize, hi: usize) -> Self {
        let mut mask = 0u64;
        for c in lo..hi.min(64) {
            mask |= 1 << c;
        }
        self.allowed = mask;
        if self.initial_cpu.is_none() {
            self.initial_cpu = Some(CpuId(lo));
        }
        self
    }

    /// Set the cache footprint estimate.
    pub fn with_footprint(mut self, bytes: u64) -> Self {
        self.footprint = bytes;
        self
    }

    /// Pin to a CPU.
    pub fn pinned_to(mut self, cpu: CpuId) -> Self {
        self.pinned = Some(cpu);
        self.initial_cpu = Some(cpu);
        self
    }
}

/// Handed to [`Workload::build`]: create sync objects and threads here.
pub struct WorldBuilder {
    /// Synchronization objects of the simulated process.
    pub sync: SyncRegistry,
    /// The epoll layer (create instances for server workloads).
    pub epoll: EpollTable,
    /// Threads to launch.
    pub threads: Vec<ThreadSpec>,
    /// Number of online cores the run starts with.
    pub cores: usize,
    /// The run's overload control plane (deadlines, shedding, retries).
    /// Workloads install this into their request sink during `build`.
    pub overload: OverloadParams,
}

impl WorldBuilder {
    /// Create a builder for a machine with `cores` online CPUs.
    pub fn new(cores: usize, epoll: EpollTable) -> Self {
        WorldBuilder {
            sync: SyncRegistry::new(),
            epoll,
            threads: Vec::new(),
            cores,
            overload: OverloadParams::disabled(),
        }
    }

    /// Add a thread; returns its index (== its `TaskId`).
    pub fn spawn(&mut self, spec: ThreadSpec) -> usize {
        self.threads.push(spec);
        self.threads.len() - 1
    }

    /// Shorthand: create a pthread mutex.
    pub fn mutex(&mut self) -> LockId {
        self.sync.create_mutex(MutexKind::Pthread)
    }

    /// Shorthand: create a mutex of a specific kind.
    pub fn mutex_of(&mut self, kind: MutexKind) -> LockId {
        self.sync.create_mutex(kind)
    }

    /// Shorthand: create a condition variable.
    pub fn condvar(&mut self) -> CondId {
        self.sync.create_condvar()
    }

    /// Shorthand: create a barrier.
    pub fn barrier(&mut self, parties: usize) -> BarrierId {
        self.sync.create_barrier(parties)
    }

    /// Shorthand: create a semaphore.
    pub fn semaphore(&mut self, initial: i64) -> SemId {
        self.sync.create_sem(initial)
    }

    /// Shorthand: create a spinlock.
    pub fn spinlock(&mut self, policy: SpinPolicy) -> LockId {
        self.sync.create_spinlock(policy)
    }

    /// Shorthand: create a flag word (release/acquire semantics).
    pub fn flag(&mut self, initial: u64) -> FlagId {
        self.sync.create_flag(initial)
    }

    /// Shorthand: create a *plain* (non-atomic) flag word. Unsynchronized
    /// concurrent access to it is a data race the detector reports.
    pub fn flag_plain(&mut self, initial: u64) -> FlagId {
        self.sync.create_flag_plain(initial)
    }

    /// Shorthand: create an epoll instance.
    pub fn epoll_instance(&mut self) -> EpollFd {
        self.epoll.create()
    }
}

/// A benchmark: builds its world, then harvests workload-specific results
/// into the report after the run.
pub trait Workload {
    /// Canonical name (used as figure/table row labels).
    fn name(&self) -> &str;

    /// Create synchronization objects and threads.
    fn build(&mut self, world: &mut WorldBuilder);

    /// Harvest workload-level results (latency histograms, op counts).
    fn collect(&self, _report: &mut RunReport) {}

    /// A canonical content key describing this workload's *configuration*
    /// (not its built world), or `None` if the workload cannot be keyed.
    ///
    /// Used by the sweep run cache (`oversub::sweep`): two workloads with
    /// equal keys, run under equal `RunConfig`s, must produce identical
    /// reports. Plain-data workloads return their `Debug` form; workloads
    /// holding runtime state (shared sinks, interior mutability) keep the
    /// `None` default and are simply never cached.
    fn cache_key(&self) -> Option<String> {
        None
    }

    /// Lower bound on a single request's service time, if the workload can
    /// state one. Used to warn about deadlines no request could ever meet.
    fn min_service_ns(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oversub_ksync::FutexParams;
    use oversub_task::{Action, FnProgram};

    #[test]
    fn builder_allocates_objects() {
        let mut w = WorldBuilder::new(4, EpollTable::new(FutexParams::default()));
        let m = w.mutex();
        let b = w.barrier(4);
        let f = w.flag(0);
        let ep = w.epoll_instance();
        assert_eq!(m.0, 0);
        assert_eq!(b.0, 0);
        assert_eq!(f.0, 0);
        assert_eq!(ep.0, 0);
        let idx = w.spawn(ThreadSpec::new(Box::new(FnProgram::new("t", |_| {
            Action::Exit
        }))));
        assert_eq!(idx, 0);
        assert_eq!(w.threads.len(), 1);
    }

    #[test]
    fn request_clock_lifecycle() {
        let mut c = RequestClock::arrive(1_000);
        assert_eq!(c.arrival_ns(), 1_000);
        c.started(4_000);
        let rec = c.complete(9_000);
        assert_eq!(rec.queue_ns(), 3_000);
        assert_eq!(rec.service_ns(), 5_000);
        assert_eq!(rec.latency_ns(), 8_000);
        // Stamps never run backwards even if callers hand in a stale now.
        let mut c = RequestClock::arrive(5_000);
        c.started(2_000);
        let rec = c.complete(1_000);
        assert_eq!(rec.latency_ns(), 0);
        assert_eq!(rec.queue_ns(), 0);
    }

    #[test]
    fn request_sink_records_and_resets() {
        let sink = RequestSink::new();
        let clone = sink.clone();
        clone.complete(RequestClock::arrive(0), 5_000);
        sink.complete(RequestClock::arrive(1_000), 2_000);
        let mut r = RunReport::default();
        sink.collect(&mut r);
        assert_eq!(r.completed_ops, 2);
        assert_eq!(r.latency_exact.count(), 2);
        assert_eq!(r.latency_exact.p50(), 1_000);
        assert_eq!(r.latency_exact.max(), 5_000);
        assert_eq!(r.latency.count(), 2);
        // reset() drops everything (the per-run-build contract).
        sink.reset();
        let mut r = RunReport::default();
        sink.collect(&mut r);
        assert_eq!(r.completed_ops, 0);
        assert!(r.latency_exact.is_empty());
    }

    #[test]
    fn sink_partitions_outcomes_against_deadline() {
        use crate::admission::{AdmissionPolicy, OverloadParams};
        let sink = RequestSink::new();
        sink.configure(
            OverloadParams::disabled()
                .with_deadline_ns(1_000)
                .with_admission(AdmissionPolicy::QueueCap(2)),
        );
        sink.reset();
        // Three offered: two admitted, one shed by the queue cap.
        assert!(sink.try_admit(0, 1));
        assert!(sink.try_admit(0, 1));
        assert!(!sink.try_admit(0, 1));
        sink.note_started(100, 100);
        sink.complete(RequestClock::arrive(0), 500); // within deadline
        sink.note_started(2_000, 2_000);
        sink.complete(RequestClock::arrive(0), 2_500); // past deadline
        let mut r = RunReport::default();
        sink.collect(&mut r);
        assert_eq!(r.completed_ops, 2); // legacy count covers all completions
        assert_eq!(r.goodput.offered, 3);
        assert_eq!(r.goodput.completed, 1);
        assert_eq!(r.goodput.deadline_exceeded, 1);
        assert_eq!(r.goodput.shed, 1);
        assert_eq!(r.goodput.abandoned, 0);
        assert_eq!(r.check(), Vec::<String>::new());
        assert_eq!(r.goodput.latency.count(), 1);
        assert_eq!(r.goodput.latency.max(), 500);
        // reset() keeps the configuration but drops the samples.
        sink.reset();
        assert!(sink.overload().enabled());
        let mut r = RunReport::default();
        sink.collect(&mut r);
        assert_eq!(r.goodput.offered, 0);
    }

    #[test]
    fn disabled_sink_emits_empty_goodput() {
        let sink = RequestSink::new();
        assert!(sink.try_admit(0, 1));
        sink.complete(RequestClock::arrive(0), 5_000);
        let mut r = RunReport::default();
        sink.collect(&mut r);
        assert_eq!(r.completed_ops, 1);
        assert!(r.goodput.is_empty());
    }

    #[test]
    fn thread_spec_builders() {
        let s = ThreadSpec::new(Box::new(FnProgram::new("t", |_| Action::Exit)))
            .with_footprint(1 << 20)
            .pinned_to(CpuId(3));
        assert_eq!(s.footprint, 1 << 20);
        assert_eq!(s.pinned, Some(CpuId(3)));
        assert_eq!(s.initial_cpu, Some(CpuId(3)));
    }
}
