//! The struct-of-arrays task table: the kernel's hot task state laid out
//! as dense parallel columns indexed by [`TaskId`].
//!
//! The scheduler's inner loops (pick, wake, stop, balance) each touch one
//! or two fields of many tasks; chasing a `Vec<Task>` of ~200-byte structs
//! drags a full cache line per field read. Splitting the table into
//! columns keeps each loop's working set to the columns it actually reads:
//! a vruntime compare touches only `vruntime`, an eligibility check only
//! `state`/`vb_blocked`/`bwd_skip` (one byte each, 64 tasks per line).
//!
//! Layout rules:
//! - Every column has exactly `len()` entries; `TaskId(i)` indexes row `i`
//!   of every column. Rows are never removed or reordered — `spawn` is the
//!   only growth point, so indices are stable for the life of a run.
//! - Hot columns (scheduler-touched) come first; cold per-task state
//!   (programs, memory shape, accounting) lives in its own columns and is
//!   only touched at event boundaries.
//!
//! The legacy [`Task`] struct remains as the spawn record and as the
//! naive per-task-struct oracle for the table's model-based tests.

use crate::ids::TaskId;
use crate::program::Program;
use crate::state::{Task, TaskState, TaskStats};
use oversub_hw::CpuId;
use oversub_simcore::{SimTime, VClock};

/// Struct-of-arrays task state. See the module docs for layout rules.
///
/// Columns are public by design: data-oriented call sites borrow exactly
/// the columns they need (often several disjointly at once), which a
/// method-only facade would forbid under the borrow checker.
#[derive(Default)]
pub struct TaskTable {
    // --- hot columns: read by pick / wake / stop / balance loops ---
    /// Gross run state ([`TaskState`]).
    pub state: Vec<TaskState>,
    /// CFS virtual runtime in nanoseconds (weight-adjusted).
    pub vruntime: Vec<u64>,
    /// CFS load weight (1024 = nice 0).
    pub weight: Vec<u32>,
    /// Virtual-blocking flag: the paper's per-thread `thread_state`.
    pub vb_blocked: Vec<bool>,
    /// Park slot: true vruntime saved while VB-parked at the queue tail.
    pub vb_saved_vruntime: Vec<Option<u64>>,
    /// BWD skip flag.
    pub bwd_skip: Vec<bool>,
    /// CPU the task last ran on (wake affinity hint).
    pub last_cpu: Vec<CpuId>,
    /// Hard pin, if any.
    pub pinned: Vec<Option<CpuId>>,
    /// Allowed-CPU bitmask (cpuset); bit `i` set = CPU `i` allowed.
    pub allowed: Vec<u64>,
    /// Time the task last became runnable (wait-time accounting).
    pub runnable_since: Vec<SimTime>,
    /// Pending wake request awaiting first run (wakeup latency).
    pub wake_requested_at: Vec<Option<SimTime>>,

    // --- cold columns: touched at event boundaries only ---
    /// The driving programs.
    pub programs: Vec<Box<dyn Program>>,
    /// Cache-resident working set in bytes.
    pub footprint_bytes: Vec<u64>,
    /// Random (true) vs streaming (false) access pattern.
    pub random_access: Vec<bool>,
    /// Per-task address salt for LBR stream diversity.
    pub addr_salt: Vec<u64>,
    /// Per-task accounting.
    pub stats: Vec<TaskStats>,
    /// Happens-before vector clock for the race detector. Disarmed runs
    /// keep every row at [`VClock::empty`] (a zero-length clock, i.e. a
    /// dangling `Vec`), so the column costs one pointer-sized push per
    /// spawn and nothing thereafter. The engine zero-fills the rows to
    /// task-count length only when `RunConfig::with_race_detector()` is
    /// set.
    pub race_clock: Vec<VClock>,
}

impl TaskTable {
    /// Empty table.
    pub fn new() -> Self {
        TaskTable::default()
    }

    /// Number of tasks. Every column has exactly this many rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True when no tasks have been spawned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// All task ids, in spawn (= index) order.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.len()).map(TaskId)
    }

    /// Append a task built from a spawn record. The record's `id` must be
    /// the next free row (ids are dense and stable).
    pub fn push(&mut self, task: Task) -> TaskId {
        debug_assert_eq!(task.id.0, self.len(), "non-dense task id {:?}", task.id);
        let id = TaskId(self.len());
        self.state.push(task.state);
        self.vruntime.push(task.vruntime);
        self.weight.push(task.weight);
        self.vb_blocked.push(task.vb_blocked);
        self.vb_saved_vruntime.push(task.vb_saved_vruntime);
        self.bwd_skip.push(task.bwd_skip);
        self.last_cpu.push(task.last_cpu);
        self.pinned.push(task.pinned);
        self.allowed.push(task.allowed);
        self.runnable_since.push(task.runnable_since);
        self.wake_requested_at.push(task.wake_requested_at);
        self.programs.push(task.program);
        self.footprint_bytes.push(task.footprint_bytes);
        self.random_access.push(task.random_access);
        self.addr_salt.push(task.addr_salt);
        self.stats.push(task.stats);
        self.race_clock.push(VClock::empty());
        id
    }

    /// True if the scheduler may pick `tid`: runnable and not VB-parked.
    #[inline]
    pub fn schedulable(&self, tid: TaskId) -> bool {
        self.state[tid.0] == TaskState::Runnable && !self.vb_blocked[tid.0]
    }

    /// True if `tid` may run on `cpu`.
    #[inline]
    pub fn allows(&self, tid: TaskId, cpu: CpuId) -> bool {
        cpu.0 < 64 && self.allowed[tid.0] & (1 << cpu.0) != 0
    }

    /// Enter virtual blocking: save the true vruntime and park at the tail.
    pub fn vb_park(&mut self, tid: TaskId, tail_vruntime: u64) {
        debug_assert!(!self.vb_blocked[tid.0], "double vb_park of {tid:?}");
        self.vb_saved_vruntime[tid.0] = Some(self.vruntime[tid.0]);
        self.vruntime[tid.0] = tail_vruntime;
        self.vb_blocked[tid.0] = true;
    }

    /// Leave virtual blocking: restore the true vruntime.
    pub fn vb_unpark(&mut self, tid: TaskId) {
        debug_assert!(self.vb_blocked[tid.0], "vb_unpark of unparked {tid:?}");
        self.vb_blocked[tid.0] = false;
        if let Some(v) = self.vb_saved_vruntime[tid.0].take() {
            self.vruntime[tid.0] = v;
        }
    }

    /// Record a wake request at `now` (wakeup-latency stats).
    pub fn note_wake_request(&mut self, tid: TaskId, now: SimTime) {
        self.stats[tid.0].wakeups += 1;
        self.wake_requested_at[tid.0] = Some(now);
    }

    /// Record a run start at `now`, closing any pending wakeup-latency
    /// measurement and the runnable wait.
    pub fn note_run_start(&mut self, tid: TaskId, now: SimTime) {
        if let Some(w) = self.wake_requested_at[tid.0].take() {
            self.stats[tid.0].wakeup_latency_ns += now.saturating_since(w);
        }
        self.stats[tid.0].wait_ns += now.saturating_since(self.runnable_since[tid.0]);
    }

    /// The driving program of `tid` (cold column; the borrow is disjoint
    /// from every other column).
    #[inline]
    pub fn program_mut(&mut self, tid: TaskId) -> &mut dyn Program {
        &mut *self.programs[tid.0]
    }
}

impl std::fmt::Debug for TaskTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskTable")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgCtx, Program};
    use crate::Action;

    struct Nop;
    impl Program for Nop {
        fn next(&mut self, _ctx: &mut ProgCtx<'_>) -> Action {
            Action::Exit
        }
    }

    fn table(n: usize) -> TaskTable {
        let mut tt = TaskTable::new();
        for i in 0..n {
            tt.push(Task::new(TaskId(i), Box::new(Nop), CpuId(0)));
        }
        tt
    }

    #[test]
    fn push_keeps_columns_parallel() {
        let tt = table(3);
        assert_eq!(tt.len(), 3);
        assert_eq!(tt.vruntime.len(), 3);
        assert_eq!(tt.programs.len(), 3);
        assert_eq!(tt.race_clock.len(), 3);
        assert!(
            tt.race_clock[0].is_empty(),
            "clocks are disarmed by default"
        );
        assert_eq!(tt.addr_salt[2], 3, "salt = id + 1");
        assert!(tt.schedulable(TaskId(1)));
    }

    #[test]
    fn vb_round_trip_matches_struct_semantics() {
        let mut tt = table(1);
        tt.vruntime[0] = 123_456;
        tt.vb_park(TaskId(0), u64::MAX / 2);
        assert!(!tt.schedulable(TaskId(0)));
        assert_eq!(tt.vruntime[0], u64::MAX / 2);
        tt.vb_unpark(TaskId(0));
        assert!(tt.schedulable(TaskId(0)));
        assert_eq!(tt.vruntime[0], 123_456);
    }

    #[test]
    fn wakeup_latency_accounting_matches_struct() {
        let mut tt = table(1);
        tt.note_wake_request(TaskId(0), SimTime::from_nanos(100));
        tt.runnable_since[0] = SimTime::from_nanos(100);
        tt.note_run_start(TaskId(0), SimTime::from_nanos(600));
        assert_eq!(tt.stats[0].wakeups, 1);
        assert_eq!(tt.stats[0].wakeup_latency_ns, 500);
        assert_eq!(tt.stats[0].wait_ns, 500);
    }

    #[test]
    fn allows_matches_struct_semantics() {
        let mut tt = table(1);
        assert!(tt.allows(TaskId(0), CpuId(5)));
        assert!(!tt.allows(TaskId(0), CpuId(64)));
        tt.allowed[0] = 0b10;
        assert!(tt.allows(TaskId(0), CpuId(1)));
        assert!(!tt.allows(TaskId(0), CpuId(0)));
    }
}
