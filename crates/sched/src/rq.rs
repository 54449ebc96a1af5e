//! The per-CPU CFS runqueue.
//!
//! Linux keeps runnable tasks in a red-black tree ordered by vruntime; we
//! keep a `Vec<(vruntime, TaskId)>` sorted in the same order, with
//! binary-search insert and remove. A queue holds a handful of tasks, so
//! shifting the tail on insert costs less than a tree's node allocations,
//! and `pick_next` scans from the left of one contiguous array. Virtual
//! blocking inserts parked tasks at the tail by assigning them an
//! arbitrarily large vruntime (above [`VB_TAIL_BASE`]); they are skipped
//! by `pick_next` but still counted as load, which is what stabilizes the
//! load balancer.
//!
//! All task state is read through the struct-of-arrays [`TaskTable`]: the
//! pick paths touch only the `vruntime`/`state`/`vb_blocked`/`bwd_skip`
//! columns, so a scan stays in a handful of cache lines even with hundreds
//! of tasks.

use oversub_task::{TaskId, TaskTable};
use std::cell::Cell;
use std::rc::Rc;

/// Base of the vruntime region used to park virtually-blocked tasks.
/// Anything above this sorts after every live task.
pub const VB_TAIL_BASE: u64 = u64::MAX / 2;

/// Machine-wide counts shared by every runqueue of one scheduler, kept
/// on the 0↔nonzero transitions of each queue's `nr_schedulable`. The
/// idle balancer reads [`queues`](Self::queues) to answer "is there
/// anything to steal anywhere?" in O(1) (see `Scheduler::idle_pull`).
#[derive(Debug, Default)]
pub struct WaiterBoard {
    /// Runqueues with at least one schedulable task.
    queues: Cell<usize>,
    /// Times a runqueue gained its first schedulable task.
    rises: Cell<u64>,
}

impl WaiterBoard {
    /// Runqueues with at least one schedulable task.
    #[inline]
    pub fn queues(&self) -> usize {
        self.queues.get()
    }

    /// Times so far that a runqueue's schedulable count went from 0 to 1.
    #[inline]
    pub fn rises(&self) -> u64 {
        self.rises.get()
    }

    fn rise(&self) {
        self.queues.set(self.queues.get() + 1);
        self.rises.set(self.rises.get() + 1);
    }

    fn fall(&self) {
        self.queues.set(self.queues.get() - 1);
    }
}

/// A CFS runqueue.
#[derive(Clone, Debug, Default)]
pub struct CfsRq {
    /// Queued `(vruntime, task)` entries in ascending order.
    entries: Vec<(u64, TaskId)>,
    /// Runnable tasks excluding VB-parked ones.
    nr_schedulable: usize,
    /// VB-parked tasks on this queue.
    nr_vb_parked: usize,
    /// Monotonic floor for vruntimes of newly (re)enqueued tasks.
    min_vruntime: u64,
    /// Sequence used to order VB-parked tasks FIFO at the tail.
    vb_seq: u64,
    /// The scheduler's shared [`WaiterBoard`], if attached.
    waiter_board: Option<Rc<WaiterBoard>>,
}

impl CfsRq {
    /// Empty queue.
    pub fn new() -> Self {
        CfsRq::default()
    }

    /// Tasks on the queue that the scheduler may pick.
    #[inline]
    pub fn nr_schedulable(&self) -> usize {
        self.nr_schedulable
    }

    /// VB-parked tasks on the queue.
    #[inline]
    pub fn nr_vb_parked(&self) -> usize {
        self.nr_vb_parked
    }

    /// Total queued tasks (schedulable + VB-parked). This is the *load*
    /// the balancer sees: under VB, blocked tasks still contribute.
    #[inline]
    pub fn nr_queued(&self) -> usize {
        self.entries.len()
    }

    /// Current minimum-vruntime floor.
    #[inline]
    pub fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// True if nothing (not even a parked task) is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Share the scheduler's waiter board with this runqueue. Folds the
    /// queue's current population into the board, so it can be attached
    /// at any point.
    pub fn attach_waiter_board(&mut self, board: Rc<WaiterBoard>) {
        if self.nr_schedulable > 0 {
            board.rise();
        }
        self.waiter_board = Some(board);
    }

    #[inline]
    fn add_schedulable(&mut self) {
        self.nr_schedulable += 1;
        if self.nr_schedulable == 1 {
            if let Some(b) = &self.waiter_board {
                b.rise();
            }
        }
    }

    #[inline]
    fn remove_schedulable(&mut self) {
        self.nr_schedulable -= 1;
        if self.nr_schedulable == 0 {
            if let Some(b) = &self.waiter_board {
                b.fall();
            }
        }
    }

    /// Insert `key` at its sorted position; false if it is already there.
    fn insert(&mut self, key: (u64, TaskId)) -> bool {
        let i = self.entries.partition_point(|e| *e < key);
        if self.entries.get(i) == Some(&key) {
            return false;
        }
        self.entries.insert(i, key);
        true
    }

    /// Remove `key`; false if it is not queued.
    fn remove(&mut self, key: (u64, TaskId)) -> bool {
        match self.entries.binary_search(&key) {
            Ok(i) => {
                self.entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Next vruntime to use for parking a task at the tail (FIFO among
    /// parked tasks).
    pub fn next_vb_tail_vruntime(&mut self) -> u64 {
        self.vb_seq += 1;
        VB_TAIL_BASE + self.vb_seq
    }

    /// Insert a task. Its `vruntime` column entry must already be final
    /// (including sleeper credit or VB tail placement).
    pub fn enqueue(&mut self, tasks: &TaskTable, tid: TaskId) {
        let vruntime = tasks.vruntime[tid.0];
        let vb = tasks.vb_blocked[tid.0];
        debug_assert!(
            vb || vruntime < VB_TAIL_BASE,
            "non-parked task {tid:?} with tail-region vruntime {vruntime}"
        );
        let fresh = self.insert((vruntime, tid));
        debug_assert!(fresh, "task {tid:?} double-enqueued");
        if vb {
            self.nr_vb_parked += 1;
        } else {
            self.add_schedulable();
        }
    }

    /// Remove a task (must be queued with exactly its current vruntime).
    pub fn dequeue(&mut self, tasks: &TaskTable, tid: TaskId) {
        let existed = self.remove((tasks.vruntime[tid.0], tid));
        debug_assert!(existed, "task {tid:?} not on queue");
        if tasks.vb_blocked[tid.0] {
            self.nr_vb_parked -= 1;
        } else {
            self.remove_schedulable();
            self.update_min_vruntime();
        }
    }

    /// Reposition a task whose vruntime changed from `old_vruntime`.
    /// `was_vb` describes its parked status while at `old_vruntime`.
    pub fn requeue(&mut self, old_vruntime: u64, was_vb: bool, tasks: &TaskTable, tid: TaskId) {
        let existed = self.remove((old_vruntime, tid));
        debug_assert!(existed, "task {tid:?} not on queue for requeue");
        self.insert((tasks.vruntime[tid.0], tid));
        match (was_vb, tasks.vb_blocked[tid.0]) {
            (true, false) => {
                self.nr_vb_parked -= 1;
                self.add_schedulable();
            }
            (false, true) => {
                self.remove_schedulable();
                self.nr_vb_parked += 1;
            }
            _ => {}
        }
        self.update_min_vruntime();
    }

    /// The leftmost schedulable entry, honouring BWD skip flags: the first
    /// non-skipped schedulable task wins; if every schedulable task is
    /// skip-flagged, the leftmost is returned (the caller clears its flag).
    ///
    /// Returns `(task, forced)` where `forced` means a skip flag had to be
    /// overridden. A scan from the left, which stops at the parked region.
    pub fn pick_next(&self, tasks: &TaskTable) -> Option<(TaskId, bool)> {
        let mut first_skipped: Option<TaskId> = None;
        for &(vr, tid) in &self.entries {
            if vr >= VB_TAIL_BASE {
                break; // parked region; nothing schedulable beyond
            }
            if !tasks.schedulable(tid) {
                continue;
            }
            if tasks.bwd_skip[tid.0] {
                if first_skipped.is_none() {
                    first_skipped = Some(tid);
                }
                continue;
            }
            return Some((tid, false));
        }
        first_skipped.map(|t| (t, true))
    }

    /// Leftmost VB-parked task, if any (used for flag-poll rotation when a
    /// core has only parked tasks).
    pub fn first_vb_parked(&self, tasks: &TaskTable) -> Option<TaskId> {
        let parked = self.entries.partition_point(|&(vr, _)| vr < VB_TAIL_BASE);
        self.entries[parked..]
            .iter()
            .map(|&(_, tid)| tid)
            .find(|&tid| tasks.vb_blocked[tid.0])
    }

    /// Schedulable tasks in vruntime order — used by the load balancer to
    /// select migration victims (it never migrates VB-parked tasks).
    pub fn schedulable_tasks<'a>(
        &'a self,
        tasks: &'a TaskTable,
    ) -> impl Iterator<Item = TaskId> + 'a {
        self.entries
            .iter()
            .take_while(|&&(vr, _)| vr < VB_TAIL_BASE)
            .map(|&(_, tid)| tid)
            .filter(move |&tid| tasks.schedulable(tid))
    }

    /// Consistency check (diagnostics): recount schedulable entries and
    /// compare with the cached counter. Returns
    /// `(counter, recounted_schedulable, entries_in_parked_region)`.
    pub fn audit(&self, tasks: &TaskTable) -> (usize, usize, usize) {
        let mut sched = 0;
        let mut parked_region = 0;
        for &(vr, tid) in &self.entries {
            if vr >= VB_TAIL_BASE {
                parked_region += 1;
                continue;
            }
            if tasks.schedulable(tid) {
                sched += 1;
            }
        }
        (self.nr_schedulable, sched, parked_region)
    }

    /// All entries (diagnostics).
    pub fn entries(&self) -> Vec<(u64, TaskId)> {
        self.entries.clone()
    }

    /// The leftmost entry's vruntime, if it is outside the parked region.
    fn leftmost_live(&self) -> Option<u64> {
        self.entries
            .first()
            .map(|&(vr, _)| vr)
            .filter(|&vr| vr < VB_TAIL_BASE)
    }

    /// Raise the min_vruntime floor to track the leftmost live entry.
    fn update_min_vruntime(&mut self) {
        if let Some(vr) = self.leftmost_live() {
            if vr > self.min_vruntime {
                self.min_vruntime = vr;
            }
        }
    }

    /// Account `delta` of execution to the floor as the current task runs
    /// (the current task is not on the queue while running, matching CFS).
    pub fn advance_min_vruntime(&mut self, curr_vruntime: u64) {
        let target = match self.leftmost_live() {
            Some(l) => l.min(curr_vruntime),
            None => curr_vruntime,
        };
        if target > self.min_vruntime {
            self.min_vruntime = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oversub_hw::CpuId;
    use oversub_task::{Action, FnProgram, Task};

    fn mk_task(id: usize, vruntime: u64) -> Task {
        let mut t = Task::new(
            TaskId(id),
            Box::new(FnProgram::new("nop", |_| Action::Exit)),
            CpuId(0),
        );
        t.vruntime = vruntime;
        t
    }

    fn table(specs: &[(usize, u64)]) -> TaskTable {
        let max = specs.iter().map(|&(i, _)| i).max().unwrap_or(0);
        let mut tt = TaskTable::new();
        for i in 0..=max {
            tt.push(mk_task(i, 0));
        }
        for &(i, vr) in specs {
            tt.vruntime[i] = vr;
        }
        tt
    }

    #[test]
    fn pick_lowest_vruntime() {
        let tasks = table(&[(0, 300), (1, 100), (2, 200)]);
        let mut rq = CfsRq::new();
        for tid in tasks.ids() {
            rq.enqueue(&tasks, tid);
        }
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(1), false)));
        assert_eq!(rq.nr_schedulable(), 3);
    }

    #[test]
    fn vb_parked_tasks_are_skipped_but_counted() {
        let mut tasks = table(&[(0, 100), (1, 50)]);
        let mut rq = CfsRq::new();
        let tail = rq.next_vb_tail_vruntime();
        tasks.vb_park(TaskId(1), tail);
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(0), false)));
        assert_eq!(rq.nr_schedulable(), 1);
        assert_eq!(rq.nr_vb_parked(), 1);
        assert_eq!(rq.nr_queued(), 2);
        assert_eq!(rq.first_vb_parked(&tasks), Some(TaskId(1)));
    }

    #[test]
    fn only_parked_tasks_means_no_pick() {
        let mut tasks = table(&[(0, 100)]);
        let mut rq = CfsRq::new();
        let tail = rq.next_vb_tail_vruntime();
        tasks.vb_park(TaskId(0), tail);
        rq.enqueue(&tasks, TaskId(0));
        assert_eq!(rq.pick_next(&tasks), None);
        assert_eq!(rq.first_vb_parked(&tasks), Some(TaskId(0)));
    }

    #[test]
    fn bwd_skip_defers_to_other_tasks() {
        let mut tasks = table(&[(0, 50), (1, 100)]);
        tasks.bwd_skip[0] = true;
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        // Task 0 has lower vruntime but is skip-flagged.
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(1), false)));
    }

    #[test]
    fn all_skipped_forces_leftmost() {
        let mut tasks = table(&[(0, 50), (1, 100)]);
        tasks.bwd_skip[0] = true;
        tasks.bwd_skip[1] = true;
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(0), true)));
    }

    #[test]
    fn requeue_moves_between_regions() {
        let mut tasks = table(&[(0, 70)]);
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        // Park it.
        let old = tasks.vruntime[0];
        let tail = rq.next_vb_tail_vruntime();
        tasks.vb_park(TaskId(0), tail);
        rq.requeue(old, false, &tasks, TaskId(0));
        assert_eq!(rq.nr_schedulable(), 0);
        assert_eq!(rq.nr_vb_parked(), 1);
        // Unpark.
        let old = tasks.vruntime[0];
        tasks.vb_unpark(TaskId(0));
        rq.requeue(old, true, &tasks, TaskId(0));
        assert_eq!(rq.nr_schedulable(), 1);
        assert_eq!(rq.nr_vb_parked(), 0);
        assert_eq!(tasks.vruntime[0], 70);
    }

    #[test]
    fn dequeue_updates_counts() {
        let tasks = table(&[(0, 10), (1, 20)]);
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        rq.dequeue(&tasks, TaskId(0));
        assert_eq!(rq.nr_schedulable(), 1);
        assert_eq!(rq.pick_next(&tasks), Some((TaskId(1), false)));
        rq.dequeue(&tasks, TaskId(1));
        assert!(rq.is_empty());
    }

    #[test]
    fn min_vruntime_is_monotonic() {
        let tasks = table(&[(0, 100), (1, 200)]);
        let mut rq = CfsRq::new();
        rq.enqueue(&tasks, TaskId(0));
        rq.enqueue(&tasks, TaskId(1));
        rq.dequeue(&tasks, TaskId(0));
        let v1 = rq.min_vruntime();
        rq.advance_min_vruntime(250);
        let v2 = rq.min_vruntime();
        assert!(v2 >= v1);
        rq.advance_min_vruntime(10);
        assert_eq!(rq.min_vruntime(), v2, "floor never decreases");
    }

    #[test]
    fn vb_tail_vruntimes_are_fifo() {
        let mut rq = CfsRq::new();
        let a = rq.next_vb_tail_vruntime();
        let b = rq.next_vb_tail_vruntime();
        assert!(b > a);
        assert!(a > VB_TAIL_BASE);
    }

    #[test]
    fn schedulable_iteration_respects_order_and_filters() {
        let mut tasks = table(&[(0, 30), (1, 10), (2, 20)]);
        let mut rq = CfsRq::new();
        let tail = rq.next_vb_tail_vruntime();
        tasks.vb_park(TaskId(2), tail);
        for tid in tasks.ids() {
            rq.enqueue(&tasks, tid);
        }
        let order: Vec<_> = rq.schedulable_tasks(&tasks).collect();
        assert_eq!(order, vec![TaskId(1), TaskId(0)]);
    }
}
