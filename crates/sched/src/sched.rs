//! The CFS-like scheduler with virtual-blocking and BWD hooks.
//!
//! The scheduler is a passive state machine: the simulation engine calls
//! into it at event times. Methods return the *costs* of kernel operations
//! (e.g. how long a `try_to_wake_up` keeps the waker busy) so that the
//! engine can charge them to the right CPU's timeline.
//!
//! Task state lives in the struct-of-arrays [`TaskTable`]; every method
//! indexes the columns it needs instead of chasing per-task structs.

use crate::cpu::CpuState;
use crate::params::SchedParams;
use crate::rq::{WaiterBoard, VB_TAIL_BASE};
use oversub_hw::{CpuId, MemModel, Topology};
use oversub_simcore::SimTime;
use oversub_task::{TaskId, TaskState, TaskTable};
use std::rc::Rc;

/// What `pick_next` decided for a CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// Run this task. The flag is true if a BWD skip had to be overridden.
    Run(TaskId, bool),
    /// Every queued task is VB-parked: briefly run this one to let it check
    /// its `thread_state` flag (the paper's "threads take turns to briefly
    /// run" behaviour).
    VbPoll(TaskId),
    /// Nothing to do.
    Idle,
}

/// Result of a vanilla (sleep-based) wakeup.
#[derive(Clone, Copy, Debug)]
pub struct WakeOutcome {
    /// CPU the task was placed on.
    pub cpu: CpuId,
    /// Nanoseconds the *waker* spends performing the wakeup (core
    /// selection, runqueue lock, enqueue, preemption check).
    pub cost_ns: u64,
    /// Whether placement moved the task off its previous CPU, and if so
    /// whether it crossed a NUMA node.
    pub migrated: Option<bool>,
    /// The chosen CPU should preempt its current task for the woken one.
    pub preempt: bool,
}

/// Why a running task is leaving the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Time slice expired or preempted: back on the runqueue (involuntary).
    Preempted,
    /// Voluntary yield: back on the runqueue.
    Yielded,
    /// Going to sleep (vanilla block): off the runqueue.
    Sleep,
    /// Virtually blocking: parked at the runqueue tail.
    VirtualBlock,
    /// Exited.
    Exit,
}

/// A migration performed by the load balancer or wake placement.
#[derive(Clone, Copy, Debug)]
pub struct MigrationEvent {
    /// Migrated task.
    pub task: TaskId,
    /// Source CPU.
    pub from: CpuId,
    /// Destination CPU.
    pub to: CpuId,
    /// True if source and destination are on different NUMA nodes.
    pub cross_node: bool,
}

/// The machine-wide scheduler state.
pub struct Scheduler {
    /// Per-CPU state.
    pub cpus: Vec<CpuState>,
    /// Machine layout.
    pub topo: Topology,
    /// Tunables.
    pub params: SchedParams,
    /// Memory model used to price migration / pollution penalties.
    pub mem: MemModel,
    /// Whether virtual blocking is enabled (the mechanism can also
    /// auto-disable per-futex when not oversubscribed; see `ksync`).
    pub vb_enabled: bool,
    /// Penalties waiting to be charged when a task next runs
    /// (migration refill cost), indexed by task.
    pending_penalty: Vec<u64>,
    /// Online mask: offline CPUs are never picked as wake or balance
    /// destinations (CPU elasticity).
    pub online: Vec<bool>,
    /// Calls of [`set_online_count`](Self::set_online_count) so far.
    online_changes: u64,
    /// Machine-wide count of runqueues with schedulable waiters, and of
    /// their 0→1 transitions (shared with every [`crate::rq::CfsRq`]):
    /// the idle balancer's O(1) "anything to steal?" check.
    pub(crate) waiter_board: Rc<WaiterBoard>,
    /// Active-core bitset: bit `i` of word `i / 64` is set exactly when
    /// CPU `i` has a current task. Maintained on the only two transitions
    /// (`start`, `stop_current`), so "is this core running anything" and
    /// "how many cores are busy" are O(1)/O(words) without striding over
    /// `cpus` — the basis of the O(active) mechanism-timer dispatch.
    active_mask: Vec<u64>,
    /// Reference (pre-overhaul) mode: full balancer scans. See
    /// [`Scheduler::set_reference_mode`].
    pub(crate) reference: bool,
    /// BWD skip flags released by round expiry since the last drain
    /// (consumed via [`Scheduler::take_skips_released`] by the BWD
    /// mechanism's `on_pick` hook for its `skips_cleared` counter).
    skips_released: u64,
}

impl Scheduler {
    /// Build a scheduler for `topo`.
    pub fn new(topo: Topology, params: SchedParams, mem: MemModel, vb_enabled: bool) -> Self {
        let waiter_board = Rc::new(WaiterBoard::default());
        let cpus: Vec<CpuState> = (0..topo.num_cpus())
            .map(|_| {
                let mut c = CpuState::new(params.rq_lock);
                c.rq.attach_waiter_board(Rc::clone(&waiter_board));
                c
            })
            .collect();
        let online = vec![true; topo.num_cpus()];
        let active_mask = vec![0u64; topo.num_cpus().div_ceil(64)];
        Scheduler {
            cpus,
            topo,
            params,
            mem,
            vb_enabled,
            pending_penalty: Vec::new(),
            online,
            online_changes: 0,
            waiter_board,
            active_mask,
            reference: false,
            skips_released: 0,
        }
    }

    /// Drain the count of skip flags released by round expiry since the
    /// last call.
    pub fn take_skips_released(&mut self) -> u64 {
        std::mem::take(&mut self.skips_released)
    }

    /// True when `cpu` currently runs a task (O(1) bitset read; equal to
    /// `self.cpus[cpu.0].current.is_some()` by construction).
    #[inline]
    pub fn is_active(&self, cpu: CpuId) -> bool {
        self.active_mask[cpu.0 >> 6] & (1u64 << (cpu.0 & 63)) != 0
    }

    /// Number of CPUs currently running a task, in O(words) popcounts.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active_mask
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    #[inline]
    fn set_active(&mut self, cpu: CpuId, on: bool) {
        let bit = 1u64 << (cpu.0 & 63);
        if on {
            self.active_mask[cpu.0 >> 6] |= bit;
        } else {
            self.active_mask[cpu.0 >> 6] &= !bit;
        }
    }

    /// Cross-check the O(1) waiter board against the per-runqueue truth:
    /// the board must equal the number of runqueues with at least one
    /// schedulable task. Returns `None` when consistent, or a description
    /// of the mismatch for the watchdog's diagnostics.
    pub fn audit_waiter_board(&self) -> Option<String> {
        let actual = self
            .cpus
            .iter()
            .filter(|c| c.rq.nr_schedulable() > 0)
            .count();
        let board = self.waiter_board.queues();
        (board != actual).then(|| {
            format!("waiter board reads {board} but {actual} runqueues have schedulable tasks")
        })
    }

    /// Switch the scheduler to its pre-overhaul reference internals: the
    /// balancer skips its O(1) waiter-board fast paths. Behaviour is
    /// bit-identical either way (the golden determinism test proves it);
    /// this exists as the baseline for throughput comparisons.
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference = on;
    }

    /// Runqueues holding at least one schedulable task, machine-wide. While
    /// it reads zero, `idle_pull` finds nothing to steal.
    #[inline]
    pub fn waiting_queues(&self) -> usize {
        self.waiter_board.queues()
    }

    /// A counter that moves whenever an idle CPU may newly find work: a
    /// runqueue gained its first schedulable task, or the online set was
    /// set. Between two equal readings, no runqueue's schedulable count
    /// rose from zero and no CPU went on- or offline.
    #[inline]
    pub fn idle_work_mark(&self) -> u64 {
        self.waiter_board.rises() + self.online_changes
    }

    /// Bring exactly the first `n` CPUs online (CPU elasticity). The caller
    /// is responsible for draining newly-offline runqueues.
    pub fn set_online_count(&mut self, n: usize) {
        for (i, o) in self.online.iter_mut().enumerate() {
            *o = i < n;
        }
        self.online_changes += 1;
    }

    /// Number of online CPUs.
    pub fn num_online(&self) -> usize {
        self.online.iter().filter(|&&o| o).count()
    }

    /// Whether `cpu` is online.
    pub fn is_online(&self, cpu: CpuId) -> bool {
        self.online[cpu.0]
    }

    /// Ensure the pending-penalty table covers `tid`.
    fn ensure_task(&mut self, tid: TaskId) {
        if self.pending_penalty.len() <= tid.0 {
            self.pending_penalty.resize(tid.0 + 1, 0);
        }
    }

    /// Add a pending one-off penalty (cache refill after migration).
    pub fn add_penalty(&mut self, tid: TaskId, ns: u64) {
        self.ensure_task(tid);
        self.pending_penalty[tid.0] += ns;
    }

    /// Take (and clear) the pending penalty for a task.
    pub fn take_penalty(&mut self, tid: TaskId) -> u64 {
        self.ensure_task(tid);
        std::mem::take(&mut self.pending_penalty[tid.0])
    }

    /// Enqueue a brand-new runnable task on `cpu`.
    pub fn enqueue_new(&mut self, tasks: &mut TaskTable, tid: TaskId, cpu: CpuId, now: SimTime) {
        self.ensure_task(tid);
        let rq_min = self.cpus[cpu.0].rq.min_vruntime();
        tasks.state[tid.0] = TaskState::Runnable;
        tasks.last_cpu[tid.0] = cpu;
        tasks.vruntime[tid.0] = tasks.vruntime[tid.0].max(rq_min);
        tasks.runnable_since[tid.0] = now;
        self.cpus[cpu.0].rq.enqueue(tasks, tid);
    }

    /// Time slice for the task currently on `cpu`.
    pub fn slice_for(&self, cpu: CpuId) -> u64 {
        self.params.slice_ns(self.cpus[cpu.0].nr_for_slice())
    }

    /// SMT throughput factor for work on `cpu`: 1.0 when the sibling
    /// hardware thread is idle, else each thread runs at 65 % speed
    /// (a typical combined SMT speedup of 1.3x).
    pub fn smt_factor(&self, cpu: CpuId) -> f64 {
        if self.topo.smt() == 1 {
            return 1.0;
        }
        let busy_sibling = self
            .topo
            .cpu_ids()
            .any(|o| self.topo.siblings(cpu, o) && self.cpus[o.0].current.is_some());
        if busy_sibling {
            0.65
        } else {
            1.0
        }
    }

    /// Pick what `cpu` should do next.
    pub fn pick_next(&mut self, tasks: &mut TaskTable, cpu: CpuId) -> Pick {
        // Expire BWD skip flags whose release round has come: every other
        // schedulable task has been picked at least once since the flag was
        // set.
        let round = self.cpus[cpu.0].pick_round;
        let c = &mut self.cpus[cpu.0];
        if !c.skip_release.is_empty() {
            let mut released_count = 0u64;
            c.skip_release.retain(|&tid, &mut r| {
                if round >= r {
                    tasks.bwd_skip[tid.0] = false;
                    released_count += 1;
                    false
                } else {
                    true
                }
            });
            self.skips_released += released_count;
        }
        match self.cpus[cpu.0].rq.pick_next(tasks) {
            Some((tid, forced)) => Pick::Run(tid, forced),
            None => match self.cpus[cpu.0].rq.first_vb_parked(tasks) {
                Some(tid) => Pick::VbPoll(tid),
                None => Pick::Idle,
            },
        }
    }

    /// Start running `tid` on `cpu` at `now`. Returns the one-off cost of
    /// the switch: direct context-switch cost plus any cache penalty
    /// (pollution refill if another task ran here since, pending migration
    /// refill).
    pub fn start(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: TaskId, now: SimTime) -> u64 {
        self.ensure_task(tid);
        let c = &mut self.cpus[cpu.0];
        debug_assert!(c.current.is_none(), "cpu {cpu:?} already running");
        c.pick_round += 1;
        c.skip_release.remove(&tid);

        let same_as_last = c.last_ran == Some(tid);
        let prev_footprint = c
            .last_ran
            .map(|p| {
                if p == tid {
                    0
                } else {
                    tasks.footprint_bytes[p.0]
                }
            })
            .unwrap_or(0);
        debug_assert!(
            tasks.schedulable(tid),
            "starting unschedulable task {tid:?}"
        );
        tasks.bwd_skip[tid.0] = false;
        tasks.note_run_start(tid, now);
        tasks.state[tid.0] = TaskState::Running;
        c.rq.dequeue(tasks, tid);
        c.current = Some(tid);
        c.curr_since = now;

        // Resuming the task that just ran (e.g. a lone yielder) skips the
        // register/address-space work: only the mode switch is paid.
        let mut cost = if same_as_last {
            self.params.syscall_entry_ns
        } else {
            self.params.ctx_switch_ns
        };
        let footprint = tasks.footprint_bytes[tid.0];
        if !same_as_last && footprint > 0 {
            cost +=
                self.mem
                    .switch_penalty_ns(footprint, prev_footprint, tasks.random_access[tid.0]);
        }
        if tasks.last_cpu[tid.0] != cpu {
            tasks.last_cpu[tid.0] = cpu;
        }
        self.cpus[cpu.0].last_ran = Some(tid);
        self.set_active(cpu, true);
        cost + self.take_penalty(tid)
    }

    /// Stop the task currently running on `cpu` at `now`, charging its
    /// vruntime for the stint and applying `reason` semantics. Returns
    /// `None` (and does nothing) if the CPU was idle — a caller bug, but
    /// one the simulation survives instead of tearing down.
    pub fn stop_current(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: SimTime,
        reason: StopReason,
    ) -> Option<TaskId> {
        let c = &mut self.cpus[cpu.0];
        let Some(tid) = c.current.take() else {
            debug_assert!(false, "stop_current on idle cpu {}", cpu.0);
            return None;
        };
        let stint = now.saturating_since(c.curr_since);
        let vruntime =
            tasks.vruntime[tid.0].saturating_add(stint * 1024 / tasks.weight[tid.0].max(1) as u64);
        tasks.vruntime[tid.0] = vruntime;
        c.rq.advance_min_vruntime(vruntime);

        match reason {
            StopReason::Preempted => {
                tasks.state[tid.0] = TaskState::Runnable;
                tasks.runnable_since[tid.0] = now;
                tasks.stats[tid.0].nivcsw += 1;
                c.rq.enqueue(tasks, tid);
                c.time.preemptions += 1;
            }
            StopReason::Yielded => {
                tasks.state[tid.0] = TaskState::Runnable;
                tasks.runnable_since[tid.0] = now;
                tasks.stats[tid.0].nvcsw += 1;
                c.rq.enqueue(tasks, tid);
            }
            StopReason::Sleep => {
                tasks.state[tid.0] = TaskState::Sleeping;
                tasks.stats[tid.0].nvcsw += 1;
            }
            StopReason::VirtualBlock => {
                tasks.state[tid.0] = TaskState::Runnable;
                tasks.stats[tid.0].nvcsw += 1;
                let tail = c.rq.next_vb_tail_vruntime();
                tasks.vb_park(tid, tail);
                c.rq.enqueue(tasks, tid);
            }
            StopReason::Exit => {
                tasks.state[tid.0] = TaskState::Exited;
            }
        }
        c.time.context_switches += 1;
        self.set_active(cpu, false);
        Some(tid)
    }

    /// Select the CPU a waking task should run on (vanilla CFS
    /// `select_task_rq_fair` flavour) and the scan cost.
    fn select_cpu(&self, tasks: &TaskTable, tid: TaskId, waker_cpu: CpuId) -> (CpuId, u64) {
        if let Some(p) = tasks.pinned[tid.0] {
            return (p, self.params.wakeup_fixed_ns);
        }
        let scan_cost = self.params.wakeup_fixed_ns
            + self.params.wakeup_scan_per_cpu_ns * self.topo.num_cpus() as u64;

        // Fast path: previous CPU idle (and still online and allowed).
        let last = tasks.last_cpu[tid.0];
        if self.online[last.0] && tasks.allows(tid, last) && self.cpus[last.0].is_idle() {
            return (last, scan_cost);
        }
        // Otherwise pick the least-loaded CPU, preferring the task's node,
        // then the waker's node, then lowest index. Never fall back to an
        // offline or disallowed CPU: if the cpuset excludes every online
        // CPU, place on the first online one (affinity is broken rather
        // than stranding the task, as hotplug does).
        let mut best = self
            .topo
            .cpu_ids()
            .find(|c| self.online[c.0])
            .unwrap_or(last);
        let mut best_key = (usize::MAX, usize::MAX, usize::MAX);
        let home = self.topo.node_of(last);
        let waker_node = self.topo.node_of(waker_cpu);
        for c in self.topo.cpu_ids() {
            if !self.online[c.0] || !tasks.allows(tid, c) {
                continue;
            }
            let load = self.cpus[c.0].load();
            let node = self.topo.node_of(c);
            let node_pref = if node == home {
                0
            } else if node == waker_node {
                1
            } else {
                2
            };
            let key = (load, node_pref, c.0);
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        (best, scan_cost)
    }

    /// Vanilla wakeup: place a sleeping task on a CPU, paying the full
    /// `try_to_wake_up` path. The waker runs this code.
    pub fn vanilla_wake(
        &mut self,
        tasks: &mut TaskTable,
        tid: TaskId,
        waker_cpu: CpuId,
        now: SimTime,
    ) -> WakeOutcome {
        self.ensure_task(tid);
        debug_assert_eq!(tasks.state[tid.0], TaskState::Sleeping);
        let (cpu, scan_cost) = self.select_cpu(tasks, tid, waker_cpu);

        // Runqueue lock of the destination (serializes bulk wakeups).
        let grant = self.cpus[cpu.0]
            .rq_lock
            .acquire(now + scan_cost, self.params.rq_lock_hold_ns);
        let cost_ns = grant.end - now;

        let last = tasks.last_cpu[tid.0];
        let migrated = if cpu != last {
            let cross = !self.topo.same_node(cpu, last);
            if cross {
                tasks.stats[tid.0].migrations_remote += 1;
            } else {
                tasks.stats[tid.0].migrations_local += 1;
            }
            let refill = self
                .mem
                .migration_refill_ns(tasks.footprint_bytes[tid.0], cross);
            self.add_penalty(tid, refill);
            Some(cross)
        } else {
            None
        };

        // Sleeper credit placement.
        let rq_min = self.cpus[cpu.0].rq.min_vruntime();
        if self.params.sleeper_credit {
            let floor = rq_min.saturating_sub(self.params.target_latency_ns / 2);
            tasks.vruntime[tid.0] = tasks.vruntime[tid.0].max(floor);
        } else {
            tasks.vruntime[tid.0] = tasks.vruntime[tid.0].max(rq_min);
        }
        tasks.state[tid.0] = TaskState::Runnable;
        tasks.runnable_since[tid.0] = grant.end;
        tasks.note_wake_request(tid, now);
        self.cpus[cpu.0].rq.enqueue(tasks, tid);

        // Wakeup preemption test against the current task on `cpu`
        // (using its effective, stint-adjusted vruntime).
        let preempt = match self.curr_effective_vruntime(tasks, cpu, grant.end) {
            Some(cv) => tasks.vruntime[tid.0] + self.params.wakeup_granularity_ns < cv,
            None => true,
        };
        WakeOutcome {
            cpu,
            cost_ns,
            migrated,
            preempt,
        }
    }

    /// Virtual-blocking wake: clear `thread_state`, restore the true
    /// vruntime, and reposition the task in its (unchanged) runqueue.
    /// Returns `(cpu, cost_ns, preempt)`.
    pub fn vb_wake(
        &mut self,
        tasks: &mut TaskTable,
        tid: TaskId,
        now: SimTime,
    ) -> (CpuId, u64, bool) {
        let cpu = tasks.last_cpu[tid.0];
        let rq_min = self.cpus[cpu.0].rq.min_vruntime();
        debug_assert!(
            tasks.vb_blocked[tid.0],
            "vb_wake on non-parked task {tid:?}"
        );
        let old_vr = tasks.vruntime[tid.0];
        tasks.vb_unpark(tid);
        // Floor the restored vruntime so long-parked tasks do not lag the
        // queue (and get a sleeper-like credit, prioritizing their wake).
        let floor = rq_min.saturating_sub(self.params.target_latency_ns / 2);
        tasks.vruntime[tid.0] = tasks.vruntime[tid.0].max(floor);
        tasks.runnable_since[tid.0] = now;
        tasks.note_wake_request(tid, now);
        self.cpus[cpu.0].rq.requeue(old_vr, true, tasks, tid);

        // VB wakes always request preemption: the paper schedules threads
        // waking from virtual blocking immediately, like real sleepers.
        (cpu, self.params.vb_wake_ns, true)
    }

    /// Set the BWD skip flag on the task running on `cpu` — it will not be
    /// picked again until every other schedulable task there has run once.
    pub fn bwd_mark_skip(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: TaskId) {
        tasks.bwd_skip[tid.0] = true;
        tasks.stats[tid.0].bwd_deschedules += 1;
        let others = self.cpus[cpu.0].rq.nr_schedulable().max(1) as u64;
        let release = self.cpus[cpu.0].pick_round + others;
        self.cpus[cpu.0].skip_release.insert(tid, release);
    }

    /// The effective vruntime of the task currently running on `cpu` at
    /// `now`: its stored vruntime plus the elapsed stint (vruntime is only
    /// materialized at stop). Preemption decisions must use this, not the
    /// stale stored value.
    pub fn curr_effective_vruntime(
        &self,
        tasks: &TaskTable,
        cpu: CpuId,
        now: SimTime,
    ) -> Option<u64> {
        let c = &self.cpus[cpu.0];
        let curr = c.current?;
        let stint = now.saturating_since(c.curr_since);
        Some(
            tasks.vruntime[curr.0]
                .saturating_add(stint * 1024 / tasks.weight[curr.0].max(1) as u64),
        )
    }

    /// Total number of schedulable tasks across all CPUs (used by the VB
    /// auto-disable check in `ksync`).
    pub fn total_schedulable(&self) -> usize {
        self.cpus
            .iter()
            .map(|c| c.rq.nr_schedulable() + usize::from(c.current.is_some()))
            .sum()
    }

    /// The vruntime region boundary for parked tasks (exposed for tests).
    pub fn vb_tail_base() -> u64 {
        VB_TAIL_BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SchedParams;
    use oversub_hw::{MemModel, Topology};
    use oversub_task::{Action, FnProgram, Task};

    fn mk_sched(cpus: usize) -> Scheduler {
        Scheduler::new(
            Topology::flat(cpus),
            SchedParams::default(),
            MemModel::default(),
            true,
        )
    }

    fn mk_tasks(n: usize) -> TaskTable {
        let mut tt = TaskTable::new();
        for i in 0..n {
            tt.push(Task::new(
                TaskId(i),
                Box::new(FnProgram::new("nop", |_| Action::Exit)),
                CpuId(0),
            ));
        }
        tt
    }

    #[test]
    fn enqueue_pick_start_stop_cycle() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(2);
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), now);

        let pick = s.pick_next(&mut tasks, CpuId(0));
        let Pick::Run(t0, false) = pick else {
            panic!("expected run, got {pick:?}")
        };
        let cost = s.start(&mut tasks, CpuId(0), t0, now);
        assert!(cost >= s.params.ctx_switch_ns);
        assert_eq!(tasks.state[t0.0], TaskState::Running);
        assert_eq!(s.cpus[0].current, Some(t0));
        assert!(s.is_active(CpuId(0)));
        assert_eq!(s.active_count(), 1);

        // Run 1ms then get preempted; vruntime advances.
        let later = SimTime::from_millis(1);
        let stopped = s.stop_current(&mut tasks, CpuId(0), later, StopReason::Preempted);
        assert_eq!(stopped, Some(t0));
        assert_eq!(tasks.vruntime[t0.0], 1_000_000);
        assert_eq!(tasks.stats[t0.0].nivcsw, 1);
        assert!(!s.is_active(CpuId(0)));
        assert_eq!(s.active_count(), 0);

        // Next pick is the other task (vruntime 0).
        let Pick::Run(t1, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        assert_ne!(t1, t0);
    }

    #[test]
    fn vanilla_wake_prefers_idle_last_cpu() {
        let mut s = mk_sched(2);
        let mut tasks = mk_tasks(1);
        tasks.last_cpu[0] = CpuId(1);
        tasks.state[0] = TaskState::Sleeping;
        s.ensure_task(TaskId(0));
        let out = s.vanilla_wake(&mut tasks, TaskId(0), CpuId(0), SimTime::ZERO);
        assert_eq!(out.cpu, CpuId(1));
        assert!(out.migrated.is_none());
        assert!(out.preempt, "idle cpu should 'preempt' into running");
        assert!(out.cost_ns > 0);
        assert_eq!(tasks.state[0], TaskState::Runnable);
    }

    #[test]
    fn vanilla_wake_migrates_when_last_cpu_busy() {
        let mut s = mk_sched(2);
        let mut tasks = mk_tasks(3);
        // Make cpu0 busy with task1 running and task2 queued.
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), SimTime::ZERO);
        s.enqueue_new(&mut tasks, TaskId(2), CpuId(0), SimTime::ZERO);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), t, SimTime::ZERO);
        // task0 slept on cpu0; wake should move it to idle cpu1.
        tasks.last_cpu[0] = CpuId(0);
        tasks.state[0] = TaskState::Sleeping;
        tasks.footprint_bytes[0] = 1 << 20;
        let out = s.vanilla_wake(&mut tasks, TaskId(0), CpuId(0), SimTime::ZERO);
        assert_eq!(out.cpu, CpuId(1));
        assert_eq!(out.migrated, Some(false));
        assert_eq!(tasks.stats[0].migrations_local, 1);
        // Migration penalty is pending.
        assert!(s.take_penalty(TaskId(0)) > 0);
    }

    #[test]
    fn bulk_vanilla_wakes_serialize_on_rq_lock() {
        let mut s = mk_sched(1);
        let n = 8;
        let mut tasks = mk_tasks(n);
        for i in 0..n {
            tasks.state[i] = TaskState::Sleeping;
        }
        let now = SimTime::ZERO;
        let costs: Vec<u64> = (0..n)
            .map(|i| s.vanilla_wake(&mut tasks, TaskId(i), CpuId(0), now).cost_ns)
            .collect();
        // Later wakes wait behind earlier rq-lock holders: cost grows.
        assert!(
            costs[n - 1] > costs[0],
            "serialized wakes should cost more: {costs:?}"
        );
    }

    #[test]
    fn vb_park_and_wake_round_trip() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(2);
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), now);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), t, now);
        let later = SimTime::from_micros(100);
        s.stop_current(&mut tasks, CpuId(0), later, StopReason::VirtualBlock);
        assert!(tasks.vb_blocked[t.0]);
        assert_eq!(s.cpus[0].rq.nr_vb_parked(), 1);
        // The parked task is skipped; the other runs.
        let Pick::Run(other, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        assert_ne!(other, t);
        // Wake it: cheap, no migration, stays on cpu0.
        let (cpu, cost, _preempt) = s.vb_wake(&mut tasks, t, later);
        assert_eq!(cpu, CpuId(0));
        assert_eq!(cost, s.params.vb_wake_ns);
        assert!(!tasks.vb_blocked[t.0]);
        assert_eq!(tasks.stats[t.0].migrations_local, 0);
        assert_eq!(s.cpus[0].rq.nr_vb_parked(), 0);
        assert_eq!(s.cpus[0].rq.nr_schedulable(), 2);
    }

    #[test]
    fn vb_poll_when_everyone_parked() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(1);
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), t, now);
        s.stop_current(&mut tasks, CpuId(0), now, StopReason::VirtualBlock);
        assert_eq!(s.pick_next(&mut tasks, CpuId(0)), Pick::VbPoll(t));
    }

    #[test]
    fn bwd_skip_is_released_after_others_run() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(2);
        let now = SimTime::ZERO;
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), now);
        s.enqueue_new(&mut tasks, TaskId(1), CpuId(0), now);
        let Pick::Run(spinner, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), spinner, now);
        // BWD fires on the spinner.
        s.bwd_mark_skip(&mut tasks, CpuId(0), spinner);
        s.stop_current(&mut tasks, CpuId(0), now, StopReason::Preempted);
        // Other task must be picked despite higher/equal vruntime.
        let Pick::Run(other, false) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        assert_ne!(other, spinner);
        s.start(&mut tasks, CpuId(0), other, now);
        s.stop_current(
            &mut tasks,
            CpuId(0),
            SimTime::from_micros(10),
            StopReason::Preempted,
        );
        // After the other ran, the spinner is pickable again (flag cleared
        // on start).
        let pick = s.pick_next(&mut tasks, CpuId(0));
        match pick {
            Pick::Run(t, _) => {
                s.start(&mut tasks, CpuId(0), t, SimTime::from_micros(10));
                assert!(!tasks.bwd_skip[t.0] || t != spinner);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exit_removes_task() {
        let mut s = mk_sched(1);
        let mut tasks = mk_tasks(1);
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(0), SimTime::ZERO);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(0)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(0), t, SimTime::ZERO);
        s.stop_current(&mut tasks, CpuId(0), SimTime::ZERO, StopReason::Exit);
        assert_eq!(tasks.state[0], TaskState::Exited);
        assert_eq!(s.pick_next(&mut tasks, CpuId(0)), Pick::Idle);
    }

    #[test]
    fn pinned_task_wakes_on_pinned_cpu() {
        let mut s = mk_sched(4);
        let mut tasks = mk_tasks(1);
        tasks.pinned[0] = Some(CpuId(3));
        tasks.last_cpu[0] = CpuId(0);
        tasks.state[0] = TaskState::Sleeping;
        s.ensure_task(TaskId(0));
        let out = s.vanilla_wake(&mut tasks, TaskId(0), CpuId(1), SimTime::ZERO);
        assert_eq!(out.cpu, CpuId(3));
    }

    #[test]
    fn smt_factor_reflects_sibling_activity() {
        let topo = Topology::paper_8_hyperthreads();
        let mut s = Scheduler::new(topo, SchedParams::default(), MemModel::default(), false);
        let mut tasks = mk_tasks(1);
        assert_eq!(s.smt_factor(CpuId(0)), 1.0);
        // Busy sibling on cpu1 slows cpu0.
        s.enqueue_new(&mut tasks, TaskId(0), CpuId(1), SimTime::ZERO);
        let Pick::Run(t, _) = s.pick_next(&mut tasks, CpuId(1)) else {
            panic!()
        };
        s.start(&mut tasks, CpuId(1), t, SimTime::ZERO);
        assert!(s.smt_factor(CpuId(0)) < 1.0);
        assert!(s.smt_factor(CpuId(2)) == 1.0);
    }
}
