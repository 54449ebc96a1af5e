//! Time accounting and the engine's per-event handlers: rescheduling,
//! segment completion, slice expiry, wakeup preemption, load balancing,
//! I/O completion, and CPU elasticity.

use super::{Cont, Engine, Event, RunKind, SegEventKind, Tickless, Timer};
use crate::trace::TraceKind;
use oversub_hw::CpuId;
use oversub_simcore::SimTime;
use oversub_task::{TaskId, TaskState};

impl Engine {
    // ---------------------------------------------------------------
    // Accounting
    // ---------------------------------------------------------------

    /// Attribute the span since the CPU's cursor up to `to`, according to
    /// what is running there. Feeds the LBR/PMC window.
    pub(crate) fn account_progress(&mut self, cpu: usize, to: SimTime) {
        debug_assert!(
            self.no_dormant_tick_due(cpu),
            "cpu {cpu}: unsettled idle ticks"
        );
        let cur = self.sched.cpus[cpu].accounted_until;
        if to <= cur {
            return;
        }
        let span = to - cur;
        match self.sched.cpus[cpu].current {
            None => {
                self.sched.cpus[cpu].time.idle_ns += span;
            }
            Some(tid) => match self.run_kind[cpu] {
                RunKind::Useful => {
                    self.sched.cpus[cpu].time.useful_ns += span;
                    self.tasks.stats[tid.0].exec_ns += span;
                    let salt = self.tasks.addr_salt[tid.0];
                    let rates = self.rates;
                    self.sched.cpus[cpu]
                        .hw
                        .note_normal_execution(span, &rates, salt);
                }
                RunKind::Spin(sig) => {
                    self.sched.cpus[cpu].time.spin_ns += span;
                    self.tasks.stats[tid.0].spin_ns += span;
                    let iters = span / sig.iter_ns.max(1);
                    self.sched.cpus[cpu].hw.note_spin(
                        sig.branch_from,
                        sig.branch_to,
                        iters.max(1),
                        sig.instr_per_iter,
                    );
                }
                RunKind::TightLoop(sig) => {
                    // Program work, but with a spin-shaped LBR footprint.
                    self.sched.cpus[cpu].time.useful_ns += span;
                    self.tasks.stats[tid.0].exec_ns += span;
                    let iters = span / sig.iter_ns.max(1);
                    self.sched.cpus[cpu].hw.note_spin(
                        sig.branch_from,
                        sig.branch_to,
                        iters.max(1),
                        sig.instr_per_iter,
                    );
                }
            },
        }
        self.sched.cpus[cpu].accounted_until = to;
    }

    /// Charge kernel time starting at the cursor.
    pub(crate) fn charge_kernel(&mut self, cpu: usize, span: u64) {
        debug_assert!(
            self.no_dormant_tick_due(cpu),
            "cpu {cpu}: unsettled idle ticks"
        );
        self.sched.cpus[cpu].time.kernel_ns += span;
        let cur = self.sched.cpus[cpu].accounted_until;
        self.sched.cpus[cpu].accounted_until = cur + span;
    }

    /// Charge useful (user-space) time starting at the cursor.
    pub(crate) fn charge_useful(&mut self, cpu: usize, span: u64) {
        if span == 0 {
            return;
        }
        self.sched.cpus[cpu].time.useful_ns += span;
        if let Some(tid) = self.sched.cpus[cpu].current {
            self.tasks.stats[tid.0].exec_ns += span;
        }
        let cur = self.sched.cpus[cpu].accounted_until;
        self.sched.cpus[cpu].accounted_until = cur + span;
    }

    // ---------------------------------------------------------------
    // Tickless idle
    // ---------------------------------------------------------------

    /// Ticks of a lapsed timer that fire before the returned time are
    /// due by the event being handled.
    ///
    /// A ticking timer re-arms as its handler's first schedule call, so
    /// the tick at `T` draws its sequence number right after the tick at
    /// `T − I` pops. So an event due at the same `now` as a tick pops
    /// before that tick if and only if it was scheduled at or before
    /// `now − I`. The one case this cannot decide is an event scheduled
    /// at exactly `now − I`; it is placed before the tick (DESIGN.md
    /// §14.4).
    pub(crate) fn tick_horizon(&self, tl: Tickless) -> SimTime {
        if self.queue.popped_scheduled_at() + tl.interval_ns > self.now {
            self.now + 1
        } else {
            self.now
        }
    }

    /// Settle every skipped tick of `cpu` that is due by the event being
    /// handled. Call before touching an idle CPU's cursor.
    pub(crate) fn settle_idle_ticks(&mut self, cpu: usize) {
        if let Some(tl) = self.tickless {
            let horizon = self.tick_horizon(tl);
            self.settle_idle_ticks_before(cpu, horizon);
        }
    }

    /// Account, in closed form, the skipped ticks of `cpu` that fire
    /// before `horizon`; the first later one stays pending.
    pub(crate) fn settle_idle_ticks_before(&mut self, cpu: usize, horizon: SimTime) {
        let Some(tl) = self.tickless else { return };
        let first = self.dormant_at[cpu];
        if first >= horizon {
            return;
        }
        let n = (horizon - first - 1) / tl.interval_ns + 1;
        self.sched.cpus[cpu].account_idle_ticks(first, n, tl.interval_ns, tl.charge_ns);
        self.idle_checks += n;
        self.dormant_at[cpu] = first + n * tl.interval_ns;
    }

    /// Re-arm `cpu`'s lapsed timer at its next cadence point `T*`, keyed
    /// as though the tick at `T* − I` had drawn it, like the ticking
    /// timer. The back-dated key can sort before entries already in the
    /// timer's cadence lane, so the re-arm goes on the heap (DESIGN.md
    /// §14.4). Call once the skipped ticks are settled.
    pub(crate) fn rearm_lapsed_tick(&mut self, cpu: usize) {
        let Some(tl) = self.tickless else { return };
        let next = std::mem::replace(&mut self.dormant_at[cpu], SimTime::NEVER);
        if next == SimTime::NEVER {
            return;
        }
        debug_assert!(
            next >= self.tick_horizon(tl),
            "cpu {cpu}: re-arm before settling"
        );
        let drawn_at = SimTime::from_nanos(next.as_nanos() - tl.interval_ns);
        self.queue
            .schedule_backdated(next, drawn_at, Event::MechTimer(tl.mech, cpu));
    }

    /// True unless `cpu` has a skipped tick due by the event being
    /// handled: its cursor may be touched.
    fn no_dormant_tick_due(&self, cpu: usize) -> bool {
        self.tickless
            .is_none_or(|tl| self.dormant_at[cpu] >= self.tick_horizon(tl))
    }

    // ---------------------------------------------------------------
    // CPU scheduling events
    // ---------------------------------------------------------------

    pub(crate) fn on_resched(&mut self, cpu: usize) {
        if self.sched.cpus[cpu].current.is_some() {
            return; // already busy; preemption is a separate path
        }
        self.settle_idle_ticks(cpu);
        self.account_progress(cpu, self.now);
        if !self.sched.online[cpu] {
            return;
        }
        let mut t = self.now;
        let mut tried_steal_for_skip = false;
        loop {
            let pick = self.sched.pick_next(&mut self.tasks, CpuId(cpu));
            if !self.mechs.is_empty() {
                let released = self.sched.take_skips_released();
                if released > 0 {
                    self.mechs.on_pick(cpu, released);
                }
            }
            match pick {
                oversub_sched::Pick::Run(tid, forced) => {
                    self.trace.record(t, cpu, tid, TraceKind::Run);
                    if forced && !tried_steal_for_skip {
                        // Every schedulable task here is a skip-flagged
                        // spinner. Before burning another detection window
                        // on one of them, try to pull real work from a
                        // busier core (normal idle balancing composed with
                        // BWD's skip flags).
                        tried_steal_for_skip = true;
                        let (mig, cost) = self.sched.idle_pull(&mut self.tasks, CpuId(cpu), t);
                        if let Some(m) = mig {
                            self.trace.record(t, m.to.0, m.task, TraceKind::Migrate);
                            self.charge_kernel(cpu, cost);
                            t += cost;
                            continue;
                        }
                    }
                    let switched = self.sched.cpus[cpu].last_ran != Some(tid);
                    let cost = self.sched.start(&mut self.tasks, CpuId(cpu), tid, t);
                    // Drawn before this handler's other schedule calls,
                    // as the ticking timer's re-arm would have been.
                    self.rearm_lapsed_tick(cpu);
                    self.retire_stint(cpu);
                    self.charge_kernel(cpu, cost);
                    if switched {
                        // LBR state is saved/restored per task (as Linux
                        // does for perf LBR), so the monitoring window
                        // starts clean for the incoming task.
                        self.sched.cpus[cpu].hw.new_window();
                    }
                    let start_t = t + cost;
                    // Arm the stint's slice timer (chaos runs may add an
                    // injected expiry delay).
                    let slice = self.sched.slice_for(CpuId(cpu)) + self.slice_fault_delay();
                    self.arm_timer(cpu, Timer::Slice, start_t + slice);
                    self.sched.cpus[cpu].time.context_switches += 1;
                    self.advance_task(cpu, start_t);
                    return;
                }
                oversub_sched::Pick::VbPoll(_) => {
                    // Semi-idle: parked tasks rotate through flag checks.
                    // The rotation cost is charged lazily when a wake
                    // arrives (see `wake_resched_delay`); the CPU idles.
                    return;
                }
                oversub_sched::Pick::Idle => {
                    // Idle balance: try to steal, and if it succeeds, run
                    // the stolen task *within this event* — deferring to a
                    // later event would let other idle CPUs steal it back
                    // and ping-pong forever.
                    let (mig, cost) = self.sched.idle_pull(&mut self.tasks, CpuId(cpu), t);
                    let Some(m) = mig else {
                        return;
                    };
                    self.trace.record(t, m.to.0, m.task, TraceKind::Migrate);
                    self.charge_kernel(cpu, cost);
                    t += cost;
                }
            }
        }
    }

    pub(crate) fn on_seg_end(&mut self, cpu: usize, epoch: u64) {
        if epoch != self.epochs[cpu].seg {
            return;
        }
        let Some(tid) = self.sched.cpus[cpu].current else {
            return;
        };
        self.account_progress(cpu, self.now);
        match self.seg_event[cpu] {
            SegEventKind::WorkEnd => {
                // The action completed in full.
                self.conts[tid.0] = Cont::Ready;
                self.spin_exit_at[cpu] = None;
                self.advance_task(cpu, self.now);
            }
            SegEventKind::ParkDeadline => {
                // Spin budget exhausted: park on the mutex futex.
                self.park_spinner(cpu, tid, self.now);
            }
            SegEventKind::None => {}
        }
    }

    pub(crate) fn on_slice(&mut self, cpu: usize, epoch: u64) {
        if epoch != self.epochs[cpu].stint {
            return;
        }
        let Some(tid) = self.sched.cpus[cpu].current else {
            return;
        };
        self.account_progress(cpu, self.now);
        if self.sched.cpus[cpu].rq.nr_schedulable() == 0 {
            // Nobody else: extend the stint.
            let slice = self.sched.slice_for(CpuId(cpu)) + self.slice_fault_delay();
            self.arm_timer(cpu, Timer::Slice, self.now + slice);
            return;
        }
        // Preempt: save remaining work, requeue, pick next.
        if !self.mechs.is_empty() {
            self.mechs.on_slice_expiry(cpu, tid);
        }
        self.trace.record(self.now, cpu, tid, TraceKind::Preempt);
        self.save_partial_progress(cpu, tid);
        self.sched.stop_current(
            &mut self.tasks,
            CpuId(cpu),
            self.now,
            oversub_sched::StopReason::Preempted,
        );
        self.retire_stint(cpu);
        self.retire_segment(cpu);
        self.spin_exit_at[cpu] = None;
        self.sched_resched(self.now, cpu);
    }

    pub(crate) fn on_preempt_check(&mut self, cpu: usize) {
        let Some(curr) = self.sched.cpus[cpu].current else {
            self.sched_resched(self.now, cpu);
            return;
        };
        // Only preempt if a schedulable task has materially lower
        // vruntime — CFS's check_preempt_wakeup test against the current
        // task's effective (stint-adjusted) vruntime. Wakeup preemption is
        // immediate (the minimum granularity only guards tick preemption).
        let best = self.sched.cpus[cpu].rq.pick_next(&self.tasks);
        let Some((cand, _)) = best else { return };
        let gran = self.sched.params.wakeup_granularity_ns;
        let cv = self
            .sched
            .curr_effective_vruntime(&self.tasks, CpuId(cpu), self.now)
            .unwrap_or(u64::MAX);
        let _ = curr;
        // A candidate that was just woken and has not run since its wake
        // is always preempt-worthy — the paper's VB explicitly schedules
        // waking threads immediately, mirroring how wakeup preemption
        // favours real sleepers.
        let fresh_wake = self.tasks.wake_requested_at[cand.0].is_some();
        if !fresh_wake && self.tasks.vruntime[cand.0] + gran >= cv {
            return;
        }
        let Some(curr) = self.sched.cpus[cpu].current else {
            return;
        };
        self.account_progress(cpu, self.now);
        self.trace.record(self.now, cpu, curr, TraceKind::Preempt);
        self.save_partial_progress(cpu, curr);
        self.sched.stop_current(
            &mut self.tasks,
            CpuId(cpu),
            self.now,
            oversub_sched::StopReason::Preempted,
        );
        self.retire_stint(cpu);
        self.retire_segment(cpu);
        self.spin_exit_at[cpu] = None;
        self.sched_resched(self.now, cpu);
    }

    pub(crate) fn on_balance(&mut self, cpu: usize) {
        // Re-arm first, as the handler's first schedule call.
        self.queue.schedule_cadenced(
            self.now + self.cfg.sched.balance_interval_ns,
            self.cfg.sched.balance_interval_ns,
            Event::Balance(cpu),
        );
        if !self.sched.online[cpu] {
            return;
        }
        let (migs, cost) = self
            .sched
            .periodic_balance(&mut self.tasks, CpuId(cpu), self.now);
        // Balance runs in softirq context; only charge when idle to keep
        // the running task's segment timing intact (cost is small).
        if self.sched.cpus[cpu].current.is_none() {
            self.settle_idle_ticks(cpu);
            self.account_progress(cpu, self.now);
            self.charge_kernel(cpu, cost);
        } else {
            self.sched.cpus[cpu].time.kernel_ns += cost;
        }
        if !migs.is_empty() && self.sched.cpus[cpu].current.is_none() {
            self.sched_resched(self.now + cost, cpu);
        }
    }

    pub(crate) fn on_io_done(&mut self, task: usize) {
        let tid = TaskId(task);
        if self.tasks.state[task] != TaskState::Sleeping {
            return;
        }
        // Interrupt-context wake: placement logic runs, but the cost is
        // not charged to any task's segment.
        let waker_cpu = self.tasks.last_cpu[task];
        let out = self
            .sched
            .vanilla_wake(&mut self.tasks, tid, waker_cpu, self.now);
        self.sched.cpus[out.cpu.0].time.kernel_ns += out.cost_ns;
        self.trace.record(self.now, out.cpu.0, tid, TraceKind::Wake);
        let t = self.now + out.cost_ns;
        self.sched_resched(t, out.cpu.0);
        if out.preempt && self.sched.cpus[out.cpu.0].current.is_some() {
            self.queue
                .schedule_nocancel(t, Event::PreemptCheck(out.cpu.0));
        }
    }

    pub(crate) fn on_elastic(&mut self, cores: usize) {
        let ncpu = self.sched.topo.num_cpus();
        let cores = cores.min(ncpu).max(1);
        self.sched.set_online_count(cores);
        if !self.mechs.is_empty() {
            self.mechs.on_elastic_change(cores);
        }
        // Drain newly-offline CPUs. A lapsed timer there is re-armed: an
        // offline CPU's ticks are no-ops, which closed-form settling
        // would not know.
        for c in cores..ncpu {
            self.settle_idle_ticks(c);
            self.rearm_lapsed_tick(c);
            self.account_progress(c, self.now);
            if let Some(tid) = self.sched.cpus[c].current {
                self.save_partial_progress(c, tid);
                self.sched.stop_current(
                    &mut self.tasks,
                    CpuId(c),
                    self.now,
                    oversub_sched::StopReason::Preempted,
                );
                self.retire_stint(c);
                self.retire_segment(c);
                self.spin_exit_at[c] = None;
            }
            // Move every queued, unpinned task to an online CPU.
            let queued: Vec<TaskId> = self.sched.cpus[c]
                .rq
                .schedulable_tasks(&self.tasks)
                .collect();
            let parked: Vec<TaskId> = {
                // Collect movable parked tasks by repeatedly dequeuing;
                // tasks pinned to the offline CPU stay stuck, exactly
                // like their runnable siblings (the paper's "pinning
                // cannot adapt" behaviour must not depend on whether a
                // task happened to be parked at shrink time).
                let mut v = Vec::new();
                loop {
                    let movable = {
                        let rq = &self.sched.cpus[c].rq;
                        rq.entries().into_iter().map(|(_, tid)| tid).find(|&tid| {
                            self.tasks.vb_blocked[tid.0]
                                && self.tasks.pinned[tid.0] != Some(CpuId(c))
                        })
                    };
                    match movable {
                        Some(p) => {
                            self.sched.cpus[c].rq.dequeue(&self.tasks, p);
                            v.push(p);
                        }
                        None => break,
                    }
                }
                v
            };
            let mut target = 0usize;
            for tid in queued {
                if self.tasks.pinned[tid.0] == Some(CpuId(c)) {
                    continue; // stuck — the paper's "pinning crashes" case
                }
                self.sched.cpus[c].rq.dequeue(&self.tasks, tid);
                let dest = target % cores;
                target += 1;
                self.tasks.last_cpu[tid.0] = CpuId(dest);
                self.sched.cpus[dest].rq.enqueue(&self.tasks, tid);
            }
            for tid in parked {
                let dest = target % cores;
                target += 1;
                self.tasks.last_cpu[tid.0] = CpuId(dest);
                self.sched.cpus[dest].rq.enqueue(&self.tasks, tid);
            }
        }
        for c in 0..cores {
            self.sched_resched(self.now, c);
        }
    }
}
