//! Segment bookkeeping and the mechanism-driven deschedule paths: the
//! periodic monitoring timer ([`Engine::on_mech_timer`], BWD's home) and
//! the armed spin exit ([`Engine::on_spin_exit`], PLE's home).

use super::{Cont, Engine, Event, RunKind, SegEventKind, Timer};
use crate::mechanism::TimerCtx;
use crate::trace::TraceKind;
use oversub_hw::CpuId;
use oversub_simcore::SimTime;
use oversub_task::{SpinSig, TaskId};

impl Engine {
    /// A mechanism's periodic monitoring timer fired on `cpu`. The
    /// mechanism inspects the core's monitoring window and returns a
    /// verdict; the engine applies it (charging the check cost, shifting
    /// the interrupted segment, and descheduling with or without the skip
    /// flag).
    pub(crate) fn on_mech_timer(&mut self, idx: usize, cpu: usize) {
        let Some(interval_ns) = self.timer_intervals[idx] else {
            return;
        };
        // Tickless idle: a tick on an online core with nothing running and
        // an untouched monitoring window costs the mechanism's constant
        // charge and one check, and until a task starts here every later
        // tick would too. So the timer lapses instead of re-arming, and
        // the skipped ticks are settled when the CPU is next touched. A
        // residual window (a descheduled task's traces) takes the full
        // path below.
        if let Some(tl) = self.tickless {
            if self.sched.online[cpu]
                && !self.sched.is_active(CpuId(cpu))
                && self.sched.cpus[cpu].hw.window_untouched()
            {
                self.idle_checks += 1;
                self.sched.cpus[cpu].account_idle_ticks(self.now, 1, interval_ns, tl.charge_ns);
                self.dormant_at[cpu] = self.now + interval_ns;
                return;
            }
        }
        // Re-arm first, as the handler's first schedule call, so
        // detection handling cannot drop the timer and the tick at `T`
        // draws its sequence number right after the tick at `T − I`
        // pops (tickless idle's tie rule relies on it). An injected drop
        // still re-arms (the interrupt is lost, not the timer); injected
        // jitter perturbs the re-arm point.
        let mut rearm_at = self.now + interval_ns;
        let mut dropped = false;
        if let Some(f) = self.faults.as_mut() {
            dropped = f.drop_timer();
            if !dropped {
                rearm_at += f.timer_jitter();
            }
        }
        self.queue
            .schedule_cadenced(rearm_at, interval_ns, Event::MechTimer(idx, cpu));
        if dropped {
            return;
        }
        if !self.sched.online[cpu] {
            return;
        }
        self.account_progress(cpu, self.now);
        let had_current = self.sched.cpus[cpu].current;
        let real_spin = matches!(self.run_kind[cpu], RunKind::Spin(_));
        let sensor_flip = self.faults.as_mut().is_some_and(|f| f.flip_sensor());
        let verdict = {
            let mechs = &mut self.mechs;
            let mut ctx = TimerCtx {
                cpu,
                now: self.now,
                hw: &mut self.sched.cpus[cpu].hw,
                has_current: had_current.is_some(),
                real_spin,
                sensor_flip,
            };
            mechs.get_mut(idx).on_timer(&mut ctx)
        };
        // The timer interrupt itself steals a little time from the task.
        if had_current.is_some() {
            self.shift_segment(cpu, verdict.charge_ns);
        }
        self.charge_kernel(cpu, verdict.charge_ns);

        if !verdict.deschedule {
            return;
        }
        let Some(tid) = had_current else { return };
        // Deschedule, with the skip flag when the verdict asks for it.
        let t = self.sched.cpus[cpu].accounted_until;
        self.trace.record(t, cpu, tid, TraceKind::BwdDeschedule);
        self.save_partial_progress(cpu, tid);
        if verdict.set_skip {
            self.sched.bwd_mark_skip(&mut self.tasks, CpuId(cpu), tid);
        }
        self.sched.stop_current(
            &mut self.tasks,
            CpuId(cpu),
            t,
            oversub_sched::StopReason::Preempted,
        );
        self.retire_stint(cpu);
        self.retire_segment(cpu);
        self.spin_exit_at[cpu] = None;
        self.sched_resched(t, cpu);
    }

    /// The spin exit a mechanism armed at segment start fired while the
    /// task is still busy-waiting: charge the exit cost and deschedule.
    /// For PLE this is the VM exit + directed yield — the spinner is
    /// descheduled but (per the verdict) gets no skip flag, CFS will bring
    /// it back soon, and the mechanism's adaptive window doubles so future
    /// exits get rarer. This is why PLE barely helps.
    pub(crate) fn on_spin_exit(&mut self, cpu: usize, epoch: u64) {
        if epoch != self.epochs[cpu].seg {
            return;
        }
        let Some(tid) = self.sched.cpus[cpu].current else {
            return;
        };
        if !matches!(self.run_kind[cpu], RunKind::Spin(_)) {
            return;
        }
        let Some((_, idx)) = self.spin_exit_at[cpu] else {
            return;
        };
        self.account_progress(cpu, self.now);
        let verdict = self.mechs.get_mut(idx).on_spin_exit(cpu, tid);
        self.charge_kernel(cpu, verdict.charge_ns);
        self.trace.record(self.now, cpu, tid, TraceKind::PleExit);
        let t = self.now + verdict.charge_ns;
        self.save_partial_progress(cpu, tid);
        if verdict.set_skip {
            self.sched.bwd_mark_skip(&mut self.tasks, CpuId(cpu), tid);
        }
        self.sched.stop_current(
            &mut self.tasks,
            CpuId(cpu),
            t,
            oversub_sched::StopReason::Preempted,
        );
        self.retire_stint(cpu);
        self.retire_segment(cpu);
        self.spin_exit_at[cpu] = None;
        self.sched_resched(t, cpu);
    }

    // ---------------------------------------------------------------
    // Segment helpers
    // ---------------------------------------------------------------

    /// Record how much of the current segment's work remains, updating the
    /// task's continuation. Call after `account_progress` and before
    /// `stop_current`.
    pub(crate) fn save_partial_progress(&mut self, cpu: usize, tid: TaskId) {
        let t = self.sched.cpus[cpu].accounted_until;
        match self.conts[tid.0] {
            Cont::Work { action, .. } => {
                let remaining_scaled = self.seg_done_at[cpu].saturating_since(t);
                let left = (remaining_scaled as f64 * self.seg_rate[cpu]) as u64;
                self.conts[tid.0] = Cont::Work {
                    action,
                    left_ns: left,
                };
            }
            Cont::SpinLock {
                lock,
                is_mutex,
                sig,
                budget_left,
            } if budget_left.is_some() => {
                let left = self.seg_done_at[cpu].saturating_since(t);
                self.conts[tid.0] = Cont::SpinLock {
                    lock,
                    is_mutex,
                    sig,
                    budget_left: Some(left),
                };
            }
            _ => {}
        }
    }

    /// Push the current segment's end (and any armed spin exit) `delta`
    /// nanoseconds into the future — used when timer interrupts steal time
    /// from the running task.
    pub(crate) fn shift_segment(&mut self, cpu: usize, delta: u64) {
        if self.sched.cpus[cpu].current.is_none() {
            return;
        }
        self.retire_segment(cpu);
        self.seg_done_at[cpu] += delta;
        match self.seg_event[cpu] {
            SegEventKind::WorkEnd | SegEventKind::ParkDeadline => {
                self.arm_timer(cpu, Timer::SegEnd, self.seg_done_at[cpu]);
            }
            SegEventKind::None => {}
        }
        if let Some((p, idx)) = self.spin_exit_at[cpu] {
            let np = p + delta;
            self.spin_exit_at[cpu] = Some((np, idx));
            self.arm_timer(cpu, Timer::SpinExit, np);
        }
    }

    // ---------------------------------------------------------------
    // Segment scheduling
    // ---------------------------------------------------------------

    pub(crate) fn begin_work_segment(&mut self, cpu: usize, tid: TaskId, t: SimTime) {
        self.begin_work_segment_kind(cpu, tid, t, RunKind::Useful);
    }

    pub(crate) fn begin_work_segment_kind(
        &mut self,
        cpu: usize,
        tid: TaskId,
        t: SimTime,
        kind: RunKind,
    ) {
        let Cont::Work { left_ns, .. } = self.conts[tid.0] else {
            // A work segment can only be begun for a task holding a Work
            // continuation; record the inconsistency and skip the segment
            // rather than tearing the run down.
            debug_assert!(false, "work segment without Work cont");
            self.push_diagnostic(
                "cont-mismatch",
                Some(tid.0),
                Some(cpu),
                format!(
                    "work segment requested with {:?} continuation",
                    self.conts[tid.0]
                ),
            );
            return;
        };
        let rate = self.sched.smt_factor(CpuId(cpu));
        let scaled = (left_ns as f64 / rate).ceil() as u64;
        self.retire_segment(cpu);
        self.seg_rate[cpu] = rate;
        self.run_kind[cpu] = kind;
        self.seg_done_at[cpu] = t + scaled.max(1);
        self.seg_event[cpu] = SegEventKind::WorkEnd;
        self.spin_exit_at[cpu] = None;
        self.arm_timer(cpu, Timer::SegEnd, self.seg_done_at[cpu]);
    }

    pub(crate) fn begin_spin_segment(
        &mut self,
        cpu: usize,
        tid: TaskId,
        sig: SpinSig,
        budget: Option<u64>,
        t: SimTime,
    ) {
        self.retire_segment(cpu);
        self.seg_rate[cpu] = 1.0;
        self.run_kind[cpu] = RunKind::Spin(sig);
        match budget {
            Some(b) => {
                self.seg_done_at[cpu] = t + b.max(1);
                self.seg_event[cpu] = SegEventKind::ParkDeadline;
                self.arm_timer(cpu, Timer::SegEnd, self.seg_done_at[cpu]);
            }
            None => {
                self.seg_done_at[cpu] = SimTime::NEVER;
                self.seg_event[cpu] = SegEventKind::None;
            }
        }
        // Offer the segment to the pipeline; the first mechanism that can
        // see this loop (PLE's visibility rules) arms a spin exit.
        let armed = if self.mechs.is_empty() {
            None
        } else {
            self.mechs.arm_spin_exit(cpu, tid, &sig, self.cfg.env, t)
        };
        match armed {
            Some((at, idx)) => {
                self.spin_exit_at[cpu] = Some((at, idx));
                self.arm_timer(cpu, Timer::SpinExit, at);
            }
            None => {
                self.spin_exit_at[cpu] = None;
            }
        }
    }
}
