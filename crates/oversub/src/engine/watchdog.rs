//! The chaos tick and the liveness watchdog.
//!
//! `on_fault_tick` is the periodic driver for the injected faults that
//! need their own clock: spurious wakeups of parked waiters and elastic
//! revocation storms. `on_watchdog` is the defence — a periodic invariant
//! sweep that detects lost-wakeup orphans (and rescues them, degrading VB
//! to a real wake), per-task starvation, runqueue/waiter-board
//! inconsistencies, and global no-progress hangs. Violations become
//! structured [`Diagnostic`]s in the report; the only one that stops the
//! run is a confirmed hang.

use super::{Cont, Engine, Event};
use crate::trace::TraceKind;
use oversub_ksync::WaitMode;
use oversub_metrics::Diagnostic;
use oversub_task::{TaskId, TaskState};

impl Engine {
    /// Record a structured finding, bounded by the watchdog's cap (the
    /// first violations matter; a pathological run must not allocate
    /// without bound).
    pub(crate) fn push_diagnostic(
        &mut self,
        kind: &str,
        task: Option<usize>,
        cpu: Option<usize>,
        detail: String,
    ) {
        let cap = self.watchdog.map_or(64, |w| w.max_diagnostics);
        if self.diagnostics.len() >= cap {
            return;
        }
        self.diagnostics.push(Diagnostic {
            kind: kind.to_string(),
            at_ns: self.now.as_nanos(),
            task,
            cpu,
            detail,
        });
    }

    /// Fault-arming helper: extra delay for the next slice event.
    pub(crate) fn slice_fault_delay(&mut self) -> u64 {
        self.faults.as_mut().map_or(0, |f| f.slice_delay())
    }

    /// The periodic fault tick: spurious wakeups and revocation storms.
    pub(crate) fn on_fault_tick(&mut self) {
        let Some(interval) = self.faults.as_ref().map(|f| f.plan.tick_interval_ns) else {
            return;
        };
        self.queue
            .schedule_cadenced(self.now + interval, interval, Event::FaultTick);

        // Spurious wakeup: wake one VB-parked futex waiter that nobody
        // signalled. POSIX allows this; a correct waiter re-checks its
        // predicate and re-parks, so the engine must survive it.
        if self.faults.as_mut().is_some_and(|f| f.spurious_wakeup()) {
            let victims = self.futex.blocked_tasks(WaitMode::Virtual);
            if !victims.is_empty() {
                let pick = self
                    .faults
                    .as_mut()
                    .map_or(0, |f| f.pick_victim(victims.len()));
                let tid = victims[pick];
                let cpu = self.tasks.last_cpu[tid.0];
                if let Some(report) =
                    self.futex
                        .futex_wake_task(&mut self.sched, &mut self.tasks, tid, cpu, self.now)
                {
                    // Interrupt-context wake: the cost lands on the CPU,
                    // not on any task's segment (like `on_io_done`).
                    self.sched.cpus[cpu.0].time.kernel_ns += report.waker_cost_ns;
                    if let Some(f) = self.faults.as_mut() {
                        f.note_spurious_delivered();
                    }
                    let done = self.now + report.waker_cost_ns;
                    self.post_wake_events(&report.woken, done);
                }
            }
        }

        // Revocation storm: yank the online core count.
        let ncpu = self.sched.topo.num_cpus();
        if let Some(cores) = self.faults.as_mut().and_then(|f| f.storm_cores(ncpu)) {
            self.on_elastic(cores);
        }
    }

    /// The liveness watchdog sweep.
    pub(crate) fn on_watchdog(&mut self) {
        let Some(wd) = self.watchdog else { return };
        // Re-arm first, as the handler's first schedule call.
        self.queue.schedule_cadenced(
            self.now + wd.check_interval_ns,
            wd.check_interval_ns,
            Event::Watchdog,
        );

        // 1. Lost-wakeup orphans: a VB-parked task whose park has aged past
        //    the timeout and that no futex/epoll waker still points at can
        //    never be woken by the workload — rescue it with a real wake
        //    (VB gracefully degrades to blocking semantics for that task).
        for i in 0..self.vb_park_since.len() {
            let Some(parked_at) = self.vb_park_since[i] else {
                continue;
            };
            if self.now.saturating_since(parked_at) <= wd.park_timeout_ns {
                continue;
            }
            let tid = TaskId(i);
            if !self.tasks.vb_blocked[i] || !matches!(self.conts[i], Cont::Blocked(_)) {
                continue;
            }
            if self.futex.is_blocked(tid) || self.epoll.is_waiter(tid) {
                continue; // a waker is still registered: park is healthy
            }
            let (cpu, cost, preempt) = self.sched.vb_wake(&mut self.tasks, tid, self.now);
            self.sched.cpus[cpu.0].time.kernel_ns += cost;
            self.vb_park_since[i] = None;
            if !self.mechs.is_empty() {
                self.mechs.on_watchdog_recovery(tid);
            }
            self.push_diagnostic(
                "lost-wakeup-rescue",
                Some(i),
                Some(cpu.0),
                format!(
                    "task {i} VB-parked since {parked_at} with no pending waker; woken by watchdog"
                ),
            );
            self.trace.record(self.now, cpu.0, tid, TraceKind::Wake);
            let done = self.now + cost;
            self.sched_resched(done, cpu.0);
            if preempt && self.sched.cpus[cpu.0].current.is_some() {
                self.queue
                    .schedule_nocancel(done, Event::PreemptCheck(cpu.0));
            }
        }

        // 2. Starvation: a schedulable task waiting longer than the bound.
        //    Reported once per task — a diagnosis, not a failure.
        for i in 0..self.starvation_reported.len() {
            if self.starvation_reported[i] {
                continue;
            }
            if self.tasks.state[i] != TaskState::Runnable || self.tasks.vb_blocked[i] {
                continue;
            }
            let waited = self.now.saturating_since(self.tasks.runnable_since[i]);
            if waited > wd.starvation_bound_ns {
                self.starvation_reported[i] = true;
                let bound = wd.starvation_bound_ns;
                self.push_diagnostic(
                    "starvation",
                    Some(i),
                    None,
                    format!("task {i} runnable but off-CPU for {waited} ns (bound {bound} ns)"),
                );
            }
        }

        // 3. Runqueue and waiter-board consistency.
        if let Some(msg) = self.audit_rqs_check() {
            self.push_diagnostic("rq-inconsistency", None, None, msg);
        }
        if let Some(msg) = self.sched.audit_waiter_board() {
            self.push_diagnostic("waiter-board-mismatch", None, None, msg);
        }

        // 4. Global no-progress hang: if no task accumulated execution,
        //    spin time, or a context switch for the whole timeout, nothing
        //    will ever move again — halt with a diagnostic instead of
        //    burning the event budget.
        let progress = self
            .tasks
            .stats
            .iter()
            .map(|s| s.exec_ns + s.spin_ns + s.nvcsw + s.nivcsw)
            .sum::<u64>();
        if progress != self.last_progress.0 {
            self.last_progress = (progress, self.now);
        } else if self.live > 0
            && self.now.saturating_since(self.last_progress.1) > wd.hang_timeout_ns
        {
            let since = self.last_progress.1;
            let live = self.live;
            let mut msg =
                format!("no task progress since {since} with {live} tasks live; halting run");
            // Lockdep cause attribution: name what every blocked task is
            // waiting on and who (if anybody) holds it. A wait on a lock
            // held by nobody is the lost-wakeup signature; mutual holds
            // are a deadlock (reported separately as `deadlock-cycle`).
            if let Some(ld) = &self.lockdep {
                let lines = ld.wait_summary();
                if !lines.is_empty() {
                    msg.push_str("; wait-for: ");
                    msg.push_str(&lines.join("; "));
                }
            }
            self.push_diagnostic("no-progress", None, None, msg);
            self.halted = true;
        }
    }
}
