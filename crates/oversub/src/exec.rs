//! Action execution: drives a task's program through its actions,
//! interpreting synchronization effects against the futex/epoll substrate
//! and the lock state machines.
//!
//! The blocking wrappers and cross-CPU grant paths these handlers lean on
//! live in `engine::blocking`; segment arming lives in `engine::spin`.

use crate::engine::{Cont, Engine, Event, Resume, RunKind};
use crate::race::Chan;
use oversub_hw::CpuId;
use oversub_locks::{BarrierEffect, LockKey, MutexAcquire, MutexRelease, SemEffect, SpinEffect};
use oversub_simcore::SimTime;
use oversub_task::{Action, LockId, ProgCtx, SpinSig, SyncOp, TaskId};

/// Flow control for the inner action loop.
enum Flow {
    /// Keep processing actions at the (possibly advanced) time.
    Continue(SimTime),
    /// The task left the CPU or started a timed segment; stop the loop.
    Break,
}

impl Engine {
    /// NUMA node index of a CPU.
    fn node_of(&self, cpu: usize) -> usize {
        self.sched.topo.node_of(CpuId(cpu)).0
    }

    /// Process the current task on `cpu` starting at `t` until it blocks,
    /// yields, exits, or begins a timed segment.
    ///
    /// Invariant on entry: `accounted_until == t` for this CPU.
    pub(crate) fn advance_task(&mut self, cpu: usize, mut t: SimTime) {
        loop {
            let Some(tid) = self.sched.cpus[cpu].current else {
                return;
            };
            let cont = self.conts[tid.0];
            let flow = match cont {
                Cont::Ready => {
                    let action = {
                        let mut ctx = ProgCtx {
                            task: tid,
                            now: t,
                            rng: &mut self.rngs[tid.0],
                        };
                        self.tasks.programs[tid.0].next(&mut ctx)
                    };
                    self.start_action(cpu, tid, action, t)
                }
                Cont::Work { .. } => {
                    self.begin_work_segment(cpu, tid, t);
                    Flow::Break
                }
                Cont::SpinLock {
                    lock,
                    is_mutex,
                    sig,
                    budget_left,
                } => self.resume_lock_spin(cpu, tid, lock, is_mutex, sig, budget_left, t),
                Cont::SpinFlag {
                    flag,
                    while_eq,
                    sig,
                } => {
                    if self.sync.flag_get(flag) != while_eq {
                        self.rc_flag_load(tid, flag, t);
                        self.conts[tid.0] = Cont::Ready;
                        Flow::Continue(t)
                    } else {
                        self.begin_spin_segment(cpu, tid, sig, None, t);
                        Flow::Break
                    }
                }
                Cont::Blocked(resume) => self.handle_resume(cpu, tid, resume, t),
                Cont::Done => return,
            };
            match flow {
                Flow::Continue(nt) => t = nt,
                Flow::Break => return,
            }
        }
    }

    // -----------------------------------------------------------------
    // Resumption after kernel blocking
    // -----------------------------------------------------------------

    fn handle_resume(&mut self, cpu: usize, tid: TaskId, resume: Resume, t: SimTime) -> Flow {
        match resume {
            Resume::Simple | Resume::Io => {
                self.conts[tid.0] = Cont::Ready;
                Flow::Continue(t)
            }
            Resume::SemAcquired(s) => {
                // The post handed this waiter its token along with the wake.
                self.ld_acquired(tid, LockKey::sem(s.0), t);
                self.conts[tid.0] = Cont::Ready;
                Flow::Continue(t)
            }
            Resume::EpollReady(ep) => {
                self.epoll.take_pending(ep);
                self.conts[tid.0] = Cont::Ready;
                Flow::Continue(t)
            }
            Resume::MutexRetry(l) | Resume::CondReacquire(l) => {
                self.sync.mutexes[l.0].note_wake_retry(tid);
                self.acquire_mutex(cpu, tid, l, t)
            }
        }
    }

    // -----------------------------------------------------------------
    // Actions
    // -----------------------------------------------------------------

    fn start_action(&mut self, cpu: usize, tid: TaskId, action: Action, t: SimTime) -> Flow {
        match action {
            Action::Compute { ns } => {
                self.conts[tid.0] = Cont::Work {
                    action,
                    left_ns: ns,
                };
                self.begin_work_segment(cpu, tid, t);
                Flow::Break
            }
            Action::MemTraversal {
                pattern,
                ws_bytes,
                elems,
            } => {
                let out = self.mem.traversal(pattern, ws_bytes, elems);
                self.tasks.footprint_bytes[tid.0] = ws_bytes;
                self.tasks.random_access[tid.0] = !pattern.is_sequential();
                self.conts[tid.0] = Cont::Work {
                    action,
                    left_ns: out.ns.max(1),
                };
                self.begin_work_segment(cpu, tid, t);
                Flow::Break
            }
            Action::TightLoop { ns, sig } => {
                self.conts[tid.0] = Cont::Work {
                    action,
                    left_ns: ns,
                };
                self.begin_work_segment_kind(cpu, tid, t, RunKind::TightLoop(sig));
                Flow::Break
            }
            Action::AtomicRmw { line: _ } => {
                // Cost grows with the number of cores actively hitting the
                // line — bounded by active cores, not thread count (§2.3).
                let busy = self.sched.active_count().max(1);
                let cost = 20 + 35 * (busy as u64 - 1).min(16);
                self.charge_useful(cpu, cost);
                Flow::Continue(t + cost)
            }
            Action::Yield => {
                self.sched.stop_current(
                    &mut self.tasks,
                    CpuId(cpu),
                    t,
                    oversub_sched::StopReason::Yielded,
                );
                self.retire_stint(cpu);
                self.retire_segment(cpu);
                self.spin_exit_at[cpu] = None;
                self.sched_resched(t, cpu);
                Flow::Break
            }
            Action::IoWait { ns } => {
                let syscall = self.sched.params.syscall_entry_ns;
                self.charge_kernel(cpu, syscall);
                self.sched.stop_current(
                    &mut self.tasks,
                    CpuId(cpu),
                    t + syscall,
                    oversub_sched::StopReason::Sleep,
                );
                self.conts[tid.0] = Cont::Blocked(Resume::Io);
                self.retire_stint(cpu);
                self.retire_segment(cpu);
                self.spin_exit_at[cpu] = None;
                self.queue
                    .schedule_nocancel(t + syscall + ns, Event::IoDone(tid.0));
                self.sched_resched(t + syscall, cpu);
                Flow::Break
            }
            Action::Exit => {
                self.sched.stop_current(
                    &mut self.tasks,
                    CpuId(cpu),
                    t,
                    oversub_sched::StopReason::Exit,
                );
                self.conts[tid.0] = Cont::Done;
                self.live -= 1;
                self.last_exit = self.last_exit.max_of(t);
                self.retire_stint(cpu);
                self.retire_segment(cpu);
                self.spin_exit_at[cpu] = None;
                self.sched_resched(t, cpu);
                Flow::Break
            }
            Action::Sync(op) => self.handle_sync(cpu, tid, op, t),
        }
    }

    fn handle_sync(&mut self, cpu: usize, tid: TaskId, op: SyncOp, t: SimTime) -> Flow {
        match op {
            SyncOp::MutexLock(l) => self.acquire_mutex(cpu, tid, l, t),
            SyncOp::MutexUnlock(l) => {
                let node = self.node_of(cpu);
                self.ld_release(tid, LockKey::mutex(l.0));
                let (cost, rel) = self.sync.mutexes[l.0].release(tid, node);
                self.charge_useful(cpu, cost);
                let mut t2 = t + cost;
                match rel {
                    MutexRelease::None => {}
                    MutexRelease::GrantSpinner(w) => self.deliver_grant(w, true, l, t2),
                    MutexRelease::WakeParked { futex } => {
                        t2 = t2 + self.do_futex_wake(cpu, futex, 1, t2);
                    }
                }
                Flow::Continue(t2)
            }
            SyncOp::BarrierWait(b) => match self.sync.barriers[b.0].arrive() {
                BarrierEffect::Wait { futex } => {
                    self.do_futex_wait(cpu, tid, futex, Resume::Simple, t);
                    Flow::Break
                }
                BarrierEffect::ReleaseAll { futex, wake_n } => {
                    let cost = self.do_futex_wake(cpu, futex, wake_n, t);
                    // The releasing arriver also happens-after every
                    // earlier arriver (they published into the channel
                    // before parking).
                    self.rc_acquire_chan(tid, Chan::Futex(futex.0));
                    Flow::Continue(t + cost)
                }
            },
            SyncOp::CondWait { cond, mutex } => {
                // Atomically (in engine terms) unlock the mutex and sleep.
                let node = self.node_of(cpu);
                self.ld_release(tid, LockKey::mutex(mutex.0));
                let (cost, rel) = self.sync.mutexes[mutex.0].release(tid, node);
                self.charge_useful(cpu, cost);
                let mut t2 = t + cost;
                match rel {
                    MutexRelease::None => {}
                    MutexRelease::GrantSpinner(w) => self.deliver_grant(w, true, mutex, t2),
                    MutexRelease::WakeParked { futex } => {
                        t2 = t2 + self.do_futex_wake(cpu, futex, 1, t2);
                    }
                }
                let key = self.sync.condvars[cond.0].wait();
                self.do_futex_wait(cpu, tid, key, Resume::CondReacquire(mutex), t2);
                Flow::Break
            }
            SyncOp::CondSignal(c) => {
                let (key, n) = self.sync.condvars[c.0].signal();
                let cost = if n > 0 {
                    self.do_futex_wake(cpu, key, n, t)
                } else {
                    0
                };
                Flow::Continue(t + cost)
            }
            SyncOp::CondBroadcast(c) => {
                let (key, n) = self.sync.condvars[c.0].broadcast();
                let cost = if n > 0 {
                    self.do_futex_wake(cpu, key, n, t)
                } else {
                    0
                };
                Flow::Continue(t + cost)
            }
            SyncOp::SemWait(s) => {
                self.ld_attempt(tid, LockKey::sem(s.0), t);
                match self.sync.sems[s.0].wait() {
                    SemEffect::Acquired => {
                        self.ld_acquired(tid, LockKey::sem(s.0), t);
                        self.charge_useful(cpu, 20);
                        Flow::Continue(t + 20)
                    }
                    SemEffect::Wait { futex } => {
                        self.ld_wait(tid, LockKey::sem(s.0), t);
                        self.do_futex_wait(cpu, tid, futex, Resume::SemAcquired(s), t);
                        Flow::Break
                    }
                }
            }
            SyncOp::SemPost(s) => {
                self.ld_release(tid, LockKey::sem(s.0));
                let wake = self.sync.sems[s.0].post();
                self.charge_useful(cpu, 20);
                let mut t2 = t + 20;
                if let Some((key, n)) = wake {
                    t2 = t2 + self.do_futex_wake(cpu, key, n, t2);
                }
                Flow::Continue(t2)
            }
            SyncOp::SpinAcquire(l) => {
                let node = self.node_of(cpu);
                self.ld_attempt(tid, LockKey::spin(l.0), t);
                match self.sync.spinlocks[l.0].acquire(tid, node) {
                    SpinEffect::Acquired { cost_ns } => {
                        self.ld_acquired(tid, LockKey::spin(l.0), t);
                        self.charge_useful(cpu, cost_ns);
                        Flow::Continue(t + cost_ns)
                    }
                    SpinEffect::MustSpin { sig } => {
                        self.ld_wait(tid, LockKey::spin(l.0), t);
                        self.spin_episodes += 1;
                        self.conts[tid.0] = Cont::SpinLock {
                            lock: l,
                            is_mutex: false,
                            sig,
                            budget_left: None,
                        };
                        self.begin_spin_segment(cpu, tid, sig, None, t);
                        Flow::Break
                    }
                }
            }
            SyncOp::SpinRelease(l) => {
                let node = self.node_of(cpu);
                self.ld_release(tid, LockKey::spin(l.0));
                let (cost, granted) = self.sync.spinlocks[l.0].release(tid, node);
                self.charge_useful(cpu, cost);
                let t2 = t + cost;
                match granted {
                    Some(w) => self.deliver_grant(w, false, l, t2),
                    None => self.barge_check(l, t2),
                }
                Flow::Continue(t2)
            }
            SyncOp::FlagSpinWhileEq {
                flag,
                while_eq,
                sig,
            } => {
                self.rc_flag_load(tid, flag, t);
                if self.sync.flag_spin_begin(flag, tid, while_eq) {
                    Flow::Continue(t)
                } else {
                    self.spin_episodes += 1;
                    self.conts[tid.0] = Cont::SpinFlag {
                        flag,
                        while_eq,
                        sig,
                    };
                    self.begin_spin_segment(cpu, tid, sig, None, t);
                    Flow::Break
                }
            }
            SyncOp::FlagSet { flag, value } => {
                self.rc_flag_store(tid, flag, value, t);
                let released = self.sync.flag_set(flag, value);
                self.charge_useful(cpu, 15);
                let t2 = t + 15;
                for w in released {
                    // The released spinner's satisfied load: an acquire
                    // on a sync flag, a race-checked read on a plain one.
                    self.rc_flag_load(w, flag, t2);
                    self.release_flag_spinner(w, t2);
                }
                Flow::Continue(t2)
            }
            SyncOp::EpollWait(ep) => {
                use oversub_ksync::EpollWaitResult;
                match self.epoll.epoll_wait(
                    &mut self.sched,
                    &mut self.tasks,
                    tid,
                    ep,
                    CpuId(cpu),
                    t,
                ) {
                    EpollWaitResult::Ready { events: _, cost_ns } => {
                        self.rc_acquire_chan(tid, Chan::Epoll(ep.0));
                        self.charge_kernel(cpu, cost_ns);
                        Flow::Continue(t + cost_ns)
                    }
                    EpollWaitResult::Blocked(out) => {
                        self.rc_release_chan(tid, Chan::Epoll(ep.0));
                        if !self.mechs.is_empty() {
                            self.mechs.on_block(cpu, tid, out.mode);
                        }
                        self.charge_kernel(cpu, out.cost_ns);
                        self.conts[tid.0] = Cont::Blocked(Resume::EpollReady(ep));
                        if out.mode == oversub_ksync::WaitMode::Virtual {
                            if let Some(s) = self.vb_park_since.get_mut(tid.0) {
                                *s = Some(t);
                            }
                        }
                        self.retire_stint(cpu);
                        self.retire_segment(cpu);
                        self.spin_exit_at[cpu] = None;
                        self.sched_resched(t + out.cost_ns, cpu);
                        Flow::Break
                    }
                }
            }
            SyncOp::EpollPost(ep, n) => {
                let report =
                    self.epoll
                        .epoll_post(&mut self.sched, &mut self.tasks, ep, n, CpuId(cpu), t);
                self.rc_epoll_post(tid, ep, &report.woken);
                self.charge_kernel(cpu, report.waker_cost_ns);
                let done = t + report.waker_cost_ns;
                self.post_wake_events(&report.woken, done);
                Flow::Continue(done)
            }
        }
    }

    // -----------------------------------------------------------------
    // Mutexes
    // -----------------------------------------------------------------

    fn acquire_mutex(&mut self, cpu: usize, tid: TaskId, l: LockId, t: SimTime) -> Flow {
        let node = self.node_of(cpu);
        self.ld_attempt(tid, LockKey::mutex(l.0), t);
        match self.sync.mutexes[l.0].acquire(tid, node) {
            MutexAcquire::Acquired { cost_ns } => {
                self.ld_acquired(tid, LockKey::mutex(l.0), t);
                self.charge_useful(cpu, cost_ns);
                self.conts[tid.0] = Cont::Ready;
                Flow::Continue(t + cost_ns)
            }
            MutexAcquire::Park { futex } => {
                self.ld_wait(tid, LockKey::mutex(l.0), t);
                self.do_futex_wait(cpu, tid, futex, Resume::MutexRetry(l), t);
                Flow::Break
            }
            MutexAcquire::SpinThenPark {
                sig,
                spin_ns,
                futex: _,
            } => {
                self.ld_wait(tid, LockKey::mutex(l.0), t);
                self.spin_episodes += 1;
                self.conts[tid.0] = Cont::SpinLock {
                    lock: l,
                    is_mutex: true,
                    sig,
                    budget_left: Some(spin_ns),
                };
                self.begin_spin_segment(cpu, tid, sig, Some(spin_ns), t);
                Flow::Break
            }
        }
    }

    /// A scheduled task resumes a lock spin: claim if possible, else keep
    /// spinning.
    #[allow(clippy::too_many_arguments)]
    fn resume_lock_spin(
        &mut self,
        cpu: usize,
        tid: TaskId,
        lock: LockId,
        is_mutex: bool,
        sig: SpinSig,
        budget_left: Option<u64>,
        t: SimTime,
    ) -> Flow {
        let claimed = if is_mutex {
            self.sync.mutexes[lock.0].try_claim(tid)
        } else {
            self.sync.spinlocks[lock.0].try_claim(tid)
        };
        if let Some(cost) = claimed {
            let key = if is_mutex {
                LockKey::mutex(lock.0)
            } else {
                LockKey::spin(lock.0)
            };
            self.ld_acquired(tid, key, t);
            self.charge_useful(cpu, cost);
            self.conts[tid.0] = Cont::Ready;
            return Flow::Continue(t + cost);
        }
        if budget_left == Some(0) {
            self.park_spinner(cpu, tid, t);
            return Flow::Break;
        }
        self.begin_spin_segment(cpu, tid, sig, budget_left, t);
        Flow::Break
    }
}
