//! The simulation engine: composes the scheduler, futex/epoll substrate,
//! user-level locks, hardware monitoring, and the mechanism pipeline into
//! a runnable machine, and drives task programs through their actions in
//! virtual time.
//!
//! The engine is a discrete-event loop. Each CPU is either idle, in VB
//! poll mode (only parked tasks queued), or running a task *segment*:
//! a span of compute / memory traversal / tight loop / busy-wait. Segments
//! end at action completion, slice expiry, mechanism deschedules (BWD
//! timer detections, PLE spin exits), spin-budget expiry, or when another
//! CPU's release grants a spun-on lock.
//!
//! The event loop itself is mechanism-agnostic: everything VB, BWD, and
//! PLE do flows through the [`crate::mechanism::Mechanism`] hook points —
//! the loop consults the pipeline at each hook and applies the returned
//! verdicts. Module layout:
//!
//! - [`mod@self`]: the [`Engine`] struct, construction, the event loop,
//!   and held-back reschedules.
//! - `events`: time accounting and the per-event handlers (resched,
//!   segment end, slice, preemption, balancing, I/O, elasticity).
//! - `spin`: segment bookkeeping plus the mechanism timer / spin-exit
//!   handlers.
//! - `blocking`: futex/epoll wrappers and cross-CPU lock grants.
//! - `report`: metric aggregation into a [`RunReport`].
//! - `diag`: opt-in runqueue audits and stall dumps.
//!
//! Time accounting invariant: each CPU has a cursor
//! ([`oversub_sched::CpuState::accounted_until`]) that only moves forward;
//! every nanosecond between events is attributed to exactly one bucket
//! (useful / spin / kernel / idle) and, for monitored kinds, fed into the
//! core's LBR/PMC window so BWD sees exactly what ran.
//!
//! Tickless idle: in runs where an idle core's monitoring tick is a
//! constant (see [`Tickless`]), a tick that finds its core idle lets the
//! core's timer lapse. The skipped ticks are settled in closed form the
//! next time anything touches that core's cursor, and the timer is
//! re-armed when a task starts there (DESIGN.md §14.4).

mod blocking;
mod diag;
mod events;
mod lockdep;
mod race_hooks;
mod report;
mod spin;
mod watchdog;

use crate::config::RunConfig;
use crate::faults::{EngineError, FaultInjector, WatchdogParams};
use crate::mechanism::MechanismSet;
use crate::race::RaceTracker;
use crate::trace::TraceLog;
use oversub_hw::{CpuId, MemModel, NormalCodeRates};
use oversub_ksync::{EpollTable, FutexTable};
use oversub_locks::{LockDep, SyncRegistry};
use oversub_metrics::{Diagnostic, RunReport};
use oversub_simcore::{EventQueue, Reserved, SimRng, SimTime, VClock};
use oversub_task::{Action, EpollFd, FlagId, LockId, SemId, SpinSig, Task, TaskId, TaskTable};
use oversub_workloads::workload::{Workload, WorldBuilder};

/// What kind of time the current segment on a CPU is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RunKind {
    /// Program work (compute or memory traversal).
    Useful,
    /// Busy-waiting on a lock or flag.
    Spin(SpinSig),
    /// A bounded non-synchronization tight loop (BWD false-positive bait).
    TightLoop(SpinSig),
}

/// Why the pending per-segment event fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum SegEventKind {
    /// The work action completes.
    WorkEnd,
    /// A spin-then-park budget expires: convert to futex park.
    ParkDeadline,
    /// Indefinite spin: no scheduled end.
    None,
}

/// How a blocked task resumes when it next runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Resume {
    /// Retry a mutex acquisition (futex-mutex wake path).
    MutexRetry(LockId),
    /// Re-acquire the mutex after a condvar wait.
    CondReacquire(LockId),
    /// A parked semaphore waiter received its token with the wake.
    SemAcquired(SemId),
    /// Nothing more to do: the blocking action is complete.
    Simple,
    /// Consume pending epoll events, then proceed.
    EpollReady(EpollFd),
    /// I/O completed.
    Io,
}

/// Per-task continuation: what the task is in the middle of.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Cont {
    /// Ask the program for its next action.
    Ready,
    /// A partially-executed work action (remaining unscaled nanoseconds).
    Work {
        /// The action being executed.
        action: Action,
        /// Remaining work at full speed.
        left_ns: u64,
    },
    /// Busy-waiting on a registered lock.
    SpinLock {
        /// The lock id (mutex or spinlock table, per `is_mutex`).
        lock: LockId,
        /// True: blocking-mutex table (spin-then-park kinds); false:
        /// spinlock table.
        is_mutex: bool,
        /// Loop shape.
        sig: SpinSig,
        /// Remaining spin budget before parking (None = spin forever).
        budget_left: Option<u64>,
    },
    /// Busy-waiting on a flag word.
    SpinFlag {
        /// The flag.
        flag: FlagId,
        /// Spin while the flag equals this.
        while_eq: u64,
        /// Loop shape.
        sig: SpinSig,
    },
    /// Blocked in the kernel (futex/epoll/io); `resume` runs on wake.
    Blocked(Resume),
    /// Exited.
    Done,
}

/// Discrete events.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// Try to schedule work on an idle CPU.
    Resched(usize),
    /// The current segment's scheduled end (work done or park deadline).
    SegEnd(usize, u64),
    /// Slice expiry for the current stint.
    Slice(usize, u64),
    /// A mechanism-armed spin exit for the current spin segment (PLE's
    /// pause-loop exit; any mechanism may arm one).
    SpinExit(usize, u64),
    /// Re-evaluate wakeup preemption on this CPU.
    PreemptCheck(usize),
    /// A mechanism's periodic monitoring timer: `(mechanism index, cpu)`.
    MechTimer(usize, usize),
    /// Periodic load balancing.
    Balance(usize),
    /// An I/O wait finished.
    IoDone(usize),
    /// CPU elasticity: change the online core count.
    Elastic(usize),
    /// Periodic fault-injection tick (spurious wakeups, revocation
    /// storms). Only scheduled when the fault plan needs it.
    FaultTick,
    /// Periodic liveness-watchdog sweep. Only scheduled when armed.
    Watchdog,
    /// Hard stop (max_time).
    Stop,
}

/// The per-CPU one-shot timers, each in a re-armable queue slot
/// ([`EventQueue::arm`]): arming one replaces its pending expiry, and
/// retiring the stint or segment it belongs to disarms it
/// ([`Engine::retire_stint`], [`Engine::retire_segment`]). Their events
/// keep their epochs, because the classic queue, which reference runs
/// use, still pops superseded ones.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Timer {
    /// The stint's slice expiry ([`Event::Slice`]).
    Slice,
    /// The segment's scheduled end ([`Event::SegEnd`]).
    SegEnd,
    /// The segment's armed spin exit ([`Event::SpinExit`]).
    SpinExit,
}

impl Timer {
    /// Timers per CPU: the number of slots the queue reserves for each.
    const PER_CPU: usize = 3;

    /// `cpu`'s queue slot for this timer.
    fn slot(self, cpu: usize) -> usize {
        Self::PER_CPU * cpu + self as usize
    }
}

/// A CPU's timer epochs. A popped timer event carrying an older epoch
/// belongs to a retired stint or segment and is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Epochs {
    /// Stint-level events (Slice); bumped only by
    /// [`Engine::retire_stint`].
    pub stint: u64,
    /// Segment-level events (SegEnd/SpinExit); bumped only by
    /// [`Engine::retire_segment`].
    pub seg: u64,
}

/// Host-side time attribution of one run, split by simulation phase.
/// Filled only when profiling is requested ([`run_phase_profiled`]); the
/// normal run loop pays one branch per event for the possibility.
///
/// Handler buckets include the event-queue *inserts* those handlers make
/// (a resched handler's slice arming, a timer handler's re-arm): the
/// `queue_pop_ns` bucket isolates the pop/peek side: the fast queue's
/// search over its heap, cadence lanes and timer slots.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseProfile {
    /// Popping the event queue.
    pub queue_pop_ns: u64,
    /// Resched and wakeup-preemption handlers — the runqueue pick paths.
    pub pick_ns: u64,
    /// Periodic mechanism-timer handlers — the mechanism hook dispatch.
    pub mech_timer_ns: u64,
    /// Periodic load-balance handlers.
    pub balance_ns: u64,
    /// Everything else (segment ends, slice expiry, I/O, elasticity...).
    pub other_ns: u64,
}

impl PhaseProfile {
    fn slot_for(&mut self, ev: &Event) -> &mut u64 {
        match ev {
            Event::Resched(_) | Event::PreemptCheck(_) => &mut self.pick_ns,
            Event::MechTimer(_, _) => &mut self.mech_timer_ns,
            Event::Balance(_) => &mut self.balance_ns,
            _ => &mut self.other_ns,
        }
    }
}

/// Safety valve against runaway simulations.
const MAX_EVENTS: u64 = 400_000_000;

/// Default cap when a workload neither exits nor sets `max_time`.
const DEFAULT_CAP: SimTime = SimTime(600 * oversub_simcore::SECS);

/// The monitoring tick that tickless idle lets lapse on idle cores.
///
/// Armed only where an idle, quiet core's tick is a pure constant: the
/// fast queue (the optimized engine), no faults, and exactly one
/// mechanism with a timer, whose
/// [`Mechanism::idle_quiet_constant`](crate::mechanism::Mechanism::idle_quiet_constant)
/// is `Some(charge)` with `charge <= interval`. On such a core nothing
/// the tick reads can change until a task starts there, so every
/// skipped tick would have taken the same constant path.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tickless {
    /// Index of the timer mechanism.
    pub mech: usize,
    /// Its tick interval.
    pub interval_ns: u64,
    /// Its constant idle-quiet charge.
    pub charge_ns: u64,
}

pub(crate) struct Engine {
    pub cfg: RunConfig,
    pub sched: oversub_sched::Scheduler,
    pub futex: FutexTable,
    pub epoll: EpollTable,
    pub sync: SyncRegistry,
    /// The mechanism pipeline (VB / BWD / PLE / custom).
    pub mechs: MechanismSet,
    pub mem: MemModel,
    pub tasks: TaskTable,
    pub conts: Vec<Cont>,
    pub rngs: Vec<SimRng>,
    pub queue: EventQueue<Event>,
    /// Per-CPU timer epochs.
    pub epochs: Vec<Epochs>,
    /// Per-CPU current segment kind (valid while running).
    pub run_kind: Vec<RunKind>,
    /// Per-CPU SMT speed factor captured at segment start.
    pub seg_rate: Vec<f64>,
    /// Per-CPU scheduled end of the current segment.
    pub seg_done_at: Vec<SimTime>,
    /// Per-CPU pending segment event kind.
    pub seg_event: Vec<SegEventKind>,
    /// Per-CPU pending spin exit, if a mechanism armed one:
    /// `(exit time, index of the owning mechanism)`.
    pub spin_exit_at: Vec<Option<(SimTime, usize)>>,
    /// Held-back reschedules: `(key, cpu)` of each `Event::Resched(cpu)`
    /// requested while it provably started nothing, not yet queued or
    /// dropped (see [`sched_resched`](Self::sched_resched)).
    held: Vec<(Reserved, usize)>,
    /// Union of the unpinned tasks' cpusets (`allowed` masks, which
    /// cover CPUs 0–63): an idle CPU outside it can never be given a task
    /// by `idle_pull`.
    pull_mask: u64,
    /// [`Scheduler::idle_work_mark`](oversub_sched::Scheduler::idle_work_mark)
    /// when `held` was last re-checked.
    held_mark: u64,
    /// Per-mechanism timer interval, cached at construction so the
    /// periodic-tick hot path re-arms without a dyn dispatch (intervals
    /// are fixed for the life of a run).
    pub timer_intervals: Vec<Option<u64>>,
    /// The tick tickless idle may let lapse; `None` keeps every timer
    /// ticking.
    pub tickless: Option<Tickless>,
    /// Checks of the lapsed and settled ticks, credited to the tickless
    /// mechanism's check counter at run end
    /// ([`Mechanism::note_idle_checks`](crate::mechanism::Mechanism::note_idle_checks)):
    /// the increments commute, so deferring them is exact.
    idle_checks: u64,
    /// Per CPU: the fire time of the first tick skipped since its timer
    /// lapsed and not yet settled, or `SimTime::NEVER` while it ticks.
    pub dormant_at: Vec<SimTime>,
    /// `OVERSUB_TRACE` progress logging (read once at construction; env
    /// lookups are too slow for the per-event hot loop).
    trace_progress: bool,
    /// `OVERSUB_CHECK` runqueue audits (read once at construction).
    check_rqs: bool,
    /// `OVERSUB_TRACE_CPU` filter (read once at construction).
    trace_cpu: Option<usize>,
    pub now: SimTime,
    pub live: usize,
    pub end_cap: SimTime,
    pub events_processed: u64,
    pub last_exit: SimTime,
    pub rates: NormalCodeRates,
    /// Ground-truth spin episodes (starts of genuine busy-waiting), for
    /// the BWD sensitivity table.
    pub spin_episodes: u64,
    /// Optional scheduling-event trace.
    pub trace: TraceLog,
    /// Fault injector; `None` unless the config's plan enables any fault,
    /// so clean runs carry no injector state at all.
    pub faults: Option<FaultInjector>,
    /// Liveness-watchdog parameters (copied out of the config; `None`
    /// keeps the watchdog fully disarmed — no events, no sweeps).
    pub watchdog: Option<WatchdogParams>,
    /// When each task's current VB park began (orphan ageing; only
    /// allocated when the watchdog is armed).
    pub vb_park_since: Vec<Option<SimTime>>,
    /// Per-task latch so starvation is reported once per task (sized with
    /// `vb_park_since`).
    pub starvation_reported: Vec<bool>,
    /// Structured invariant/watchdog findings, folded into the report.
    pub diagnostics: Vec<Diagnostic>,
    /// `(progress sum, when it last changed)` for the hang detector.
    pub last_progress: (u64, SimTime),
    /// Set when the watchdog halts the run (no-progress hang).
    pub halted: bool,
    /// Event budget for this run (config override or the safety valve).
    pub max_events: u64,
    /// Lock-order / wait-for graph tracking; `None` unless the config
    /// opts in, so clean runs carry no analysis state at all.
    pub lockdep: Option<LockDep>,
    /// Happens-before race tracking (sync-object clocks + plain-variable
    /// access history); `None` unless the config opts in. Per-task clocks
    /// live in `tasks.race_clock` and stay zero-length when disarmed.
    pub race: Option<Box<RaceTracker>>,
    /// Per-phase host-time accumulators; `None` (one branch per event)
    /// unless the run was started via [`run_phase_profiled`].
    pub phase_prof: Option<Box<PhaseProfile>>,
}

impl Engine {
    pub(crate) fn new(cfg: RunConfig, workload: &mut dyn Workload) -> Self {
        Self::try_new(cfg, workload).unwrap_or_else(|e| panic!("{e}"))
    }

    pub(crate) fn try_new(
        cfg: RunConfig,
        workload: &mut dyn Workload,
    ) -> Result<Self, EngineError> {
        match cfg.validate() {
            Ok(warnings) => {
                for w in warnings {
                    eprintln!("[oversub] config warning: {w}");
                }
            }
            Err(e) => return Err(EngineError::InvalidConfig(e)),
        }

        // Build the mechanism pipeline and let it configure the kernel
        // substrate (VB flips the futex/epoll/scheduler flags here).
        let mut mechs = MechanismSet::from_config(&cfg);
        // `validate()` cannot see a custom mechanism's timer, and the tick
        // staggering below divides by every interval.
        if let Some(&(idx, _)) = mechs.timers().iter().find(|&&(_, ns)| ns == 0) {
            return Err(EngineError::InvalidConfig(format!(
                "mechanism `{}` has a zero timer interval (its ticks would never advance)",
                mechs.get_mut(idx).name()
            )));
        }
        let sub = mechs.configure_substrate();

        let topo = cfg.machine.topology();
        let mem = MemModel::new(cfg.cache.clone());
        let mut sched = oversub_sched::Scheduler::new(
            topo.clone(),
            cfg.sched.clone(),
            mem.clone(),
            sub.sched_vb,
        );
        let initial_cores = cfg.initial_cores.unwrap_or(topo.num_cpus());
        sched.set_online_count(initial_cores);

        let futex = FutexTable::new(sub.futex);
        let epoll = EpollTable::new(sub.futex);
        let mut world = WorldBuilder::new(initial_cores, epoll);
        world.overload = cfg.overload;
        // The min-service check needs the workload, so it cannot live in
        // `RunConfig::validate` with the other warnings.
        if cfg.overload.deadline_ns > 0 {
            if let Some(min_ns) = workload.min_service_ns() {
                if cfg.overload.deadline_ns < min_ns {
                    eprintln!(
                        "[oversub] config warning: overload deadline ({} ns) is below \
                         the workload's minimum service time (~{} ns) — every request \
                         will exceed its deadline even on an idle machine",
                        cfg.overload.deadline_ns, min_ns
                    );
                }
            }
        }
        workload.build(&mut world);
        let ncpu = topo.num_cpus();
        for (i, spec) in world.threads.iter().enumerate() {
            for (how, cpu) in [("placed", spec.initial_cpu), ("pinned", spec.pinned)] {
                if let Some(CpuId(c)) = cpu.filter(|c| c.0 >= ncpu) {
                    return Err(EngineError::InvalidConfig(format!(
                        "thread {i} is {how} on cpu {c} but the machine has {ncpu} CPUs"
                    )));
                }
            }
        }

        let base_rng = SimRng::new(cfg.seed);
        let n = world.threads.len();
        let mut tasks = TaskTable::new();
        let mut rngs = Vec::with_capacity(n);
        let online: Vec<usize> = (0..initial_cores).collect();
        for (i, spec) in world.threads.into_iter().enumerate() {
            let cpu = spec.initial_cpu.unwrap_or(CpuId(online[i % online.len()]));
            let mut t = Task::new(TaskId(i), spec.program, cpu);
            t.footprint_bytes = spec.footprint;
            t.pinned = spec.pinned;
            t.allowed = spec.allowed;
            t.weight = spec.weight;
            if cfg.pinned && t.pinned.is_none() {
                t.pinned = Some(cpu);
            }
            tasks.push(t);
            rngs.push(base_rng.fork(i as u64 + 1));
        }

        let end_cap = cfg.max_time.unwrap_or(DEFAULT_CAP);
        // Only the classic queue permutes ties, so a salted run is a
        // reference run with a salt.
        let reference = cfg.reference_engine || cfg.schedule_salt != 0;
        sched.set_reference_mode(reference);
        // Chaos-layer state: an injector only when the plan enables a
        // fault, park-ageing vectors only when the watchdog is armed, so
        // clean runs are bit-identical to builds without the fault layer.
        let faults = cfg
            .faults
            .enabled()
            .then(|| FaultInjector::new(cfg.faults.clone(), &base_rng));
        let watchdog = cfg.watchdog;
        let wd_slots = if watchdog.is_some() { n } else { 0 };
        let max_events = cfg.max_events.unwrap_or(MAX_EVENTS);
        let lockdep = cfg.lockdep.then(|| LockDep::new(n));
        let race = cfg.race_detector.then(|| Box::new(RaceTracker::new()));
        if race.is_some() {
            // Arm the per-task clocks: zero-length (disarmed) rows become
            // dense task-count-length clocks.
            for c in tasks.race_clock.iter_mut() {
                *c = VClock::zeroed(n);
            }
        }
        let mut queue = if reference {
            EventQueue::classic_salted(cfg.schedule_salt)
        } else {
            EventQueue::new()
        };
        // Timers are armed only where tasks run, and tasks start on the
        // first CPUs; a task that moves beyond them grows the slot map.
        queue.reserve_timer_slots(Timer::PER_CPU * ncpu.min(n));
        let timer_intervals: Vec<Option<u64>> = (0..mechs.len())
            .map(|i| mechs.timer_interval_ns(i))
            .collect();
        let pull_mask = (0..n)
            .filter(|&i| tasks.pinned[i].is_none())
            .fold(0, |m, i| m | tasks.allowed[i]);
        // Tickless idle's tie rule needs the fast queue's scheduled-at keys.
        let tickless = match mechs.timers().as_slice() {
            &[(mech, interval_ns)] if !queue.is_classic() && faults.is_none() => mechs
                .idle_quiet_constant(mech)
                .filter(|&ns| ns <= interval_ns)
                .map(|charge_ns| Tickless {
                    mech,
                    interval_ns,
                    charge_ns,
                }),
            _ => None,
        };
        let mut eng = Engine {
            mechs,
            sched,
            futex,
            epoll: world.epoll,
            sync: world.sync,
            mem,
            conts: vec![Cont::Ready; n],
            tasks,
            rngs,
            queue,
            held: Vec::new(),
            pull_mask,
            held_mark: 0,
            timer_intervals,
            tickless,
            idle_checks: 0,
            dormant_at: vec![SimTime::NEVER; ncpu],
            trace_progress: std::env::var_os("OVERSUB_TRACE").is_some(),
            check_rqs: std::env::var_os("OVERSUB_CHECK").is_some(),
            trace_cpu: std::env::var("OVERSUB_TRACE_CPU")
                .ok()
                .and_then(|v| v.parse::<usize>().ok()),
            epochs: vec![Epochs::default(); ncpu],
            run_kind: vec![RunKind::Useful; ncpu],
            seg_rate: vec![1.0; ncpu],
            seg_done_at: vec![SimTime::ZERO; ncpu],
            seg_event: vec![SegEventKind::None; ncpu],
            spin_exit_at: vec![None; ncpu],
            now: SimTime::ZERO,
            live: n,
            end_cap,
            events_processed: 0,
            last_exit: SimTime::ZERO,
            rates: NormalCodeRates::default(),
            spin_episodes: 0,
            trace: if cfg.trace {
                TraceLog::enabled()
            } else {
                TraceLog::disabled()
            },
            faults,
            watchdog,
            vb_park_since: vec![None; wd_slots],
            starvation_reported: vec![false; wd_slots],
            diagnostics: Vec::new(),
            last_progress: (0, SimTime::ZERO),
            halted: false,
            max_events,
            lockdep,
            race,
            phase_prof: None,
            cfg,
        };

        // Place tasks and arm per-CPU machinery.
        for i in 0..n {
            let cpu = eng.tasks.last_cpu[i];
            eng.sched
                .enqueue_new(&mut eng.tasks, TaskId(i), cpu, SimTime::ZERO);
        }
        let timers = eng.mechs.timers();
        for c in 0..ncpu {
            eng.sched_resched(SimTime::ZERO, c);
            for &(idx, interval_ns) in &timers {
                // Stagger timers so cores do not all fire at once.
                let phase = (c as u64 * 7_919) % interval_ns;
                eng.queue.schedule_cadenced(
                    SimTime::from_nanos(interval_ns + phase),
                    interval_ns,
                    Event::MechTimer(idx, c),
                );
            }
            let phase = (c as u64 * 104_729) % eng.cfg.sched.balance_interval_ns;
            eng.queue.schedule_cadenced(
                SimTime::from_nanos(eng.cfg.sched.balance_interval_ns + phase),
                eng.cfg.sched.balance_interval_ns,
                Event::Balance(c),
            );
        }
        for ev in eng.cfg.elastic.clone() {
            eng.queue.schedule_nocancel(ev.at, Event::Elastic(ev.cores));
        }
        if let Some(f) = &eng.faults {
            if f.plan.needs_tick() {
                eng.queue.schedule_cadenced(
                    SimTime::from_nanos(f.plan.tick_interval_ns),
                    f.plan.tick_interval_ns,
                    Event::FaultTick,
                );
            }
        }
        if let Some(wd) = eng.watchdog {
            eng.queue.schedule_cadenced(
                SimTime::from_nanos(wd.check_interval_ns),
                wd.check_interval_ns,
                Event::Watchdog,
            );
        }
        if eng.cfg.max_time.is_some() {
            eng.queue.schedule_nocancel(end_cap, Event::Stop);
        }
        eng.held_mark = eng.sched.idle_work_mark();
        Ok(eng)
    }

    /// Run to completion and build the report (plus the trace and the
    /// number of processed events).
    pub(crate) fn run_with_trace(
        mut self,
        workload: &dyn Workload,
        label: &str,
    ) -> (RunReport, TraceLog, u64, Option<PhaseProfile>) {
        // Keep the accumulators out of `self` during the loop so the
        // instrumented arms can time `dispatch(&mut self)` calls.
        let mut prof = self.phase_prof.take();
        // Ticks at or after this horizon never fire: a max-time stop
        // pops nothing at `end_cap`; any other stop ends with the event
        // just popped.
        let mut stop_horizon = None;
        loop {
            let popped = match prof.as_deref_mut() {
                None => self.queue.pop(),
                Some(p) => {
                    let t0 = std::time::Instant::now();
                    let r = self.queue.pop();
                    p.queue_pop_ns += t0.elapsed().as_nanos() as u64;
                    r
                }
            };
            let Some((t, ev)) = popped else { break };
            if t >= self.end_cap {
                self.now = self.end_cap;
                stop_horizon = Some(self.end_cap);
                break;
            }
            debug_assert!(t >= self.now, "time went backwards: {t} < {}", self.now);
            if t < self.now {
                // Event-queue monotonicity violated: surface it and stop
                // instead of corrupting accounting with backwards time.
                let msg = format!("event at {t} popped after clock reached {}", self.now);
                self.push_diagnostic("event-order", None, None, msg);
                break;
            }
            self.now = t;
            self.events_processed += 1;
            if self.events_processed > self.max_events {
                let msg = format!(
                    "event budget of {} exhausted with {} tasks live",
                    self.max_events, self.live
                );
                self.push_diagnostic("event-budget", None, None, msg);
                break;
            }
            if self.trace_progress && self.events_processed.is_multiple_of(1_000_000) {
                eprintln!(
                    "[trace] events={}M now={} live={} ev={:?}",
                    self.events_processed / 1_000_000,
                    self.now,
                    self.live,
                    ev
                );
            }
            match prof.as_deref_mut() {
                None => self.dispatch(ev),
                Some(p) => {
                    let t0 = std::time::Instant::now();
                    self.dispatch(ev);
                    *p.slot_for(&ev) += t0.elapsed().as_nanos() as u64;
                }
            }
            let mark = self.sched.idle_work_mark();
            if mark != self.held_mark {
                self.held_mark = mark;
                self.recheck_held();
            }
            if self.check_rqs {
                self.audit_rqs();
            }
            if self.live == 0 || self.halted {
                break;
            }
        }
        if let Some(tl) = self.tickless {
            let horizon = stop_horizon.unwrap_or_else(|| self.tick_horizon(tl));
            for cpu in 0..self.dormant_at.len() {
                self.settle_idle_ticks_before(cpu, horizon);
                self.dormant_at[cpu] = SimTime::NEVER;
            }
            self.mechs
                .get_mut(tl.mech)
                .note_idle_checks(self.idle_checks);
        }
        let makespan = if self.live == 0 {
            self.last_exit
        } else {
            if std::env::var_os("OVERSUB_DUMP_STALL").is_some() {
                self.dump_stall_state();
            }
            self.now
        };
        let trace = std::mem::take(&mut self.trace);
        let events = self.events_processed;
        let report = self.build_report(workload, label, makespan);
        debug_assert_eq!(report.check(), Vec::<String>::new(), "report invariants");
        (report, trace, events, prof.map(|p| *p))
    }

    /// Request an `Event::Resched(cpu)` at `at`.
    ///
    /// On the fast queue, a reschedule that provably starts nothing is
    /// held back instead of queued (reference runs, on the classic
    /// queue, queue every one): it draws its key now
    /// ([`EventQueue::reserve`]) and waits in `held`. It is held back
    /// while [`resched_is_dead`](Self::resched_is_dead) holds: `cpu` is
    /// online and idle, its runqueue has no schedulable task and no
    /// pending skip release, and `on_resched` could not pull work there.
    /// Popped in that state, the handler would only settle the CPU's
    /// lapsed ticks and book its idle time, and both add up the same when
    /// the next touch of the CPU does them, or when the report closes
    /// every cursor at makespan.
    ///
    /// The test reads nothing that changes except when a runqueue gains
    /// its first schedulable task or the online set changes, both of
    /// which move the scheduler's [`idle_work_mark`]. After each handler
    /// that moved it, [`recheck_held`](Self::recheck_held) queues, under
    /// its drawn key, each held-back reschedule whose CPU now fails the
    /// test. So a held-back reschedule that is never queued would have
    /// popped on a CPU that still passed it, as a no-op. Only the engine's
    /// event count changes, which the report does not contain.
    ///
    /// [`idle_work_mark`]: oversub_sched::Scheduler::idle_work_mark
    pub(crate) fn sched_resched(&mut self, at: SimTime, cpu: usize) {
        if !self.queue.is_classic() && self.resched_is_dead(cpu) {
            let key = self.queue.reserve(at);
            self.held.push((key, cpu));
            return;
        }
        self.queue.schedule_nocancel(at, Event::Resched(cpu));
    }

    /// True if `Event::Resched(cpu)` popped now would start nothing and
    /// change nothing but `cpu`'s idle accounting (see `on_resched`).
    /// `idle_pull` cannot give the CPU a task while it holds VB-parked
    /// tasks (the poll branch returns first), while no runqueue has a
    /// schedulable waiter, or when no unpinned task may run there.
    fn resched_is_dead(&self, cpu: usize) -> bool {
        let c = &self.sched.cpus[cpu];
        let pullable = cpu < 64 && self.pull_mask & (1 << cpu) != 0;
        self.sched.online[cpu]
            && c.current.is_none()
            && c.rq.nr_schedulable() == 0
            && c.skip_release.is_empty()
            && (c.rq.nr_vb_parked() > 0 || self.sched.waiting_queues() == 0 || !pullable)
    }

    /// Re-test the held-back reschedules after a handler that moved the
    /// scheduler's idle-work mark: drop those whose key is already behind
    /// the popped event (each would have popped as a no-op), and queue
    /// under its drawn key each one whose CPU now fails the test.
    fn recheck_held(&mut self) {
        let mut held = std::mem::take(&mut self.held);
        held.retain(|&(key, cpu)| {
            if self.queue.popped_after(key) {
                return false;
            }
            if self.resched_is_dead(cpu) {
                return true;
            }
            self.queue.schedule_reserved(key, Event::Resched(cpu));
            false
        });
        self.held = held;
    }

    /// Arm `cpu`'s `timer` to fire at `at` for the current stint or
    /// segment, replacing its pending expiry.
    pub(crate) fn arm_timer(&mut self, cpu: usize, timer: Timer, at: SimTime) {
        let ev = match timer {
            Timer::Slice => Event::Slice(cpu, self.epochs[cpu].stint),
            Timer::SegEnd => Event::SegEnd(cpu, self.epochs[cpu].seg),
            Timer::SpinExit => Event::SpinExit(cpu, self.epochs[cpu].seg),
        };
        self.queue.arm(timer.slot(cpu), at, ev);
    }

    /// End `cpu`'s stint: its slice timer can no longer fire. A popped
    /// event of the old stint fails its epoch check; on the fast queue
    /// it is disarmed and never pops.
    pub(crate) fn retire_stint(&mut self, cpu: usize) {
        self.epochs[cpu].stint += 1;
        self.queue.disarm(Timer::Slice.slot(cpu));
    }

    /// End `cpu`'s segment: its end and spin exit can no longer fire
    /// (see [`retire_stint`](Self::retire_stint)).
    pub(crate) fn retire_segment(&mut self, cpu: usize) {
        self.epochs[cpu].seg += 1;
        self.queue.disarm(Timer::SegEnd.slot(cpu));
        self.queue.disarm(Timer::SpinExit.slot(cpu));
    }

    fn dispatch(&mut self, ev: Event) {
        if let Some(n) = self.trace_cpu {
            let touches = match ev {
                Event::Resched(c)
                | Event::SegEnd(c, _)
                | Event::Slice(c, _)
                | Event::SpinExit(c, _)
                | Event::PreemptCheck(c)
                | Event::MechTimer(_, c)
                | Event::Balance(c) => c == n,
                _ => true,
            };
            if touches {
                eprintln!(
                    "[cpu{n}] now={} ev={:?} current={:?} sched={} live={}",
                    self.now,
                    ev,
                    self.sched.cpus[n].current,
                    self.sched.cpus[n].rq.nr_schedulable(),
                    self.live
                );
            }
        }
        match ev {
            Event::Resched(c) => self.on_resched(c),
            Event::SegEnd(c, e) => self.on_seg_end(c, e),
            Event::Slice(c, e) => self.on_slice(c, e),
            Event::SpinExit(c, e) => self.on_spin_exit(c, e),
            Event::PreemptCheck(c) => self.on_preempt_check(c),
            Event::MechTimer(m, c) => self.on_mech_timer(m, c),
            Event::Balance(c) => self.on_balance(c),
            Event::IoDone(t) => self.on_io_done(t),
            Event::Elastic(n) => self.on_elastic(n),
            Event::FaultTick => self.on_fault_tick(),
            Event::Watchdog => self.on_watchdog(),
            Event::Stop => { /* handled by end_cap check */ }
        }
    }
}

/// Run `workload` under `config`, labelling the report.
pub fn run_labelled(workload: &mut dyn Workload, config: &RunConfig, label: &str) -> RunReport {
    let engine = Engine::new(config.clone(), workload);
    engine.run_with_trace(workload, label).0
}

/// Run `workload` under `config`, additionally returning the number of
/// discrete events the engine processed — the denominator of the
/// events-per-second throughput benchmark. The count is *not* part of
/// [`RunReport`]: it is an engine-internal quantity that legitimately
/// differs between the optimized and reference engines (held-back
/// reschedules, tickless idle, timer slots), while every report metric
/// stays bit-identical.
pub fn run_counted(
    workload: &mut dyn Workload,
    config: &RunConfig,
    label: &str,
) -> (RunReport, u64) {
    let engine = Engine::new(config.clone(), workload);
    let (report, _, events, _) = engine.run_with_trace(workload, label);
    (report, events)
}

/// [`run_counted`] with per-phase wall-clock attribution: the run loop
/// additionally times event-queue pops and buckets each dispatch's cost
/// by event class (runqueue pick, mechanism timers, balance, other).
/// The instrumentation costs two `Instant::now` pairs per event, so this
/// entry point is for profiling (perfbench's `--trace 1` ledger runs it
/// once, apart from its timed runs), not for timing a run.
pub fn run_phase_profiled(
    workload: &mut dyn Workload,
    config: &RunConfig,
    label: &str,
) -> (RunReport, u64, PhaseProfile) {
    let mut engine = Engine::new(config.clone(), workload);
    engine.phase_prof = Some(Box::default());
    let (report, _, events, prof) = engine.run_with_trace(workload, label);
    (report, events, prof.unwrap_or_default())
}

/// Run `workload` under `config` and return the scheduling trace alongside
/// the report (enable recording with [`RunConfig::traced`]).
pub fn run_traced(workload: &mut dyn Workload, config: &RunConfig) -> (RunReport, TraceLog) {
    let name = workload.name().to_string();
    let engine = Engine::new(config.clone(), workload);
    let (report, trace, _, _) = engine.run_with_trace(workload, &name);
    (report, trace)
}

/// Run `workload` under `config`.
pub fn run(workload: &mut dyn Workload, config: &RunConfig) -> RunReport {
    let name = workload.name().to_string();
    run_labelled(workload, config, &name)
}

/// Run `workload` under `config`, surfacing configuration errors as a
/// typed [`EngineError`] instead of a panic. Chaos harnesses and
/// property tests use this entry point: a fault-injected run either
/// completes or terminates with structured diagnostics in the report,
/// never a panic or a hang.
pub fn try_run(workload: &mut dyn Workload, config: &RunConfig) -> Result<RunReport, EngineError> {
    let name = workload.name().to_string();
    try_run_labelled(workload, config, &name)
}

/// [`try_run`] with an explicit report label.
pub fn try_run_labelled(
    workload: &mut dyn Workload,
    config: &RunConfig,
    label: &str,
) -> Result<RunReport, EngineError> {
    let engine = Engine::try_new(config.clone(), workload)?;
    Ok(engine.run_with_trace(workload, label).0)
}
