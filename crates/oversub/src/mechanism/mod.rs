//! The mechanism layer: the paper's OS mechanisms as first-class,
//! composable objects.
//!
//! The paper contributes two kernel mechanisms — virtual blocking (VB,
//! §3.1) and busy-waiting detection (BWD, §3.2) — and compares them to
//! hardware pause-loop exiting (PLE). Each lands in the kernel at a small
//! number of well-defined points: the futex/epoll block and wake paths, a
//! per-core monitoring timer, the scheduler's pick path, and the spin-loop
//! entry. The [`Mechanism`] trait mirrors exactly those hook points, so
//! the engine's event loop stays mechanism-agnostic: it consults the
//! pipeline at each hook and applies the returned verdicts (descheduling,
//! skip flags, kernel-time charges) itself.
//!
//! Division of labour: **decisions live in the mechanism, mechanics live
//! in the engine**. A mechanism never touches runqueues, epochs, or the
//! event queue — it inspects the context it is handed (hardware monitoring
//! window, spin signature, wait mode) and returns a verdict. This is what
//! makes the pipeline deterministic: hook order is fixed by pipeline
//! order, and verdict application is centralized in one place.
//!
//! The three in-tree implementations are [`VbMechanism`], [`BwdMechanism`]
//! and [`PleMechanism`]; [`crate::config::Mechanisms`] presets build the
//! pipeline via [`MechanismSet::from_config`]. Out-of-tree mechanisms
//! register through [`crate::RunConfig::with_mechanism`] — see
//! `examples/custom_mechanism.rs` for a complete spin-throttle mechanism
//! written purely against this public API.

mod bwd;
mod neighbour;
mod ple;
mod vb;

pub use bwd::BwdMechanism;
pub use neighbour::NeighbourMechanism;
pub use ple::PleMechanism;
pub use vb::VbMechanism;

use crate::config::RunConfig;
use oversub_bwd::ExecEnv;
use oversub_hw::CoreHw;
use oversub_ksync::{FutexParams, WaitMode};
use oversub_metrics::MechCounters;
use oversub_simcore::SimTime;
use oversub_task::{SpinSig, TaskId};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// What a mechanism may configure in the kernel substrate before the run
/// starts (the moral equivalent of the paper's patches flipping sysctls).
#[derive(Clone, Debug, Default)]
pub struct SubstrateConfig {
    /// Futex/epoll-layer parameters (VB enables its flags here).
    pub futex: FutexParams,
    /// Whether the scheduler accepts `StopReason::VirtualBlock` parks.
    pub sched_vb: bool,
}

/// Context handed to [`Mechanism::on_timer`]: one core's monitoring state
/// at the moment the mechanism's periodic timer fires.
pub struct TimerCtx<'a> {
    /// The CPU the timer fired on.
    pub cpu: usize,
    /// Current virtual time.
    pub now: SimTime,
    /// The core's hardware monitoring window (LBR ring + PMCs). The
    /// mechanism owns the window across its own checks and must clear it
    /// (`CoreHw::new_window`) after inspecting it.
    pub hw: &'a mut CoreHw,
    /// Whether a task is currently running on the CPU.
    pub has_current: bool,
    /// Ground truth: is the current segment genuine busy-waiting? (The
    /// engine knows; a mechanism may use this only for classification
    /// counters, never for the decision itself.)
    pub real_spin: bool,
    /// Fault injection: the sensor readout is corrupted this tick and the
    /// window classification must be inverted (spin reads as work, work
    /// reads as spin). Always `false` outside chaos runs.
    pub sensor_flip: bool,
}

/// What the engine should do after [`Mechanism::on_timer`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TimerVerdict {
    /// Kernel time the check consumed (charged to the core; the current
    /// segment is shifted by the same amount).
    pub charge_ns: u64,
    /// Deschedule the current task.
    pub deschedule: bool,
    /// When descheduling, also set the BWD skip flag (tail-insert until
    /// every other schedulable task has run).
    pub set_skip: bool,
}

/// What the engine should do after [`Mechanism::on_spin_exit`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SpinExitVerdict {
    /// Kernel time of the exit itself (e.g. the VM exit + hypervisor
    /// handling for PLE), charged before the deschedule.
    pub charge_ns: u64,
    /// Set the BWD skip flag on the descheduled spinner.
    pub set_skip: bool,
}

/// One pluggable OS mechanism. Hook points mirror where the paper's
/// kernel patches land; every hook has a no-op default so a mechanism
/// implements only what it needs.
///
/// Determinism contract: hooks must be pure functions of the mechanism's
/// own state and the arguments — no host time, no host randomness, no
/// global state. The engine invokes hooks in pipeline order.
pub trait Mechanism {
    /// Short stable name ("vb", "bwd", ...; used in reports).
    fn name(&self) -> &'static str;

    /// Configure the kernel substrate before the run starts.
    fn configure(&mut self, _sub: &mut SubstrateConfig) {}

    /// Period of the mechanism's per-core monitoring timer, if it has one
    /// (BWD's 100 µs window). `None` = no timer is armed.
    fn timer_interval_ns(&self) -> Option<u64> {
        None
    }

    /// The per-core monitoring timer fired. Inspect the monitoring window
    /// and decide whether to deschedule the current task.
    fn on_timer(&mut self, _ctx: &mut TimerCtx<'_>) -> TimerVerdict {
        TimerVerdict::default()
    }

    /// Opt-in to tickless idle for a timer tick on an *idle, quiet*
    /// core: no task is running and the monitoring window is untouched
    /// (`CoreHw::window_untouched`). When such a tick reduces to a
    /// *constant* — a fixed kernel charge plus one recorded check, with
    /// no other per-tick state — return `Some(charge_ns)`. Must return
    /// `None` whenever per-tick state advances (e.g. BWD's
    /// adaptive-backoff stride counters). Queried once at engine
    /// construction, after [`Mechanism::configure`].
    ///
    /// When this is the pipeline's only timer mechanism, `charge_ns` is
    /// at most its interval and the run has no faults, an idle-quiet tick
    /// lets the core's timer lapse until a task starts there. The skipped
    /// ticks are settled in closed form, the same kernel charge per tick
    /// without popping them, and their checks are credited in one batch
    /// through [`Mechanism::note_idle_checks`] at run end. Every other
    /// tick takes [`Mechanism::on_timer`].
    fn idle_quiet_constant(&self) -> Option<u64> {
        None
    }

    /// Credit `n` idle-quiet ticks settled by tickless idle (only ever
    /// called when [`Mechanism::idle_quiet_constant`] returned `Some`).
    /// Recorded checks are commutative counters, so batching them cannot
    /// perturb any metric.
    fn note_idle_checks(&mut self, n: u64) {
        let _ = n;
    }

    /// A task blocked in the kernel (futex or epoll path); `mode` says
    /// whether the substrate slept it or VB-parked it.
    fn on_block(&mut self, _cpu: usize, _tid: TaskId, _mode: WaitMode) {}

    /// A blocked task was woken (futex wake or epoll post).
    fn on_wake(&mut self, _tid: TaskId, _mode: WaitMode) {}

    /// The scheduler finished a pick round on `cpu`; `skips_released` is
    /// the number of BWD skip flags that expired during it.
    fn on_pick(&mut self, _cpu: usize, _skips_released: u64) {}

    /// The current task's time slice expired and it is being preempted.
    fn on_slice_expiry(&mut self, _cpu: usize, _tid: TaskId) {}

    /// A busy-wait segment begins at `now`. Return `Some(t)` to schedule a
    /// spin exit at `t` ([`Mechanism::on_spin_exit`] fires then if the
    /// task is still spinning); the first pipeline mechanism that returns
    /// `Some` owns the exit. This is PLE's window accounting hook.
    fn on_spin_segment(
        &mut self,
        _cpu: usize,
        _tid: TaskId,
        _sig: &SpinSig,
        _env: ExecEnv,
        _now: SimTime,
    ) -> Option<SimTime> {
        None
    }

    /// The spin exit armed by [`Mechanism::on_spin_segment`] fired and the
    /// task is still busy-waiting: the engine will charge the verdict's
    /// cost and deschedule the spinner.
    fn on_spin_exit(&mut self, _cpu: usize, _tid: TaskId) -> SpinExitVerdict {
        SpinExitVerdict::default()
    }

    /// The online core count changed (CPU elasticity).
    fn on_elastic_change(&mut self, _cores: usize) {}

    /// The liveness watchdog rescued `tid` from a lost VB park by falling
    /// back to a real wake — the mechanism's graceful-degradation signal
    /// (VB counts these as recoveries).
    fn on_watchdog_recovery(&mut self, _tid: TaskId) {}

    /// Structured counters for the run report.
    fn counters(&self) -> MechCounters;

    /// Downcast support (the engine extracts BWD/PLE statistics for the
    /// report's legacy `bwd` aggregate through this).
    fn as_any(&self) -> &dyn Any;
}

/// A cloneable constructor for an out-of-tree mechanism, stored in
/// [`RunConfig`]. The factory runs once per engine construction, so every
/// run (including the reference-engine twin of a golden determinism pair)
/// gets a fresh mechanism instance. The constructor must be `Send + Sync`
/// so configs carrying custom mechanisms can cross into sweep-pool worker
/// threads (`simcore::pool`).
#[derive(Clone)]
pub struct MechanismFactory(Arc<dyn Fn() -> Box<dyn Mechanism> + Send + Sync>);

impl MechanismFactory {
    /// Wrap a constructor closure.
    pub fn new(f: impl Fn() -> Box<dyn Mechanism> + Send + Sync + 'static) -> Self {
        MechanismFactory(Arc::new(f))
    }

    /// Build a fresh mechanism instance.
    pub fn build(&self) -> Box<dyn Mechanism> {
        (self.0)()
    }
}

impl fmt::Debug for MechanismFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MechanismFactory(..)")
    }
}

/// The mechanism pipeline of one run: the in-tree mechanisms selected by
/// the [`crate::config::Mechanisms`] preset, followed by any
/// user-registered mechanisms, in registration order.
#[derive(Default)]
pub struct MechanismSet {
    items: Vec<Box<dyn Mechanism>>,
}

impl MechanismSet {
    /// Build the pipeline for `cfg`: VB, then BWD, then PLE, then the
    /// neighbour-aware mechanism (each if enabled), then the custom
    /// mechanisms in registration order.
    pub fn from_config(cfg: &RunConfig) -> Self {
        let mut items: Vec<Box<dyn Mechanism>> = Vec::new();
        if cfg.mech.vb {
            items.push(Box::new(VbMechanism::new(cfg.mech.vb_auto_disable)));
        }
        if cfg.mech.bwd {
            items.push(Box::new(BwdMechanism::new(cfg.bwd())));
        }
        if cfg.mech.ple {
            items.push(Box::new(PleMechanism::new(cfg.ple())));
        }
        if cfg.mech.neighbour {
            items.push(Box::new(NeighbourMechanism::new()));
        }
        for f in &cfg.custom_mechanisms {
            items.push(f.build());
        }
        MechanismSet { items }
    }

    /// Run every mechanism's [`Mechanism::configure`] over a default
    /// substrate configuration and return the result.
    pub fn configure_substrate(&mut self) -> SubstrateConfig {
        let mut sub = SubstrateConfig::default();
        for m in &mut self.items {
            m.configure(&mut sub);
        }
        sub
    }

    /// True when no mechanism is registered (the engine skips all hook
    /// dispatch — vanilla runs pay nothing for the pipeline).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of mechanisms in the pipeline.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Mutable access to one mechanism (the engine's timer/spin-exit
    /// dispatch, which must split borrows with the scheduler state).
    pub fn get_mut(&mut self, idx: usize) -> &mut dyn Mechanism {
        &mut *self.items[idx]
    }

    /// The timer interval of mechanism `idx`, if it has a timer.
    pub fn timer_interval_ns(&self, idx: usize) -> Option<u64> {
        self.items[idx].timer_interval_ns()
    }

    /// [`Mechanism::idle_quiet_constant`] of mechanism `idx`.
    pub fn idle_quiet_constant(&self, idx: usize) -> Option<u64> {
        self.items[idx].idle_quiet_constant()
    }

    /// `(index, interval)` of every mechanism with a periodic timer.
    pub fn timers(&self) -> Vec<(usize, u64)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.timer_interval_ns().map(|ns| (i, ns)))
            .collect()
    }

    /// Fan [`Mechanism::on_block`] out to the pipeline.
    pub fn on_block(&mut self, cpu: usize, tid: TaskId, mode: WaitMode) {
        for m in &mut self.items {
            m.on_block(cpu, tid, mode);
        }
    }

    /// Fan [`Mechanism::on_wake`] out to the pipeline.
    pub fn on_wake(&mut self, tid: TaskId, mode: WaitMode) {
        for m in &mut self.items {
            m.on_wake(tid, mode);
        }
    }

    /// Fan [`Mechanism::on_pick`] out to the pipeline.
    pub fn on_pick(&mut self, cpu: usize, skips_released: u64) {
        for m in &mut self.items {
            m.on_pick(cpu, skips_released);
        }
    }

    /// Fan [`Mechanism::on_slice_expiry`] out to the pipeline.
    pub fn on_slice_expiry(&mut self, cpu: usize, tid: TaskId) {
        for m in &mut self.items {
            m.on_slice_expiry(cpu, tid);
        }
    }

    /// Fan [`Mechanism::on_elastic_change`] out to the pipeline.
    pub fn on_elastic_change(&mut self, cores: usize) {
        for m in &mut self.items {
            m.on_elastic_change(cores);
        }
    }

    /// Fan [`Mechanism::on_watchdog_recovery`] out to the pipeline.
    pub fn on_watchdog_recovery(&mut self, tid: TaskId) {
        for m in &mut self.items {
            m.on_watchdog_recovery(tid);
        }
    }

    /// Offer a new spin segment to the pipeline; the first mechanism that
    /// arms an exit owns it. Returns `(exit_time, mechanism_index)`.
    pub fn arm_spin_exit(
        &mut self,
        cpu: usize,
        tid: TaskId,
        sig: &SpinSig,
        env: ExecEnv,
        now: SimTime,
    ) -> Option<(SimTime, usize)> {
        for (i, m) in self.items.iter_mut().enumerate() {
            if let Some(at) = m.on_spin_segment(cpu, tid, sig, env, now) {
                return Some((at, i));
            }
        }
        None
    }

    /// Collect every mechanism's counters, in pipeline order.
    pub fn counters(&self) -> Vec<MechCounters> {
        self.items.iter().map(|m| m.counters()).collect()
    }

    /// Find the first mechanism of concrete type `T` in the pipeline.
    pub fn find<T: 'static>(&self) -> Option<&T> {
        self.items.iter().find_map(|m| m.as_any().downcast_ref())
    }
}

impl fmt::Debug for MechanismSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.items.iter().map(|m| m.name()).collect();
        write!(f, "MechanismSet{names:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mechanisms;

    #[test]
    fn presets_build_expected_pipelines() {
        let cfg = RunConfig::vanilla(4);
        assert!(MechanismSet::from_config(&cfg).is_empty());

        let cfg = RunConfig::optimized(4);
        let set = MechanismSet::from_config(&cfg);
        assert_eq!(set.len(), 2);
        assert!(set.find::<VbMechanism>().is_some());
        assert!(set.find::<BwdMechanism>().is_some());
        assert!(set.find::<PleMechanism>().is_none());

        let cfg = RunConfig::vanilla(4).with_mech(Mechanisms::ple_only());
        let set = MechanismSet::from_config(&cfg);
        assert_eq!(set.len(), 1);
        assert!(set.find::<PleMechanism>().is_some());
    }

    #[test]
    fn vb_configures_the_substrate() {
        let mut set = MechanismSet::from_config(&RunConfig::optimized(4));
        let sub = set.configure_substrate();
        assert!(sub.futex.vb_enabled);
        assert!(sub.futex.vb_auto_disable);
        assert!(sub.sched_vb);

        let mut set = MechanismSet::from_config(&RunConfig::vanilla(4));
        let sub = set.configure_substrate();
        assert!(!sub.futex.vb_enabled);
        assert!(!sub.sched_vb);
    }

    #[test]
    fn only_bwd_arms_a_timer() {
        let set = MechanismSet::from_config(&RunConfig::optimized(4));
        let timers = set.timers();
        assert_eq!(timers.len(), 1);
        assert_eq!(timers[0].1, 100_000, "BWD's 100 µs window");

        let set =
            MechanismSet::from_config(&RunConfig::vanilla(4).with_mech(Mechanisms::ple_only()));
        assert!(set.timers().is_empty());
    }

    #[test]
    fn custom_factories_append_to_the_pipeline() {
        struct Nop;
        impl Mechanism for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn counters(&self) -> MechCounters {
                MechCounters::named("nop")
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let cfg = RunConfig::vanilla(4).with_mechanism(|| Box::new(Nop));
        let set = MechanismSet::from_config(&cfg);
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
        assert_eq!(set.counters()[0].name, "nop");
        // The config stays cloneable with factories registered.
        let set2 = MechanismSet::from_config(&cfg.clone());
        assert_eq!(set2.len(), 1);
    }
}
