//! Deterministic fault injection and the liveness watchdog.
//!
//! The paper's mechanisms are kernel machinery that fails *silently*:
//! virtual blocking turns a lost flag-clear into a permanently parked
//! thread, and BWD's LBR/PMC heuristic can misclassify real work as
//! spinning (§4.2 reasons explicitly about false positives/negatives).
//! This module lets a run perturb the simulation at exactly the mechanism
//! hook boundaries — wake delivery, the monitoring timer, the sensor
//! window, slice arming, and core elasticity — while staying bit-
//! reproducible: the injector draws from its own [`SimRng`] substream
//! forked off the run seed, and a zero-rate plan performs **zero** draws,
//! schedules zero events, and allocates zero state, so it is byte-
//! identical to having no fault layer at all (the golden test in
//! `tests/chaos.rs` checks this).
//!
//! The watchdog half ([`WatchdogParams`]) is the defence: a periodic
//! invariant sweep over the scheduler/futex/epoll state that detects
//! lost-wakeup orphans, starvation, runqueue inconsistencies, and global
//! no-progress hangs, surfacing each as a structured
//! [`oversub_metrics::Diagnostic`] in `RunReport.diagnostics` — never a
//! panic, never a silent hang.

use oversub_simcore::SimRng;
use std::fmt;

/// RNG substream id of the fault injector (tasks use streams `i + 1`, so
/// a large constant keeps the injector's draws off every task stream).
const FAULT_STREAM: u64 = 0xFAB1_7000_0000_0001;

/// Cap on [`FaultPlan::slice_delay_ns`] and [`FaultPlan::timer_jitter_ns`]
/// (1 s), enforced by [`FaultPlan::validate`].
const MAX_FAULT_DELAY_NS: u64 = oversub_simcore::SECS;

/// An elastic-revocation storm: at each fault tick, with probability
/// `prob`, yank the online core count to a uniformly drawn value in
/// `[min_cores, ncpu]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RevocationStorm {
    /// Per-tick probability of a revocation event.
    pub prob: f64,
    /// Lower bound of the drawn online-core count (clamped to >= 1).
    pub min_cores: usize,
}

/// A deterministic fault schedule. All rates default to zero; a
/// default/zero plan injects nothing and adds no state to the run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that a VB unpark is lost: the futex wake dequeues the
    /// waiter but the flag-clear never lands, leaving the task parked
    /// with no pending waker (the classic lost-wakeup kernel bug).
    pub lost_wakeup_prob: f64,
    /// Per-fault-tick probability of a spurious wakeup: one parked
    /// mutex waiter is woken without a release (POSIX-legal; the waiter
    /// re-checks and re-parks).
    pub spurious_wakeup_prob: f64,
    /// Probability that a BWD monitoring tick is dropped (the timer
    /// re-arms but the window inspection never happens).
    pub timer_drop_prob: f64,
    /// Maximum uniform jitter added to each monitoring-timer re-arm (ns).
    pub timer_jitter_ns: u64,
    /// Probability that the LBR/PMC window classification is flipped
    /// (spin reads as work, work reads as spin) on one inspection.
    pub sensor_noise_prob: f64,
    /// Maximum uniform delay added when arming a slice-expiry event (ns).
    pub slice_delay_ns: u64,
    /// Elastic core revocation storms.
    pub revocation_storm: Option<RevocationStorm>,
    /// Period of the fault tick that drives spurious wakeups and
    /// revocation storms.
    pub tick_interval_ns: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            lost_wakeup_prob: 0.0,
            spurious_wakeup_prob: 0.0,
            timer_drop_prob: 0.0,
            timer_jitter_ns: 0,
            sensor_noise_prob: 0.0,
            slice_delay_ns: 0,
            revocation_storm: None,
            tick_interval_ns: 1_000_000,
        }
    }
}

impl FaultPlan {
    /// True when any fault is configured; a disabled plan must leave the
    /// run bit-identical to having no fault layer.
    pub fn enabled(&self) -> bool {
        self.lost_wakeup_prob > 0.0
            || self.spurious_wakeup_prob > 0.0
            || self.timer_drop_prob > 0.0
            || self.timer_jitter_ns > 0
            || self.sensor_noise_prob > 0.0
            || self.slice_delay_ns > 0
            || self.revocation_storm.is_some()
    }

    /// True when the plan needs the periodic fault tick event.
    pub fn needs_tick(&self) -> bool {
        self.spurious_wakeup_prob > 0.0 || self.revocation_storm.is_some()
    }

    /// Set the lost-wakeup probability.
    pub fn lost_wakeups(mut self, prob: f64) -> Self {
        self.lost_wakeup_prob = prob;
        self
    }

    /// Set the spurious-wakeup probability (per fault tick).
    pub fn spurious_wakeups(mut self, prob: f64) -> Self {
        self.spurious_wakeup_prob = prob;
        self
    }

    /// Set the monitoring-timer drop probability.
    pub fn timer_drops(mut self, prob: f64) -> Self {
        self.timer_drop_prob = prob;
        self
    }

    /// Set the maximum monitoring-timer jitter.
    pub fn timer_jitter(mut self, ns: u64) -> Self {
        self.timer_jitter_ns = ns;
        self
    }

    /// Set the sensor-noise (classification flip) probability.
    pub fn sensor_noise(mut self, prob: f64) -> Self {
        self.sensor_noise_prob = prob;
        self
    }

    /// Set the maximum slice-arming delay.
    pub fn slice_delays(mut self, ns: u64) -> Self {
        self.slice_delay_ns = ns;
        self
    }

    /// Enable revocation storms.
    pub fn revocation_storms(mut self, prob: f64, min_cores: usize) -> Self {
        self.revocation_storm = Some(RevocationStorm { prob, min_cores });
        self
    }

    /// Validate the plan: every probability must be a finite value in
    /// `[0, 1]`, the slice delay and timer jitter at most 1 s, and the
    /// tick interval non-zero when the tick is needed.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("fault lost_wakeup_prob", self.lost_wakeup_prob),
            ("fault spurious_wakeup_prob", self.spurious_wakeup_prob),
            ("fault timer_drop_prob", self.timer_drop_prob),
            ("fault sensor_noise_prob", self.sensor_noise_prob),
            (
                "fault revocation storm prob",
                self.revocation_storm.map_or(0.0, |s| s.prob),
            ),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        for (name, ns) in [
            ("fault slice_delay_ns", self.slice_delay_ns),
            ("fault timer_jitter_ns", self.timer_jitter_ns),
        ] {
            if ns > MAX_FAULT_DELAY_NS {
                return Err(format!(
                    "{name} = {ns} ns exceeds the {MAX_FAULT_DELAY_NS} ns (1 s) cap: \
                     no kernel timer slips that far, and the injector's draw below \
                     max + 1 overflows at u64::MAX"
                ));
            }
        }
        if self.needs_tick() && self.tick_interval_ns == 0 {
            return Err("fault tick_interval_ns must be non-zero".into());
        }
        Ok(())
    }
}

/// Injection counters, reported alongside the run for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// VB unparks swallowed.
    pub lost_wakeups: u64,
    /// Spurious wakeups delivered.
    pub spurious_wakeups: u64,
    /// Monitoring ticks dropped.
    pub dropped_ticks: u64,
    /// Monitoring ticks jittered.
    pub jittered_ticks: u64,
    /// Sensor classifications flipped.
    pub sensor_flips: u64,
    /// Slice armings delayed.
    pub delayed_slices: u64,
    /// Revocation storms fired.
    pub storms: u64,
}

/// The run's fault injector: owns the plan, a dedicated RNG substream,
/// and the injection counters. Constructed only when the plan is enabled,
/// so zero-rate runs carry no injector at all.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    /// The fault schedule.
    pub plan: FaultPlan,
    rng: SimRng,
    /// What was actually injected.
    pub counters: FaultCounters,
}

impl FaultInjector {
    /// Build an injector whose draws are keyed off the run seed but
    /// independent of every task substream.
    pub fn new(plan: FaultPlan, base_rng: &SimRng) -> Self {
        FaultInjector {
            plan,
            rng: base_rng.fork(FAULT_STREAM),
            counters: FaultCounters::default(),
        }
    }

    /// Should this VB unpark be lost? Draws only when the rate is set.
    pub fn lose_wakeup(&mut self) -> bool {
        if self.plan.lost_wakeup_prob <= 0.0 {
            return false;
        }
        let hit = self.rng.gen_bool(self.plan.lost_wakeup_prob);
        self.counters.lost_wakeups += u64::from(hit);
        hit
    }

    /// Should this fault tick deliver a spurious wakeup?
    pub fn spurious_wakeup(&mut self) -> bool {
        if self.plan.spurious_wakeup_prob <= 0.0 {
            return false;
        }
        self.rng.gen_bool(self.plan.spurious_wakeup_prob)
    }

    /// Pick a victim index in `[0, n)` (e.g. which parked waiter the
    /// spurious wake hits).
    pub fn pick_victim(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "pick_victim needs a non-empty candidate set");
        self.rng.gen_index(n)
    }

    /// Should this monitoring tick be dropped?
    pub fn drop_timer(&mut self) -> bool {
        if self.plan.timer_drop_prob <= 0.0 {
            return false;
        }
        let hit = self.rng.gen_bool(self.plan.timer_drop_prob);
        self.counters.dropped_ticks += u64::from(hit);
        hit
    }

    /// Jitter to add to this monitoring-timer re-arm (0 when unset).
    pub fn timer_jitter(&mut self) -> u64 {
        if self.plan.timer_jitter_ns == 0 {
            return 0;
        }
        let j = self.rng.gen_range(self.plan.timer_jitter_ns + 1);
        self.counters.jittered_ticks += u64::from(j > 0);
        j
    }

    /// Should this window inspection's classification be flipped?
    pub fn flip_sensor(&mut self) -> bool {
        if self.plan.sensor_noise_prob <= 0.0 {
            return false;
        }
        let hit = self.rng.gen_bool(self.plan.sensor_noise_prob);
        self.counters.sensor_flips += u64::from(hit);
        hit
    }

    /// Delay to add to this slice arming (0 when unset).
    pub fn slice_delay(&mut self) -> u64 {
        if self.plan.slice_delay_ns == 0 {
            return 0;
        }
        let d = self.rng.gen_range(self.plan.slice_delay_ns + 1);
        self.counters.delayed_slices += u64::from(d > 0);
        d
    }

    /// If a revocation storm fires this tick, the new online core count.
    pub fn storm_cores(&mut self, ncpu: usize) -> Option<usize> {
        let storm = self.plan.revocation_storm?;
        if storm.prob <= 0.0 || !self.rng.gen_bool(storm.prob) {
            return None;
        }
        self.counters.storms += 1;
        let lo = storm.min_cores.clamp(1, ncpu);
        Some(self.rng.gen_range_inclusive(lo as u64, ncpu as u64) as usize)
    }

    /// Record a spurious wakeup that was actually delivered (the draw in
    /// [`FaultInjector::spurious_wakeup`] may find no eligible victim).
    pub fn note_spurious_delivered(&mut self) {
        self.counters.spurious_wakeups += 1;
    }
}

/// Liveness watchdog configuration. `None` in the run config disarms the
/// watchdog entirely (no events, no per-CPU state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogParams {
    /// Sweep period.
    pub check_interval_ns: u64,
    /// A VB park older than this with no pending waker is treated as a
    /// lost wakeup and rescued (VB degrades to a real wake).
    pub park_timeout_ns: u64,
    /// A runnable task off-CPU longer than this is reported as starved.
    pub starvation_bound_ns: u64,
    /// If no task makes forward progress (useful or spin time) for this
    /// long, the run is halted with a `no_progress` diagnostic.
    pub hang_timeout_ns: u64,
    /// Hard cap on recorded diagnostics (the first violations matter;
    /// a pathological run must not allocate unboundedly).
    pub max_diagnostics: usize,
}

impl Default for WatchdogParams {
    fn default() -> Self {
        WatchdogParams {
            check_interval_ns: 1_000_000,
            park_timeout_ns: 10_000_000,
            starvation_bound_ns: 500_000_000,
            hang_timeout_ns: 100_000_000,
            max_diagnostics: 64,
        }
    }
}

impl WatchdogParams {
    /// Validate against the scheduler's slice, which bounds how long a
    /// healthy park legitimately lasts.
    pub fn validate(&self, min_slice_ns: u64) -> Result<(), String> {
        if self.check_interval_ns == 0 {
            return Err("watchdog check_interval_ns must be non-zero".into());
        }
        if self.park_timeout_ns < min_slice_ns {
            return Err(format!(
                "watchdog park_timeout_ns ({}) is shorter than a scheduler slice ({min_slice_ns}): \
                 every healthy park would be flagged",
                self.park_timeout_ns
            ));
        }
        if self.starvation_bound_ns == 0 {
            return Err("watchdog starvation_bound_ns must be non-zero".into());
        }
        if self.hang_timeout_ns == 0 {
            return Err("watchdog hang_timeout_ns must be non-zero".into());
        }
        Ok(())
    }
}

/// A typed engine error: the failure modes that are reachable from bad
/// input (configuration, baselines) rather than programming bugs. The
/// panicking entry points (`run` & friends) render these with a readable
/// message; `try_run` surfaces them to the caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The run configuration failed validation.
    InvalidConfig(String),
    /// The engine detected an internal inconsistency it could not degrade
    /// around (with the watchdog armed these become diagnostics instead).
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "invalid RunConfig: {msg}"),
            EngineError::Internal(msg) => write!(f, "engine invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_disabled_and_valid() {
        let p = FaultPlan::default();
        assert!(!p.enabled());
        assert!(!p.needs_tick());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builders_enable_the_plan() {
        assert!(FaultPlan::default().lost_wakeups(0.1).enabled());
        assert!(FaultPlan::default().timer_jitter(50_000).enabled());
        assert!(FaultPlan::default().slice_delays(1_000).enabled());
        let p = FaultPlan::default().revocation_storms(0.05, 2);
        assert!(p.enabled() && p.needs_tick());
        assert!(FaultPlan::default().spurious_wakeups(0.2).needs_tick());
        assert!(!FaultPlan::default().sensor_noise(0.2).needs_tick());
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        assert!(FaultPlan::default().lost_wakeups(1.5).validate().is_err());
        assert!(FaultPlan::default().sensor_noise(-0.1).validate().is_err());
        assert!(FaultPlan::default()
            .timer_drops(f64::NAN)
            .validate()
            .is_err());
        assert!(FaultPlan::default()
            .revocation_storms(2.0, 1)
            .validate()
            .is_err());
        let mut p = FaultPlan::default().spurious_wakeups(0.1);
        p.tick_interval_ns = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_rate_injector_draws_nothing() {
        let base = SimRng::new(42);
        let mut a = FaultInjector::new(FaultPlan::default(), &base);
        assert!(!a.lose_wakeup());
        assert!(!a.spurious_wakeup());
        assert!(!a.drop_timer());
        assert_eq!(a.timer_jitter(), 0);
        assert!(!a.flip_sensor());
        assert_eq!(a.slice_delay(), 0);
        assert_eq!(a.storm_cores(8), None);
        // The RNG state is untouched: the next draw matches a fresh fork.
        let mut fresh = base.fork(FAULT_STREAM);
        assert_eq!(a.rng.next_u64(), fresh.next_u64());
        assert_eq!(a.counters, FaultCounters::default());
    }

    #[test]
    fn injector_is_deterministic() {
        let base = SimRng::new(7);
        let plan = FaultPlan::default()
            .lost_wakeups(0.5)
            .timer_jitter(10_000)
            .sensor_noise(0.3);
        let mut a = FaultInjector::new(plan.clone(), &base);
        let mut b = FaultInjector::new(plan, &base);
        for _ in 0..200 {
            assert_eq!(a.lose_wakeup(), b.lose_wakeup());
            assert_eq!(a.timer_jitter(), b.timer_jitter());
            assert_eq!(a.flip_sensor(), b.flip_sensor());
        }
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn storm_respects_core_bounds() {
        let base = SimRng::new(3);
        let mut inj = FaultInjector::new(FaultPlan::default().revocation_storms(1.0, 2), &base);
        for _ in 0..100 {
            let cores = inj.storm_cores(8).expect("prob 1.0 always fires");
            assert!((2..=8).contains(&cores));
        }
        assert_eq!(inj.counters.storms, 100);
    }

    #[test]
    fn watchdog_validation() {
        let wd = WatchdogParams::default();
        assert!(wd.validate(3_000_000).is_ok());
        assert!(wd.validate(20_000_000).is_err(), "timeout under a slice");
        let zero_starve = WatchdogParams {
            starvation_bound_ns: 0,
            ..wd
        };
        assert!(zero_starve.validate(1).is_err());
        let zero_interval = WatchdogParams {
            check_interval_ns: 0,
            ..wd
        };
        assert!(zero_interval.validate(1).is_err());
    }

    #[test]
    fn engine_error_renders_readably() {
        let e = EngineError::InvalidConfig("probability out of range".into());
        assert!(e.to_string().contains("invalid RunConfig"));
        let e = EngineError::Internal("runqueue audit failed".into());
        assert!(e.to_string().contains("invariant"));
    }
}
