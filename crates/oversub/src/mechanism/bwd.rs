//! Busy-waiting detection (paper §3.2) as a [`Mechanism`].
//!
//! BWD is the mechanism layer's showcase: it owns a per-core 100 µs timer
//! ([`Mechanism::timer_interval_ns`]), inspects the hardware monitoring
//! window on each tick ([`Mechanism::on_timer`]), and when the window
//! matches the spin signature asks the engine to deschedule the runner
//! with the skip flag set. Skip-flag expiry is reported back through
//! [`Mechanism::on_pick`].
//!
//! Graceful degradation: with `adaptive_backoff` armed (auto-enabled when
//! a chaos run injects sensor noise), BWD tracks each core's observed
//! false-positive rate — the kernel-space proxy is "the 'spinner' I
//! descheduled made immediate progress when it came back", which the
//! simulator models with the classification counter. A core whose FP rate
//! crosses the threshold first *widens* its detection window (inspecting
//! only every Nth tick, so a detection needs N windows' worth of
//! uninterrupted spin evidence), and on a second trip disables detection
//! on that core entirely. Each escalation is a recovery in
//! [`MechCounters::recoveries`].

use super::{Mechanism, SubstrateConfig, TimerCtx, TimerVerdict};
use oversub_bwd::{BwdParams, BwdStats, Detector};
use oversub_metrics::MechCounters;
use std::any::Any;

/// Window-widening factor of the first backoff step.
const BACKOFF_STRIDE: u64 = 4;

/// Per-core adaptive-backoff state.
#[derive(Clone, Copy, Debug, Default)]
struct CoreBackoff {
    /// Monitoring ticks seen (drives the inspection stride).
    ticks: u64,
    /// Inspect only every `stride`-th tick (0 = not yet initialized = 1).
    stride: u64,
    /// Deschedules taken on this core since the last escalation.
    detections: u64,
    /// Of those, how many hit a thread that was not really spinning.
    false_positives: u64,
    /// Detection permanently disabled on this core.
    disabled: bool,
}

/// The busy-waiting-detection mechanism.
#[derive(Debug)]
pub struct BwdMechanism {
    det: Detector,
    skips_set: u64,
    skips_cleared: u64,
    /// Lazily grown per-core backoff state (empty unless adaptive).
    backoff: Vec<CoreBackoff>,
    /// Backoff escalations taken (window widenings + core disables).
    recoveries: u64,
}

impl BwdMechanism {
    /// Build BWD around the paper's LBR + PMC detector.
    pub fn new(params: BwdParams) -> Self {
        BwdMechanism {
            det: Detector::new(params),
            skips_set: 0,
            skips_cleared: 0,
            backoff: Vec::new(),
            recoveries: 0,
        }
    }

    /// The underlying detector's statistics (checks, detections, TP/FP).
    pub fn stats(&self) -> &BwdStats {
        &self.det.stats
    }

    /// Backoff escalations taken so far (0 without `adaptive_backoff`).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// True when adaptive backoff has disabled detection on `cpu`.
    pub fn core_disabled(&self, cpu: usize) -> bool {
        self.backoff.get(cpu).is_some_and(|c| c.disabled)
    }

    fn core(&mut self, cpu: usize) -> &mut CoreBackoff {
        if self.backoff.len() <= cpu {
            self.backoff.resize(cpu + 1, CoreBackoff::default());
        }
        let c = &mut self.backoff[cpu];
        if c.stride == 0 {
            c.stride = 1;
        }
        c
    }

    /// FP rate crossed the threshold: widen the window, then disable.
    fn escalate(&mut self, cpu: usize) {
        let c = &mut self.backoff[cpu];
        if c.stride == 1 {
            c.stride = BACKOFF_STRIDE;
        } else {
            c.disabled = true;
        }
        c.detections = 0;
        c.false_positives = 0;
        self.recoveries += 1;
    }
}

impl Mechanism for BwdMechanism {
    fn name(&self) -> &'static str {
        "bwd"
    }

    fn configure(&mut self, _sub: &mut SubstrateConfig) {}

    fn timer_interval_ns(&self) -> Option<u64> {
        Some(self.det.params.interval_ns)
    }

    fn on_timer(&mut self, ctx: &mut TimerCtx<'_>) -> TimerVerdict {
        let adaptive = self.det.params.adaptive_backoff;
        if adaptive {
            let c = self.core(ctx.cpu);
            c.ticks += 1;
            if c.disabled {
                // Detection is off on this core: no inspection, no charge.
                ctx.hw.new_window();
                return TimerVerdict::default();
            }
            if !c.ticks.is_multiple_of(c.stride) {
                // Widened window: let evidence accumulate across ticks.
                return TimerVerdict::default();
            }
        }
        // Classify the raw window, apply injected sensor corruption, then
        // record the (possibly perturbed) verdict in the stats.
        let raw = self.det.check_window_quiet(ctx.hw);
        let detected = raw != ctx.sensor_flip;
        self.det.note_check(detected);
        ctx.hw.new_window();
        let deschedule = detected && ctx.has_current;
        if deschedule {
            self.det.classify_detection(ctx.real_spin);
            self.skips_set += 1;
            if adaptive {
                let min = self.det.params.backoff_min_detections;
                let threshold = self.det.params.backoff_fp_threshold;
                let c = self.core(ctx.cpu);
                c.detections += 1;
                c.false_positives += u64::from(!ctx.real_spin);
                if c.detections >= min && c.false_positives as f64 > threshold * c.detections as f64
                {
                    self.escalate(ctx.cpu);
                }
            }
        }
        TimerVerdict {
            charge_ns: self.det.params.check_cost_ns,
            deschedule,
            set_skip: true,
        }
    }

    /// Without adaptive backoff an idle-quiet tick is a pure constant: an
    /// untouched window's LBR ring is not full, so it classifies as not
    /// spinning, and clearing it is a no-op. The tick charges the check
    /// cost and records one quiet check. With backoff the per-core stride
    /// counters advance every tick, so each tick takes
    /// [`BwdMechanism::on_timer`].
    fn idle_quiet_constant(&self) -> Option<u64> {
        (!self.det.params.adaptive_backoff).then_some(self.det.params.check_cost_ns)
    }

    fn note_idle_checks(&mut self, n: u64) {
        // `Detector::note_check(false)` is exactly `stats.checks += 1`.
        self.det.stats.checks += n;
    }

    fn on_pick(&mut self, _cpu: usize, skips_released: u64) {
        self.skips_cleared += skips_released;
    }

    fn counters(&self) -> MechCounters {
        MechCounters {
            decisions: self.det.stats.detections,
            skips_set: self.skips_set,
            skips_cleared: self.skips_cleared,
            timer_checks: self.det.stats.checks,
            recoveries: self.recoveries,
            ..MechCounters::named("bwd")
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oversub_hw::CoreHw;
    use oversub_simcore::SimTime;

    fn spin_hw() -> CoreHw {
        let mut hw = CoreHw::new();
        hw.note_spin(0x5000, 0x4FF0, 33_000, 4);
        hw
    }

    fn tick(m: &mut BwdMechanism, hw: &mut CoreHw, real_spin: bool, flip: bool) -> TimerVerdict {
        let mut ctx = TimerCtx {
            cpu: 0,
            now: SimTime::ZERO,
            hw,
            has_current: true,
            real_spin,
            sensor_flip: flip,
        };
        m.on_timer(&mut ctx)
    }

    #[test]
    fn sensor_flip_inverts_classification() {
        let params = BwdParams {
            enabled: true,
            ..BwdParams::default()
        };
        // A pure spin window flipped to "work": no deschedule.
        let mut m = BwdMechanism::new(params);
        let mut hw = spin_hw();
        assert!(!tick(&mut m, &mut hw, true, true).deschedule);
        // A work window flipped to "spin": descheduled (false positive).
        let mut m = BwdMechanism::new(params);
        let mut hw = CoreHw::new();
        assert!(tick(&mut m, &mut hw, false, true).deschedule);
        assert_eq!(m.stats().false_positives, 1);
    }

    #[test]
    fn backoff_widens_then_disables_a_noisy_core() {
        let params = BwdParams {
            enabled: true,
            adaptive_backoff: true,
            backoff_min_detections: 4,
            backoff_fp_threshold: 0.5,
            ..BwdParams::default()
        };
        let mut m = BwdMechanism::new(params);
        // Feed pure false positives (work windows flipped to spin) until
        // the first escalation: the stride widens.
        let mut fired = 0;
        for _ in 0..4 {
            let mut hw = CoreHw::new();
            fired += u64::from(tick(&mut m, &mut hw, false, true).deschedule);
        }
        assert_eq!(fired, 4);
        assert_eq!(m.recoveries(), 1, "first trip widens the window");
        assert!(!m.core_disabled(0));
        // With stride 4 only every 4th tick inspects; keep feeding noise
        // until the second trip disables the core.
        for _ in 0..64 {
            let mut hw = CoreHw::new();
            tick(&mut m, &mut hw, false, true);
            if m.core_disabled(0) {
                break;
            }
        }
        assert!(m.core_disabled(0), "second trip disables the core");
        assert_eq!(m.recoveries(), 2);
        // A disabled core never deschedules and charges nothing.
        let mut hw = spin_hw();
        let v = tick(&mut m, &mut hw, true, false);
        assert!(!v.deschedule);
        assert_eq!(v.charge_ns, 0);
    }

    #[test]
    fn clean_runs_never_back_off() {
        let params = BwdParams {
            enabled: true,
            adaptive_backoff: true,
            ..BwdParams::default()
        };
        let mut m = BwdMechanism::new(params);
        for _ in 0..100 {
            let mut hw = spin_hw();
            tick(&mut m, &mut hw, true, false);
        }
        assert_eq!(m.recoveries(), 0);
        assert!(!m.core_disabled(0));
    }
}
