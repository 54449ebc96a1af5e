//! Per-CPU scheduler state.

use crate::rq::CfsRq;
use oversub_hw::CoreHw;
use oversub_simcore::{KernelLock, KernelLockParams, SimTime};
use oversub_task::TaskId;
use std::collections::BTreeMap;

/// Breakdown of where a CPU's time went — the basis of the paper's
/// "CPU utilization" column in Table 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimeStats {
    /// Time executing program work (compute / memory / critical sections).
    pub useful_ns: u64,
    /// Time burnt in busy-wait loops.
    pub spin_ns: u64,
    /// Kernel overhead: context switches, wakeup paths, balancing, VB polls.
    pub kernel_ns: u64,
    /// Idle time.
    pub idle_ns: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Involuntary preemptions among those.
    pub preemptions: u64,
}

impl CpuTimeStats {
    /// Total accounted time.
    pub fn total_ns(&self) -> u64 {
        self.useful_ns + self.spin_ns + self.kernel_ns + self.idle_ns
    }

    /// Busy (non-idle) time.
    pub fn busy_ns(&self) -> u64 {
        self.useful_ns + self.spin_ns + self.kernel_ns
    }
}

/// State of one logical CPU.
pub struct CpuState {
    /// The CFS runqueue.
    pub rq: CfsRq,
    /// Currently running task, if any.
    pub current: Option<TaskId>,
    /// When the current task started its on-CPU stint.
    pub curr_since: SimTime,
    /// The runqueue spinlock (contended during bulk wakeups).
    pub rq_lock: KernelLock,
    /// Monitored hardware state (LBR + PMCs) for BWD.
    pub hw: CoreHw,
    /// The task that most recently ran here (cache-pollution tracking).
    pub last_ran: Option<TaskId>,
    /// Monotone counter of picks, used to expire BWD skip flags.
    pub pick_round: u64,
    /// `task -> pick_round` at which its BWD skip flag expires.
    pub skip_release: BTreeMap<TaskId, u64>,
    /// Next periodic load-balance time.
    pub next_balance: SimTime,
    /// Time accounting.
    pub time: CpuTimeStats,
    /// Virtual time up to which this CPU's time has been accounted.
    pub accounted_until: SimTime,
}

impl CpuState {
    /// Fresh CPU state.
    pub fn new(rq_lock_params: KernelLockParams) -> Self {
        CpuState {
            rq: CfsRq::new(),
            current: None,
            curr_since: SimTime::ZERO,
            rq_lock: KernelLock::new(rq_lock_params),
            hw: CoreHw::new(),
            last_ran: None,
            pick_round: 0,
            skip_release: BTreeMap::new(),
            next_balance: SimTime::ZERO,
            time: CpuTimeStats::default(),
            accounted_until: SimTime::ZERO,
        }
    }

    /// True if nothing is running and nothing schedulable is queued.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.rq.nr_schedulable() == 0
    }

    /// Load metric used by wake placement and balancing: queued tasks
    /// (including the running one). VB-parked tasks count — that is the
    /// mechanism that keeps load stable under VB.
    pub fn load(&self) -> usize {
        self.rq.nr_queued() + usize::from(self.current.is_some())
    }

    /// Schedulable depth (for slice computation): runnable + running.
    pub fn nr_for_slice(&self) -> usize {
        self.rq.nr_schedulable() + usize::from(self.current.is_some())
    }

    /// Account a span of idle time ending at `now`.
    pub fn account_idle(&mut self, now: SimTime) {
        let span = now.saturating_since(self.accounted_until);
        self.time.idle_ns += span;
        self.accounted_until = now;
    }

    /// Account `n` periodic timer ticks on this idle CPU, fired at
    /// `first`, `first + interval_ns`, … Each tick, taken alone, books
    /// the idle span up to its fire time and then charges `charge_ns` of
    /// kernel time from the cursor. This is the closed form of applying
    /// them one at a time, in O(1).
    ///
    /// With `charge_ns <= interval_ns` each charge ends by the next fire
    /// time, so from a cursor `c0` the ticks leave it at
    /// `max(c0 + n·charge, last + charge)`, where `last` is the final
    /// fire time. Kernel time grows by `n·charge` and idle time by the
    /// rest of the cursor's advance. A single tick (`n == 1`) needs no
    /// bound on its charge.
    pub fn account_idle_ticks(&mut self, first: SimTime, n: u64, interval_ns: u64, charge_ns: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(
            n == 1 || charge_ns <= interval_ns,
            "tick charge {charge_ns} ns exceeds its {interval_ns} ns interval"
        );
        let c0 = self.accounted_until.as_nanos();
        let charged = n * charge_ns;
        let last = first.as_nanos() + (n - 1) * interval_ns;
        let cursor = (c0 + charged).max(last + charge_ns);
        self.time.kernel_ns += charged;
        self.time.idle_ns += cursor - c0 - charged;
        self.accounted_until = SimTime::from_nanos(cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cpu_is_idle() {
        let c = CpuState::new(KernelLockParams::default());
        assert!(c.is_idle());
        assert_eq!(c.load(), 0);
        assert_eq!(c.nr_for_slice(), 0);
    }

    #[test]
    fn time_stats_sum() {
        let s = CpuTimeStats {
            useful_ns: 10,
            spin_ns: 5,
            kernel_ns: 3,
            idle_ns: 2,
            ..CpuTimeStats::default()
        };
        assert_eq!(s.total_ns(), 20);
        assert_eq!(s.busy_ns(), 18);
    }

    /// The engine's one-tick-at-a-time idle accounting: book idle time
    /// up to the fire time, then charge kernel time from the cursor.
    fn tick_by_tick(c: &mut CpuState, first: u64, n: u64, interval: u64, charge: u64) {
        for j in 0..n {
            let t = SimTime::from_nanos(first + j * interval);
            c.account_idle(t.max_of(c.accounted_until));
            c.time.kernel_ns += charge;
            c.accounted_until += charge;
        }
    }

    fn cpu_at(cursor: u64) -> CpuState {
        let mut c = CpuState::new(KernelLockParams::default());
        c.account_idle(SimTime::from_nanos(cursor));
        c
    }

    fn snapshot(c: &CpuState) -> (u64, u64, SimTime) {
        (c.time.idle_ns, c.time.kernel_ns, c.accounted_until)
    }

    proptest::proptest! {
        /// The closed form equals `n` ticks applied one at a time, from
        /// a cursor before, inside or after the first tick's charge, for
        /// charges from zero up to the whole interval.
        #[test]
        fn idle_ticks_closed_form_matches_tick_by_tick(
            interval in 1u64..200_000,
            charge_frac in 0u64..1_001,
            first in 0u64..1_000_000,
            cursor_off in 0u64..3_000_000,
            n in 0u64..10_000,
        ) {
            let charge = interval * charge_frac / 1_000;
            // Cursor offsets span well before the first tick to several
            // intervals past it.
            let cursor = (first + cursor_off).saturating_sub(1_000_000);
            let mut want = cpu_at(cursor);
            tick_by_tick(&mut want, first, n, interval, charge);
            let mut got = cpu_at(cursor);
            got.account_idle_ticks(SimTime::from_nanos(first), n, interval, charge);
            proptest::prop_assert_eq!(snapshot(&got), snapshot(&want));
        }
    }

    #[test]
    fn idle_ticks_closed_form_edge_cases() {
        // (cursor, first, n, interval, charge): cursor before, inside and
        // after the first tick's charge; k = 0; k = I; n = 10^4.
        let cases = [
            (0, 500, 3, 100, 25),
            (510, 500, 3, 100, 25),
            (525, 500, 3, 100, 25),
            (900, 500, 3, 100, 25),
            (100, 500, 4, 100, 0),
            (100, 500, 4, 100, 100),
            (650, 500, 4, 100, 100),
            (7_919, 107_919, 10_000, 100_000, 250),
            (5_000_000_000, 107_919, 10_000, 100_000, 100_000),
        ];
        for (cursor, first, n, interval, charge) in cases {
            let mut want = cpu_at(cursor);
            tick_by_tick(&mut want, first, n, interval, charge);
            let mut got = cpu_at(cursor);
            got.account_idle_ticks(SimTime::from_nanos(first), n, interval, charge);
            assert_eq!(
                snapshot(&got),
                snapshot(&want),
                "cursor {cursor}, first {first}, n {n}, I {interval}, k {charge}"
            );
        }
    }

    #[test]
    fn idle_accounting_advances_cursor() {
        let mut c = CpuState::new(KernelLockParams::default());
        c.account_idle(SimTime::from_nanos(500));
        assert_eq!(c.time.idle_ns, 500);
        c.account_idle(SimTime::from_nanos(700));
        assert_eq!(c.time.idle_ns, 700);
        assert_eq!(c.accounted_until, SimTime::from_nanos(700));
    }
}
