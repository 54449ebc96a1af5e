//! Property tests of the event queue against a naive sorted-Vec model.
//!
//! The model keeps every scheduled entry as `(time, seq, payload, state)`
//! and pops the minimum `(time, seq)` among pending entries. Both queue
//! flavors — the optimized heap/lane/slot queue and the classic plain
//! heap reference — must match it exactly: pop order and the queued-event
//! count. Payloads are unique, so payload equality on every pop pins the
//! *exact* global ordering, including FIFO among same-timestamp events
//! scheduled through different paths (one-shot, cadence lane or its heap
//! fallback, timer slot).
//!
//! Timer slots: arming a slot supersedes the slot's pending entry and
//! appends a new one; disarming supersedes it. The fast queue never pops
//! a superseded entry. The classic queue keeps them, so it must pop the
//! model's sequence with exactly the superseded entries interleaved.

use oversub_simcore::{EventQueue, SimTime};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// One-shot at `now + delta`.
    Schedule(u64),
    /// Declared-cadence entry (FIFO lane when monotone, else fallback).
    /// The index selects from a small set of intervals so several pushes
    /// share a lane and non-monotone pushes exercise the fallback.
    ScheduleCadenced(u64, usize),
    /// Arm timer slot `slot` at `now + delta`.
    Arm(usize, u64),
    /// Disarm timer slot `slot`.
    Disarm(usize),
    Pop,
}

/// Timer slots the `Arm`/`Disarm` ops draw from.
const SLOTS: usize = 4;

/// Cadences for `ScheduleCadenced`: short, a typical timer interval, and
/// long, so the lanes see re-arm-like pushes beside random ones.
const CADENCES: [u64; 3] = [8_192, 100_000, 40_000_000];

/// Deltas reach 100 ms, well past every cadence, so cadenced pushes are
/// often not monotone against their lane and exercise the heap fallback.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..100_000_000).prop_map(Op::Schedule),
            ((0u64..100_000_000), (0usize..CADENCES.len()))
                .prop_map(|(d, i)| Op::ScheduleCadenced(d, i)),
            // Small deltas make slot entries tie with the other sources.
            ((0usize..SLOTS), prop_oneof![0u64..4, 0u64..100_000_000])
                .prop_map(|(s, d)| Op::Arm(s, d)),
            (0usize..SLOTS).prop_map(Op::Disarm),
            Just(Op::Pop),
            Just(Op::Pop),
        ],
        1..200,
    )
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum ModelState {
    Pending,
    /// A slot entry that a later arm or a disarm replaced. Only the
    /// classic queue still holds it.
    Superseded,
    Popped,
}

struct Model {
    /// One entry per schedule or arm call, in seq (= insertion) order.
    entries: Vec<(u64, u64, ModelState)>, // (time, payload, state)
    /// Per timer slot: the index of its entry, if any was armed.
    slots: [Option<usize>; SLOTS],
}

impl Model {
    fn new() -> Self {
        Model {
            entries: Vec::new(),
            slots: [None; SLOTS],
        }
    }

    /// Supersede `slot`'s entry if it is still pending.
    fn disarm(&mut self, slot: usize) {
        if let Some(idx) = self.slots[slot] {
            if self.entries[idx].2 == ModelState::Pending {
                self.entries[idx].2 = ModelState::Superseded;
            }
        }
    }

    fn arm(&mut self, slot: usize, at: u64, payload: u64) {
        self.disarm(slot);
        self.entries.push((at, payload, ModelState::Pending));
        self.slots[slot] = Some(self.entries.len() - 1);
    }

    /// Pop a superseded entry the classic queue returned (identified by
    /// its unique payload); false if it is not one.
    fn pop_superseded(&mut self, payload: u64) -> bool {
        match self.entries.iter_mut().find(|e| e.1 == payload) {
            Some(e) if e.2 == ModelState::Superseded => {
                e.2 = ModelState::Popped;
                true
            }
            _ => false,
        }
    }

    /// Entries a queue that keeps superseded slot entries still holds.
    fn held(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.2, ModelState::Pending | ModelState::Superseded))
            .count()
    }

    fn schedule(&mut self, at: u64, payload: u64) {
        self.entries.push((at, payload, ModelState::Pending));
    }

    /// Minimum (time, seq) pending entry; seq order is entry order.
    fn pop(&mut self) -> Option<(u64, u64)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.2 == ModelState::Pending)
            .min_by_key(|(seq, e)| (e.0, *seq))
            .map(|(seq, _)| seq)?;
        self.entries[best].2 = ModelState::Popped;
        Some((self.entries[best].0, self.entries[best].1))
    }

    fn live(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.2 == ModelState::Pending)
            .count()
    }
}

/// `exact` asserts the fast queue's contract: superseded slot entries
/// are never popped and never counted. The classic queue keeps them: a
/// model pop on it skips exactly those, each popped in its own place,
/// and its `len()` counts them until they pop.
fn check_against_model(mut q: EventQueue<u64>, ops: Vec<Op>, exact: bool) {
    let mut model = Model::new();
    let mut next_payload = 0u64;
    let mut now = 0u64; // last popped time: schedules are now-relative
    for op in ops {
        match op {
            Op::Schedule(d) => {
                q.schedule_nocancel(SimTime::from_nanos(now + d), next_payload);
                model.schedule(now + d, next_payload);
                next_payload += 1;
            }
            Op::ScheduleCadenced(d, i) => {
                q.schedule_cadenced(SimTime::from_nanos(now + d), CADENCES[i], next_payload);
                model.schedule(now + d, next_payload);
                next_payload += 1;
            }
            Op::Arm(slot, d) => {
                q.arm(slot, SimTime::from_nanos(now + d), next_payload);
                model.arm(slot, now + d, next_payload);
                next_payload += 1;
            }
            Op::Disarm(slot) => {
                q.disarm(slot);
                model.disarm(slot);
            }
            Op::Pop => {
                let got = pop_live(&mut q, &mut model, exact);
                let want = model.pop();
                prop_assert_eq!(got, want, "pop order diverged");
                if let Some((t, _)) = got {
                    now = t;
                }
            }
        }
        let want = if exact { model.live() } else { model.held() };
        prop_assert_eq!(q.len(), want, "queued count diverged");
        prop_assert_eq!(q.is_empty(), want == 0);
    }
    // Drain: the tail order must match too.
    loop {
        let got = pop_live(&mut q, &mut model, exact);
        let want = model.pop();
        prop_assert_eq!(got, want, "drain order diverged");
        if got.is_none() {
            break;
        }
    }
    if !exact {
        prop_assert_eq!(model.held(), 0, "classic queue lost a superseded entry");
    }
}

/// Pop `q`'s next entry the model holds live. With `exact` that is
/// simply the next pop; otherwise superseded slot entries popped on the
/// way are checked against the model and skipped.
fn pop_live(q: &mut EventQueue<u64>, model: &mut Model, exact: bool) -> Option<(u64, u64)> {
    loop {
        let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
        match got {
            Some((_, p)) if !exact && model.pop_superseded(p) => continue,
            _ => return got,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The optimized heap + lane + slot queue matches the naive model.
    #[test]
    fn fast_queue_matches_model(ops in arb_ops()) {
        check_against_model(EventQueue::new(), ops, true);
    }

    /// The classic reference queue matches the same model, so both queue
    /// flavors are interchangeable event-for-event.
    #[test]
    fn classic_queue_matches_model(ops in arb_ops()) {
        check_against_model(EventQueue::classic(), ops, false);
    }

    /// Timers that re-arm one interval after each fire, as the engine's
    /// handlers do, pop the identical `(time, payload)` stream from the
    /// fast queue (mostly lane appends) as from the classic queue.
    #[test]
    fn cadenced_rearms_match_classic(
        // (timer id, initial stagger) pairs; ids pick one of CADENCES.
        timers in proptest::collection::vec(
            ((0usize..CADENCES.len()), (0u64..200_000)), 1..24),
        // Interleaved one-shot noise.
        noise in proptest::collection::vec(0u64..300_000, 0..16),
        pops in 32usize..256,
    ) {
        let mut fast = EventQueue::new();
        let mut classic = EventQueue::classic();
        // Payload encodes the timer's identity; one-shot noise gets ids
        // past the timer range.
        for (k, &(i, stagger)) in timers.iter().enumerate() {
            let at = SimTime::from_nanos(CADENCES[i] + stagger);
            fast.schedule_cadenced(at, CADENCES[i], k as u64);
            classic.schedule_cadenced(at, CADENCES[i], k as u64);
        }
        for (j, &d) in noise.iter().enumerate() {
            let p = (timers.len() + j) as u64;
            fast.schedule_nocancel(SimTime::from_nanos(d), p);
            classic.schedule_nocancel(SimTime::from_nanos(d), p);
        }
        for _ in 0..pops {
            let got = fast.pop();
            let want = classic.pop();
            prop_assert_eq!(got, want, "pop streams diverged");
            let Some((t, p)) = got else { break };
            // A popped timer re-arms first, one interval later.
            if let Some(&(i, _)) = timers.get(p as usize) {
                let at = t + CADENCES[i];
                fast.schedule_cadenced(at, CADENCES[i], p);
                classic.schedule_cadenced(at, CADENCES[i], p);
            }
        }
    }
}
