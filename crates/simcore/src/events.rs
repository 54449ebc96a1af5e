//! The discrete-event queue driving the simulation.
//!
//! Events are `(time, payload)` pairs. Ties on time are broken by insertion
//! order (a monotonically increasing sequence number), which keeps the
//! simulation fully deterministic without requiring payloads to be `Ord`.
//!
//! The fast queue's full key is `(time, scheduled_at, seq)`, where
//! `scheduled_at` is the sim time of the pop during which the event was
//! scheduled. Sim time never runs backwards, so for every ordinary
//! schedule call `scheduled_at` rises with `seq` and the key orders
//! exactly like `(time, seq)`. The extra component exists for
//! [`EventQueue::schedule_backdated`]: an event placed as though it had
//! been scheduled at an earlier sim time, which is how the engine re-arms
//! a timer it let lapse (tickless idle) where the ticking timer would
//! have stood.
//!
//! Two implementations live behind [`EventQueue`]:
//!
//! - The default **fast** queue pops the minimum key over three sources:
//!   - a binary heap for irregular events, fronted by one slot that
//!     holds the earliest heap-bound entry while it is earlier than the
//!     heap's top, so an event scheduled to be next pops without a sift;
//!   - per-cadence FIFO lanes for timers declared through
//!     [`EventQueue::schedule_cadenced`];
//!   - re-armable timer slots ([`EventQueue::arm`]): an indexed heap
//!     holding at most one entry per slot, where arming a slot replaces
//!     its pending entry and [`EventQueue::disarm`] removes it, so a
//!     superseded one-shot timer never enters the queue's pop path.
//! - The **classic** queue ([`EventQueue::classic`]): one plain
//!   `BinaryHeap`, kept as the measurement baseline and as the reference
//!   model for the golden determinism test. Both implementations draw
//!   sequence numbers the same way, so they pop the exact same
//!   `(time, seq)` order for the same call sequence, except that the
//!   classic queue keeps and pops the entries that re-arming or
//!   disarming a slot superseded. Only the classic queue can permute
//!   equal-time ties ([`EventQueue::classic_salted`]), which is the queue
//!   the reference engine and the schedule-robustness certifier run on.
//!
//! A one-shot event cannot be taken back once queued. A timer that may
//! be re-armed or retired goes in a slot ([`EventQueue::arm`]).
//!
//! A caller can also draw an event's key without queuing the event
//! ([`EventQueue::reserve`]) and queue it under that key later
//! ([`EventQueue::schedule_reserved`]), or never: the engine holds back
//! reschedules that provably start nothing this way (DESIGN.md §8).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Pop-order key of a fast-queue entry: `(time, scheduled_at, seq)` (see
/// the module docs).
type Key = (SimTime, SimTime, u64);

/// A key drawn by [`EventQueue::reserve`] for an event not yet queued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reserved(Key);

/// Tie-break key for a sequence number under a permutation salt.
///
/// Salt `0` is the identity: ties break in insertion order, the pinned
/// production behavior. A non-zero salt feeds `seq ^ salt` through the
/// SplitMix64 finalizer — a *bijection* on `u64`, so distinct sequence
/// numbers keep distinct keys (no collisions, still a total order) while
/// equal-time events pop in a salt-dependent pseudorandom permutation of
/// their insertion order.
///
/// The permutation is scoped to a *burst*: the schedule calls made while
/// one popped event is being processed (see `HeapEntry::ord`). Equal-time
/// events from the same burst — a handler fanning out over a woken list,
/// a CPU scan, a spinner set — permute; equal-time events from different
/// bursts keep burst (causal) order. That targets exactly the
/// insertion-order coincidences a handler's iteration order produces,
/// which must be outcome-irrelevant, while cross-handler equal-time order
/// remains the simulation's pinned deterministic scheduling choice. The
/// schedule-robustness certifier runs the same config under several salts
/// and asserts the reports are byte-identical.
fn mix_ord(seq: u64, salt: u64) -> u64 {
    if salt == 0 {
        return seq;
    }
    let mut z = seq ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An entry of the classic queue, ordered by `(time, ord)`.
struct HeapEntry<E> {
    time: SimTime,
    /// Tie-break key: `(burst at insert, mix_ord(seq, salt))`. Unsalted
    /// this is `(burst, seq)`, lexicographically the same order as raw
    /// `seq` (bursts are monotone in insertion order), so salt `0` is
    /// bit-for-bit the pinned behavior.
    ord: (u64, u64),
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.ord == other.ord
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, ord)
        // pops first.
        (other.time, other.ord).cmp(&(self.time, self.ord))
    }
}

/// A fast-queue entry, in the heap or in a lane.
struct Entry<E> {
    time: SimTime,
    /// Sim time the entry was scheduled at: the queue's clock, or the
    /// explicit back-date of [`EventQueue::schedule_backdated`].
    sched_at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> Key {
        (self.time, self.sched_at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops
        // first. `(time, sched_at)` compares as one 128-bit word:
        // measured faster in the sift loops than chaining a third
        // `then_with`.
        let primary =
            |e: &Self| ((e.time.as_nanos() as u128) << 64) | e.sched_at.as_nanos() as u128;
        primary(other)
            .cmp(&primary(self))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// FIFO lane for one timer cadence (see [`EventQueue::schedule_cadenced`]).
/// A fixed-interval timer fires in key order and re-arms one interval
/// after each fire, so within a single cadence the pushed keys are
/// monotone non-decreasing: the deque *is* sorted, insert is
/// `push_back`, and the earliest entry is `front`. Pushes that would
/// break monotonicity (the staggered initial arms, fault-injected timer
/// jitter) go to the heap instead, under the same key, so the invariant
/// is checked, never assumed.
struct Lane<E> {
    interval_ns: u64,
    q: VecDeque<Entry<E>>,
}

/// Cap on distinct cadences; pushes of any further cadence go to the
/// heap. Lanes are scanned linearly on every pop, so this must stay
/// small. Real engines have a handful (mechanism timer, balance,
/// watchdog, fault tick).
const MAX_LANES: usize = 8;

/// `TimerCell::pos` value of a slot with no pending entry.
const UNARMED: u32 = u32::MAX;

/// Cell `k` of [`TimerSlots`]: slot `k`'s pending entry and its heap
/// position, plus the slot at heap position `k`.
struct TimerCell<E> {
    /// Key of slot `k`'s pending entry (stale while unarmed).
    key: Key,
    /// Payload of slot `k`'s pending entry; `None` while unarmed.
    payload: Option<E>,
    /// Heap position of slot `k`'s pending entry, or [`UNARMED`].
    pos: u32,
    /// The slot whose entry is at heap position `k` (for `k < len`).
    heap: u32,
}

impl<E> TimerCell<E> {
    fn vacant() -> Self {
        TimerCell {
            key: (SimTime::ZERO, SimTime::ZERO, 0),
            payload: None,
            pos: UNARMED,
            heap: 0,
        }
    }
}

/// Re-armable timer slots (see [`EventQueue::arm`]): an indexed binary
/// min-heap over the armed slots. Entries live per slot, and a slot →
/// heap-position map finds a slot's pending entry in O(1), so re-arming
/// or disarming it restores heap order in O(log armed). All three
/// arrays share one allocation.
struct TimerSlots<E> {
    /// Indexed by slot for `key`/`payload`/`pos`, by heap position for
    /// `heap`. Heap order: the entry at position `i` is no later than
    /// those at `2i + 1` and `2i + 2`.
    cells: Vec<TimerCell<E>>,
    /// Number of armed slots, which hold heap positions `0..len`.
    len: usize,
}

impl<E> TimerSlots<E> {
    fn new() -> Self {
        TimerSlots {
            cells: Vec::new(),
            len: 0,
        }
    }

    /// Make room for slots `0..n`, so arming them never allocates.
    /// Cells are initialized as slots are first armed.
    fn reserve(&mut self, n: usize) {
        self.cells.reserve(n.saturating_sub(self.cells.len()));
    }

    /// Key of the entry at heap position `i`.
    fn key_at(&self, i: usize) -> Key {
        self.cells[self.cells[i].heap as usize].key
    }

    fn peek_key(&self) -> Option<Key> {
        (self.len > 0).then(|| self.key_at(0))
    }

    /// Swap heap positions `i` and `j`.
    fn swap(&mut self, i: usize, j: usize) {
        let (a, b) = (self.cells[i].heap, self.cells[j].heap);
        self.cells[i].heap = b;
        self.cells[j].heap = a;
        self.cells[b as usize].pos = i as u32;
        self.cells[a as usize].pos = j as u32;
    }

    /// Move the entry at `i` up to its place; returns where it settled.
    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key_at(parent) <= self.key_at(i) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    /// Move the entry at `i` down to its place.
    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.len {
                return;
            }
            let right = left + 1;
            let child = if right < self.len && self.key_at(right) < self.key_at(left) {
                right
            } else {
                left
            };
            if self.key_at(i) <= self.key_at(child) {
                return;
            }
            self.swap(i, child);
            i = child;
        }
    }

    /// Put an entry in `slot`; returns whether it replaced a pending one.
    fn arm(&mut self, slot: usize, key: Key, payload: E) -> bool {
        if slot >= self.cells.len() {
            assert!(slot < UNARMED as usize, "timer slot {slot} out of range");
            self.cells.resize_with(slot + 1, TimerCell::vacant);
        }
        let cell = &mut self.cells[slot];
        cell.key = key;
        cell.payload = Some(payload);
        let p = cell.pos;
        if p == UNARMED {
            // Every armed slot has a cell, so position `len` does too.
            let i = self.len;
            self.len += 1;
            self.cells[i].heap = slot as u32;
            self.cells[slot].pos = i as u32;
            self.sift_up(i);
            false
        } else {
            // The new key may be earlier or later than the old one.
            let i = self.sift_up(p as usize);
            self.sift_down(i);
            true
        }
    }

    /// Remove the entry at heap position `i`, returning its key and
    /// payload. The last entry takes its place and may belong above or
    /// below it, so it sifts both ways.
    fn remove_at(&mut self, i: usize) -> (Key, Option<E>) {
        let last = self.len - 1;
        self.swap(i, last);
        self.len = last;
        let slot = self.cells[last].heap as usize;
        let cell = &mut self.cells[slot];
        cell.pos = UNARMED;
        let removed = (cell.key, cell.payload.take());
        if i < last {
            let j = self.sift_up(i);
            self.sift_down(j);
        }
        removed
    }

    /// Remove `slot`'s pending entry; returns whether it had one.
    fn disarm(&mut self, slot: usize) -> bool {
        match self.cells.get(slot) {
            Some(cell) if cell.pos != UNARMED => {
                self.remove_at(cell.pos as usize);
                true
            }
            _ => false,
        }
    }

    /// Pop the earliest entry: its key and payload.
    fn pop(&mut self) -> Option<(Key, E)> {
        if self.len == 0 {
            return None;
        }
        let (key, payload) = self.remove_at(0);
        debug_assert!(payload.is_some(), "armed slot without a payload");
        Some((key, payload?))
    }
}

/// The source holding a fast queue's minimum key.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Slots,
    Lane(usize),
}

/// The default implementation: a heap with a front slot, per-cadence
/// FIFO lanes and re-armable timer slots.
struct FastQueue<E> {
    /// The earliest heap-bound entry, kept out of `heap` while it is
    /// earlier than every entry there: the heap source's minimum.
    front: Option<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    lanes: Vec<Lane<E>>,
    timers: TimerSlots<E>,
    next_seq: u64,
    /// Exact number of queued (not yet popped) events, armed timer slots
    /// included.
    live: usize,
    /// Sim time of the most recent pop: the `scheduled_at` stamp of every
    /// ordinary schedule call.
    now: SimTime,
    /// Key of the most recently popped entry.
    popped: Key,
}

impl<E> FastQueue<E> {
    fn new() -> Self {
        FastQueue {
            front: None,
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            timers: TimerSlots::new(),
            next_seq: 0,
            live: 0,
            now: SimTime::ZERO,
            popped: (SimTime::ZERO, SimTime::ZERO, 0),
        }
    }

    /// Draw the next sequence number: every schedule call and every arm
    /// takes one.
    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// A new live entry keyed `(at, sched_at, next seq)`.
    fn entry(&mut self, at: SimTime, sched_at: SimTime, payload: E) -> Entry<E> {
        self.live += 1;
        Entry {
            time: at,
            sched_at,
            seq: self.draw_seq(),
            payload,
        }
    }

    /// Put a heap-bound entry in the front slot if it is earlier than
    /// everything the heap source holds, else in the heap. An entry the
    /// front slot gives up goes to the heap.
    fn push_heap(&mut self, e: Entry<E>) {
        match &mut self.front {
            Some(f) if e.key() < f.key() => self.heap.push(std::mem::replace(f, e)),
            Some(_) => self.heap.push(e),
            None if self.heap.peek().is_none_or(|top| e.key() < top.key()) => {
                self.front = Some(e);
            }
            None => self.heap.push(e),
        }
    }

    fn schedule_nocancel(&mut self, at: SimTime, payload: E) {
        let e = self.entry(at, self.now, payload);
        self.push_heap(e);
    }

    /// A heap entry keyed as though scheduled at sim time `sched_at` (see
    /// [`EventQueue::schedule_backdated`]).
    fn schedule_backdated(&mut self, at: SimTime, sched_at: SimTime, payload: E) {
        debug_assert!(sched_at <= self.now, "back-dated into the future");
        let e = self.entry(at, sched_at, payload);
        self.push_heap(e);
    }

    /// Draw the key an ordinary schedule call at `at` would take.
    fn reserve(&mut self, at: SimTime) -> Reserved {
        Reserved((at, self.now, self.draw_seq()))
    }

    /// Queue an entry under a reserved key.
    fn schedule_reserved(&mut self, r: Reserved, payload: E) {
        let (time, sched_at, seq) = r.0;
        debug_assert!(r.0 > self.popped, "reserved key already passed");
        self.live += 1;
        self.push_heap(Entry {
            time,
            sched_at,
            seq,
            payload,
        });
    }

    /// Append to the cadence's lane when the key is monotone against its
    /// back; anything else (initial staggered arms, jittered re-arms,
    /// cadence overflow) goes to the heap. Ordering is identical either
    /// way: lanes share the global sequence counter and pops compare
    /// keys across all sources.
    fn schedule_cadenced(&mut self, at: SimTime, interval_ns: u64, payload: E) {
        let e = self.entry(at, self.now, payload);
        let lane = match self.lanes.iter().position(|l| l.interval_ns == interval_ns) {
            Some(i) => Some(i),
            None if self.lanes.len() < MAX_LANES => {
                self.lanes.push(Lane {
                    interval_ns,
                    q: VecDeque::new(),
                });
                Some(self.lanes.len() - 1)
            }
            None => None,
        };
        match lane.map(|i| &mut self.lanes[i].q) {
            Some(q) if q.back().is_none_or(|b| b.key() <= e.key()) => q.push_back(e),
            _ => self.push_heap(e),
        }
    }

    /// Arm timer slot `slot` (see [`EventQueue::arm`]). The sequence
    /// number and scheduled-at stamp are drawn exactly as
    /// [`schedule_nocancel`](Self::schedule_nocancel) draws them, so the
    /// entry's key is the one a heap entry would have had.
    fn arm(&mut self, slot: usize, at: SimTime, payload: E) {
        let seq = self.draw_seq();
        if !self.timers.arm(slot, (at, self.now, seq), payload) {
            self.live += 1;
        }
    }

    /// Disarm timer slot `slot` (see [`EventQueue::disarm`]).
    fn disarm(&mut self, slot: usize) {
        if self.timers.disarm(slot) {
            self.live -= 1;
        }
    }

    /// The minimum key and the source holding it.
    fn min_source(&self) -> Option<(Key, Source)> {
        let mut best = self
            .front
            .as_ref()
            .or_else(|| self.heap.peek())
            .map(|e| (e.key(), Source::Heap));
        let mut consider = |k: Key, src: Source| {
            if best.is_none_or(|(b, _)| k < b) {
                best = Some((k, src));
            }
        };
        if let Some(k) = self.timers.peek_key() {
            consider(k, Source::Slots);
        }
        for (i, l) in self.lanes.iter().enumerate() {
            if let Some(e) = l.q.front() {
                consider(e.key(), Source::Lane(i));
            }
        }
        best
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, src) = self.min_source()?;
        let (key, payload) = match src {
            Source::Heap => {
                let e = self.front.take().or_else(|| self.heap.pop())?;
                (e.key(), e.payload)
            }
            Source::Slots => self.timers.pop()?,
            Source::Lane(i) => {
                let e = self.lanes[i].q.pop_front()?;
                (e.key(), e.payload)
            }
        };
        self.live -= 1;
        self.now = key.0;
        self.popped = key;
        Some((key.0, payload))
    }
}

/// The seed implementation's plain binary heap, the reference baseline
/// and the only queue that permutes ties (salted,
/// [`EventQueue::classic_salted`]). It has no timer slots: `arm` is a
/// plain `schedule` and `disarm` a no-op, so the reference engine pops
/// every superseded timer, as the seed engine did.
struct ClassicQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    /// Tie-break permutation salt (see [`mix_ord`]).
    salt: u64,
    /// Burst counter: incremented on every pop, stamped into each entry's
    /// tie-break key at insert. Scopes the salt permutation to the events
    /// one handler execution scheduled (see [`mix_ord`]).
    burst: u64,
}

impl<E> ClassicQueue<E> {
    fn new(salt: u64) -> Self {
        ClassicQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            salt,
            burst: 0,
        }
    }

    /// Queue `payload` at `at`, in insertion order among equal times (no
    /// scheduled-at key).
    fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            time: at,
            ord: (self.burst, mix_ord(seq, self.salt)),
            payload,
        });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.burst += 1;
        self.heap.pop().map(|e| (e.time, e.payload))
    }
}

// One queue exists per engine (never arrays of them), so the size gap
// between the lane-carrying fast queue and the bare classic heap is
// irrelevant and boxing would only add a pointer chase to every pop.
#[allow(clippy::large_enum_variant)]
enum Imp<E> {
    Fast(FastQueue<E>),
    Classic(ClassicQueue<E>),
}

/// A deterministic min-priority event queue.
pub struct EventQueue<E> {
    imp: Imp<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue (fast implementation: heap with a front
    /// slot, cadence lanes and timer slots).
    pub fn new() -> Self {
        EventQueue {
            imp: Imp::Fast(FastQueue::new()),
        }
    }

    /// Create an empty queue using the reference implementation (one
    /// plain `BinaryHeap`).
    pub fn classic() -> Self {
        Self::classic_salted(0)
    }

    /// [`classic`](Self::classic) with the equal-time tie-break
    /// permutation salt `salt` (see `mix_ord`). `0` is pinned insertion
    /// order; non-zero values pop equal-time events in a salt-dependent
    /// deterministic permutation — the schedule-robustness certifier's
    /// knob.
    pub fn classic_salted(salt: u64) -> Self {
        EventQueue {
            imp: Imp::Classic(ClassicQueue::new(salt)),
        }
    }

    /// True if this queue uses the reference implementation.
    pub fn is_classic(&self) -> bool {
        matches!(self.imp, Imp::Classic(_))
    }

    /// Schedule the one-shot event `payload` at absolute time `at`. It
    /// cannot be taken back; a timer that may be re-armed or retired
    /// belongs in a slot ([`arm`](Self::arm)).
    pub fn schedule_nocancel(&mut self, at: SimTime, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule_nocancel(at, payload),
            Imp::Classic(q) => q.schedule(at, payload),
        }
    }

    /// Schedule a one-shot event at `at` keyed as though it had been
    /// scheduled at the earlier sim time `scheduled_at` (see the
    /// module docs): among events due at `at`, it pops after those
    /// scheduled before `scheduled_at` and before those scheduled after
    /// it. Ties with events scheduled at exactly `scheduled_at` break by
    /// insertion order, as always. The engine uses this to re-arm a
    /// timer it let lapse where the still-ticking timer would stand: a
    /// re-arm drawn at `scheduled_at` by the previous tick.
    ///
    /// Always a heap entry on the fast queue. The classic queue, which
    /// has no scheduled-at key, schedules it plainly, in insertion order.
    pub fn schedule_backdated(&mut self, at: SimTime, scheduled_at: SimTime, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule_backdated(at, scheduled_at, payload),
            Imp::Classic(q) => q.schedule(at, payload),
        }
    }

    /// Alias of [`schedule_nocancel`](Self::schedule_nocancel), kept for
    /// the benchmark's queue probe.
    pub fn schedule_periodic(&mut self, at: SimTime, payload: E) {
        self.schedule_nocancel(at, payload)
    }

    /// Schedule a one-shot tick of a fixed-interval timer, declaring its
    /// cadence. On the fast queue, a timer that re-arms one
    /// interval after each fire pushes monotone `(time, scheduled_at,
    /// seq)` keys per cadence, so its ticks append to the cadence's FIFO
    /// lane with O(1) insert and O(1) pop. A push that is not monotone
    /// (staggered initial arms, jittered re-arms) goes to the heap under
    /// the same key, and the classic queue treats this as a plain
    /// `schedule`: the popped order is identical in every case.
    pub fn schedule_cadenced(&mut self, at: SimTime, interval_ns: u64, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule_cadenced(at, interval_ns, payload),
            Imp::Classic(q) => q.schedule(at, payload),
        }
    }

    /// Make room for timer slots `0..n` (see [`arm`](Self::arm)), so
    /// arming them never allocates. Optional: `arm` grows the slot map
    /// on demand.
    pub fn reserve_timer_slots(&mut self, n: usize) {
        if let Imp::Fast(q) = &mut self.imp {
            q.timers.reserve(n);
        }
    }

    /// Arm re-armable timer slot `slot` to deliver `payload` at `at`,
    /// replacing the entry the slot held, if any: the replaced entry
    /// never pops. This is a per-CPU kernel timer's `hrtimer_start`,
    /// which takes a pending expiry out of the queue before it enqueues
    /// the new one. Slots are small dense indices chosen by the caller.
    ///
    /// The entry is keyed exactly as [`schedule_nocancel`] would key it:
    /// it draws the next sequence number and is stamped with the current
    /// sim time, so it pops in the same place among every other source's
    /// events.
    ///
    /// Only the fast queue keeps the slot. The classic queue treats `arm`
    /// as a plain `schedule`, so it keeps the superseded entry and pops
    /// it. A caller must therefore still recognise a superseded entry
    /// when it pops (the engine checks an epoch); the slot only saves
    /// the pop.
    ///
    /// [`schedule_nocancel`]: Self::schedule_nocancel
    pub fn arm(&mut self, slot: usize, at: SimTime, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.arm(slot, at, payload),
            Imp::Classic(q) => q.schedule(at, payload),
        }
    }

    /// Remove timer slot `slot`'s pending entry, if it has one. It draws
    /// no sequence number. A no-op on the classic queue, which keeps
    /// every armed entry (see [`arm`](Self::arm)).
    pub fn disarm(&mut self, slot: usize) {
        if let Imp::Fast(q) = &mut self.imp {
            q.disarm(slot);
        }
    }

    /// Draw the key that [`schedule_nocancel`](Self::schedule_nocancel)
    /// would give an event at `at` now, without queuing anything: it
    /// takes the next sequence number and the current sim time. The
    /// caller may queue the event under this key later with
    /// [`schedule_reserved`](Self::schedule_reserved), where it pops as
    /// though it had been scheduled now, or drop it.
    ///
    /// Meant for the fast queue. The classic queue keys by insertion, so
    /// it draws nothing here, and a reserved event queued later pops as
    /// a plain `schedule` made then.
    pub fn reserve(&mut self, at: SimTime) -> Reserved {
        match &mut self.imp {
            Imp::Fast(q) => q.reserve(at),
            Imp::Classic(_) => Reserved((at, SimTime::ZERO, 0)),
        }
    }

    /// Queue `payload` under the key `r` drew (see
    /// [`reserve`](Self::reserve)). The key must not be behind the most
    /// recently popped event ([`popped_after`](Self::popped_after)):
    /// an event queued there would pop out of order.
    pub fn schedule_reserved(&mut self, r: Reserved, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule_reserved(r, payload),
            Imp::Classic(q) => q.schedule(r.0 .0, payload),
        }
    }

    /// True if the most recently popped event's key is later than `r`:
    /// an event reserved under `r` and queued would have popped before
    /// it. Always false on the classic queue, which keeps no popped key.
    pub fn popped_after(&self, r: Reserved) -> bool {
        match &self.imp {
            Imp::Fast(q) => q.popped > r.0,
            Imp::Classic(_) => false,
        }
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.imp {
            Imp::Fast(q) => q.min_source().map(|((t, _, _), _)| t),
            Imp::Classic(q) => q.heap.peek().map(|e| e.time),
        }
    }

    /// Pop the next event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.imp {
            Imp::Fast(q) => q.pop(),
            Imp::Classic(q) => q.pop(),
        }
    }

    /// Sim time at which the most recently popped event was scheduled
    /// (its back-date, for
    /// [`schedule_backdated`](Self::schedule_backdated) entries). Zero
    /// before the first pop, and always on the classic queue, which keeps
    /// no scheduled-at key.
    pub fn popped_scheduled_at(&self) -> SimTime {
        match &self.imp {
            Imp::Fast(q) => q.popped.1,
            Imp::Classic(_) => SimTime::ZERO,
        }
    }

    /// True if no events remain (see [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued events. The fast queue counts each armed timer
    /// slot once and no entry that re-arming or disarming a slot
    /// superseded; the classic queue, which keeps those entries, counts
    /// them too.
    pub fn len(&self) -> usize {
        match &self.imp {
            Imp::Fast(q) => q.live,
            Imp::Classic(q) => q.heap.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_nocancel(SimTime::from_nanos(30), "c");
        q.schedule_nocancel(SimTime::from_nanos(10), "a");
        q.schedule_nocancel(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule_nocancel(t, 1);
        q.schedule_nocancel(t, 2);
        q.schedule_nocancel(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_nocancel(SimTime::from_nanos(10), 10);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), v), (10, 10));
        q.schedule_nocancel(SimTime::from_nanos(5), 5);
        q.schedule_nocancel(SimTime::from_nanos(7), 7);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 7);
        assert!(q.pop().is_none());
    }

    /// A non-zero salt permutes equal-time pops but keeps time order,
    /// loses nothing, and is deterministic for a fixed salt.
    #[test]
    fn salt_permutes_ties_but_preserves_time_order() {
        let run = |salt: u64| {
            let mut q = EventQueue::classic_salted(salt);
            for i in 0..16 {
                q.schedule_nocancel(SimTime::from_nanos(5), i);
                q.schedule_nocancel(SimTime::from_nanos(9), 100 + i);
                q.schedule_cadenced(SimTime::from_nanos(9), 4, 200 + i);
            }
            let mut out = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((t, p)) = q.pop() {
                assert!(t >= last, "salt must never reorder across times");
                last = t;
                out.push(p);
            }
            out
        };
        let base = run(0);
        let salted = run(0x5eed);
        assert_eq!(base, run(0));
        assert_eq!(salted, run(0x5eed), "fixed salt is deterministic");
        assert_ne!(base, salted, "salt must actually permute ties");
        let (mut a, mut b) = (base.clone(), salted.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same event multiset under any salt");
    }

    /// The salt permutation is burst-scoped: equal-time events scheduled
    /// while *different* popped events were being processed keep their
    /// burst (causal) order even under a salt.
    #[test]
    fn salt_preserves_cross_burst_order() {
        let mut q = EventQueue::classic_salted(0xABCD);
        q.schedule_nocancel(SimTime::from_nanos(1), 0);
        // Burst 0: a tie group at t=5.
        for i in 10..14 {
            q.schedule_nocancel(SimTime::from_nanos(5), i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        // Burst 1 (after one pop): another tie group at t=5.
        for i in 20..24 {
            q.schedule_nocancel(SimTime::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert!(
            order[..4].iter().all(|p| *p < 14) && order[4..].iter().all(|p| *p >= 20),
            "cross-burst ties must keep burst order: {order:?}"
        );
    }

    /// A back-dated entry pops among equal-time events as though it had
    /// been scheduled at its back-date: after earlier-scheduled ones,
    /// before later-scheduled ones, and after those scheduled at exactly
    /// the back-date (insertion order breaks that tie).
    #[test]
    fn backdated_entries_order_by_scheduled_at() {
        let t = SimTime::from_nanos(1_000);
        let mut q = EventQueue::new();
        q.schedule_nocancel(t, "at0");
        q.schedule_nocancel(SimTime::from_nanos(300), "pop300");
        q.schedule_nocancel(SimTime::from_nanos(600), "pop600");
        assert_eq!(q.pop().map(|(_, p)| p), Some("pop300"));
        q.schedule_nocancel(t, "at300");
        assert_eq!(q.pop().map(|(_, p)| p), Some("pop600"));
        assert_eq!(q.popped_scheduled_at(), SimTime::ZERO);
        q.schedule_nocancel(t, "at600");
        q.schedule_backdated(t, SimTime::from_nanos(400), "back@400");
        q.schedule_backdated(t, SimTime::from_nanos(300), "back@300");
        q.schedule_backdated(SimTime::from_nanos(900), SimTime::ZERO, "back900");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(
            order,
            ["back900", "at0", "at300", "back@300", "back@400", "at600"]
        );
        assert_eq!(q.popped_scheduled_at(), SimTime::from_nanos(600));
    }

    /// Arming an armed slot replaces its entry, earlier or later: only
    /// the last arm pops, and `len` counts the slot once.
    #[test]
    fn arm_replaces_the_slots_entry() {
        let mut q = EventQueue::new();
        q.arm(0, SimTime::from_nanos(50), "first");
        q.arm(1, SimTime::from_nanos(40), "other");
        q.arm(0, SimTime::from_nanos(10), "earlier");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        q.arm(0, SimTime::from_nanos(90), "later");
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (SimTime::from_nanos(40), "other"),
                (SimTime::from_nanos(90), "later")
            ]
        );
        assert!(q.is_empty());
        // A popped slot is empty again and can be re-armed.
        q.arm(0, SimTime::from_nanos(95), "again");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(95), "again")));
    }

    /// Disarming removes the slot's entry without drawing a sequence
    /// number; disarming an empty or never-armed slot does nothing.
    #[test]
    fn disarm_removes_and_a_second_disarm_is_a_noop() {
        let mut q = EventQueue::new();
        q.arm(2, SimTime::from_nanos(10), "dead");
        q.schedule_nocancel(SimTime::from_nanos(20), "live");
        let next_seq = |q: &EventQueue<&str>| match &q.imp {
            Imp::Fast(f) => f.next_seq,
            Imp::Classic(_) => unreachable!(),
        };
        let mark = next_seq(&q);
        q.disarm(2);
        assert_eq!(q.len(), 1);
        assert_eq!(next_seq(&q), mark, "disarm draws no sequence number");
        q.disarm(2);
        q.disarm(7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "live")));
        assert!(q.is_empty() && q.pop().is_none());
    }

    /// A slot entry keys exactly like a heap entry: a slot, a heap and a
    /// lane entry due at the same nanosecond pop in insertion order,
    /// whatever that order is.
    #[test]
    fn slot_heap_and_lane_ties_pop_in_seq_order() {
        let t = SimTime::from_nanos(1_000);
        let orders = [
            ["slot", "heap", "lane"],
            ["heap", "lane", "slot"],
            ["lane", "slot", "heap"],
        ];
        for order in orders {
            let mut q = EventQueue::new();
            for src in order {
                match src {
                    "slot" => q.arm(0, t, src),
                    "heap" => q.schedule_nocancel(t, src),
                    _ => q.schedule_cadenced(t, 500, src),
                }
            }
            let popped: Vec<_> = (0..3).filter_map(|_| q.pop()).map(|(_, p)| p).collect();
            assert_eq!(popped, order);
        }
    }

    /// Check the timer slots' heap order and slot → position map.
    fn assert_timer_heap<E>(q: &EventQueue<E>) {
        let Imp::Fast(f) = &q.imp else { return };
        let t = &f.timers;
        for i in 1..t.len {
            assert!(
                t.key_at((i - 1) / 2) <= t.key_at(i),
                "heap order broken at {i}"
            );
        }
        for i in 0..t.len {
            let slot = t.cells[i].heap as usize;
            assert_eq!(t.cells[slot].pos as usize, i, "position map broken at {i}");
        }
    }

    /// Disarming a slot moves the last entry into its heap position.
    /// An entry from the other subtree can be earlier than its new
    /// parent, and must sift up.
    #[test]
    fn disarm_sifts_the_moved_entry_up() {
        let mut q = EventQueue::new();
        // Heap order after these arms: 1 | 50 10 | 60 70 20 30.
        for (slot, t) in [1u64, 50, 10, 60, 70, 20, 30].into_iter().enumerate() {
            q.arm(slot, SimTime::from_nanos(t), t);
        }
        assert_timer_heap(&q);
        // 30 moves under 50.
        q.disarm(3);
        assert_timer_heap(&q);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, [1, 10, 20, 30, 50, 70]);
    }

    /// The indexed heap against a naive model, driven by a fixed
    /// pseudo-random sequence of arms, disarms and pops over a few
    /// slots (no proptest, so it also runs under miri).
    #[test]
    fn timer_slots_match_a_naive_model() {
        let mut q = EventQueue::new();
        q.reserve_timer_slots(4);
        // Per slot: the pending `(time, seq, payload)`.
        let mut model: [Option<(u64, u64, u64)>; 12] = [None; 12];
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut now, mut seq) = (0u64, 0u64);
        for payload in 0..1_000u64 {
            let r = next();
            let slot = (r % 12) as usize;
            match (r >> 8) % 4 {
                0 | 1 => {
                    // Ties are common: deltas come from a small range.
                    let at = now + (r >> 16) % 8;
                    q.arm(slot, SimTime::from_nanos(at), payload);
                    model[slot] = Some((at, seq, payload));
                    seq += 1;
                }
                2 => {
                    q.disarm(slot);
                    model[slot] = None;
                }
                _ => {
                    let want = model
                        .iter()
                        .enumerate()
                        .filter_map(|(s, e)| e.map(|(t, k, p)| ((t, k), s, p)))
                        .min();
                    let got = q.pop().map(|(t, p)| (t.as_nanos(), p));
                    assert_eq!(got, want.map(|((t, _), _, p)| (t, p)));
                    if let Some(((t, _), s, _)) = want {
                        model[s] = None;
                        now = t;
                    }
                }
            }
            assert_eq!(q.len(), model.iter().flatten().count());
            assert_timer_heap(&q);
        }
    }

    /// A cadenced push that is not monotone against its lane goes to the
    /// heap under its own key, as does a cadence beyond the lane cap;
    /// pops interleave all of them in key order.
    #[test]
    fn non_monotone_cadenced_pushes_fall_back_to_the_heap() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule_nocancel(t, 1);
        q.schedule_cadenced(t, 40, 2);
        q.schedule_nocancel(t, 3);
        q.schedule_cadenced(SimTime::from_nanos(50), 40, 0);
        q.schedule_cadenced(t, 40, 4);
        // With the 40 ns lane, the first seven of these fill the lane cap.
        for i in 0..MAX_LANES as u64 {
            q.schedule_cadenced(SimTime::from_nanos(200), 1_000 + i, 5 + i);
        }
        let Imp::Fast(f) = &q.imp else { unreachable!() };
        let in_lanes: usize = f.lanes.iter().map(|l| l.q.len()).sum();
        // Heap source (front slot and heap): 1, 3, the early tick 0 and
        // the eighth cadence's tick.
        let in_heap = f.heap.len() + usize::from(f.front.is_some());
        assert_eq!((in_heap, in_lanes), (4, MAX_LANES + 1));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..5 + MAX_LANES as u64).collect::<Vec<_>>());
    }

    /// The front slot holds the earliest heap-bound entry while it is
    /// earlier than the heap's top: an earlier push takes its place, a
    /// later one goes to the heap, and a push after a pop is compared
    /// with the heap's new top.
    #[test]
    fn front_slot_holds_the_earliest_heap_entry() {
        let front = |q: &EventQueue<u64>| match &q.imp {
            Imp::Fast(f) => (f.front.as_ref().map(|e| e.payload), f.heap.len()),
            Imp::Classic(_) => unreachable!(),
        };
        let mut q = EventQueue::new();
        for t in [50, 30, 40, 10] {
            q.schedule_nocancel(SimTime::from_nanos(t), t);
        }
        assert_eq!(front(&q), (Some(10), 3));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 10)));
        assert_eq!(front(&q), (None, 3));
        // Later than the heap's top (30): into the heap.
        q.schedule_nocancel(SimTime::from_nanos(35), 35);
        assert_eq!(front(&q), (None, 4));
        q.schedule_nocancel(SimTime::from_nanos(20), 20);
        assert_eq!(front(&q), (Some(20), 4));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, [20, 30, 35, 40, 50]);
    }

    /// A reserved key pops where it was drawn, among events scheduled
    /// before and after it, however late it is queued.
    #[test]
    fn reserved_keys_pop_where_they_were_drawn() {
        let t = SimTime::from_nanos(100);
        let mut q = EventQueue::new();
        q.schedule_nocancel(t, "a");
        let r = q.reserve(t);
        let dropped = q.reserve(SimTime::from_nanos(1));
        q.schedule_nocancel(t, "c");
        assert_eq!(q.len(), 2, "a reservation is not an event");
        assert_eq!(q.pop(), Some((t, "a")));
        assert!(!q.popped_after(r));
        q.schedule_reserved(r, "b");
        assert_eq!(q.pop(), Some((t, "b")));
        assert!(!q.popped_after(r) && q.popped_after(dropped));
        assert_eq!(q.pop(), Some((t, "c")));
        assert!(q.popped_after(r) && q.pop().is_none());
    }

    /// The classic queue pops the same order as the fast queue for the
    /// same schedule sequence.
    #[test]
    fn classic_matches_fast_order() {
        let mut fast = EventQueue::new();
        let mut classic = EventQueue::classic();
        assert!(classic.is_classic() && !fast.is_classic());
        let times = [30u64, 10, 10, 99, 5, 10, 70, 5];
        for (i, &t) in times.iter().enumerate() {
            if i % 2 == 0 {
                fast.schedule_nocancel(SimTime::from_nanos(t), i);
                classic.schedule_nocancel(SimTime::from_nanos(t), i);
            } else {
                fast.schedule_cadenced(SimTime::from_nanos(t), 20, i);
                classic.schedule_cadenced(SimTime::from_nanos(t), 20, i);
            }
        }
        loop {
            let (a, b) = (fast.pop(), classic.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
