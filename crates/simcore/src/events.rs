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
//! - The default **fast** queue pops the minimum key over four sources:
//!   - a binary heap for irregular events, with O(1) slot/generation
//!     cancellation (no hashing on `peek_time`/`pop`);
//!   - a bucketed timer wheel ([`WHEEL_BUCKETS`] × [`WHEEL_GRAIN_NS`])
//!     that absorbs strictly periodic ticks scheduled through
//!     [`EventQueue::schedule_periodic`], keeping them out of the
//!     comparison heap entirely;
//!   - per-cadence FIFO lanes for timers declared through
//!     [`EventQueue::schedule_cadenced`];
//!   - re-armable timer slots ([`EventQueue::arm`]): an indexed heap
//!     holding at most one entry per slot, where arming a slot replaces
//!     its pending entry and [`EventQueue::disarm`] removes it, so a
//!     superseded one-shot timer never enters the queue's pop path.
//! - The **classic** queue ([`EventQueue::classic`]): the original
//!   `BinaryHeap` + `HashSet` lazy-cancellation structure, kept as the
//!   measurement baseline and as the reference model for the golden
//!   determinism test. Both implementations draw sequence numbers the same
//!   way, so they pop the exact same `(time, seq)` order for the same call
//!   sequence, except that the classic queue keeps and pops the entries
//!   that re-arming or disarming a slot superseded.
//!
//! Cancellation in the fast queue is still lazy in the heap (a cancelled
//! entry stays until it surfaces), but the liveness check is a slab index
//! lookup instead of a hash probe, cancel-after-pop is detected exactly
//! via slot generations (the classic structure leaked those seqs forever),
//! and [`EventQueue::len`] is an exact live count, not an upper bound.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Timer-wheel bucket granularity: events within the same 2^15 ns
/// (≈32.8 µs) window share a bucket.
pub const WHEEL_GRAIN_NS: u64 = 1 << WHEEL_SHIFT;
const WHEEL_SHIFT: u32 = 15;
/// Number of wheel buckets; the horizon is `WHEEL_BUCKETS * WHEEL_GRAIN_NS`
/// ≈ 33.6 ms, which covers the periodic BWD timer (100 µs) and balance
/// tick (10 ms) with generous slack. Periodic events beyond the horizon
/// fall back to the heap, so correctness never depends on the sizing.
pub const WHEEL_BUCKETS: usize = 1024;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventHandle(u64);

impl EventHandle {
    fn fast(slot: u32, gen: u32) -> Self {
        EventHandle(((slot as u64) << 32) | gen as u64)
    }
    fn fast_parts(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// Sentinel slot index for heap entries that have no cancellation slot
/// (periodic events that overflowed the wheel horizon).
const NO_SLOT: u32 = u32::MAX;

/// Pop-order key of a fast-queue entry: `(time, scheduled_at, seq)` (see
/// the module docs).
type Key = (SimTime, SimTime, u64);

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

struct HeapEntry<E> {
    time: SimTime,
    /// Sim time the entry was scheduled at (the queue's clock, or the
    /// explicit back-date of [`EventQueue::schedule_backdated`]); zero on
    /// the classic queue.
    sched_at: SimTime,
    /// Tie-break key: `(burst at insert, mix_ord(seq, salt))`. Unsalted
    /// this is `(burst, seq)`, lexicographically the same order as raw
    /// `seq` (bursts are monotone in insertion order), so salt `0` is
    /// bit-for-bit the pinned behavior. The entry keeps no other copy of
    /// its sequence number, which holds the engine's entries to 64 bytes.
    ord: (u64, u64),
    slot: u32,
    payload: E,
}

impl<E> HeapEntry<E> {
    /// Cross-source pop key. `ord.1` is the raw sequence number on an
    /// unsalted queue; a salted queue keeps every entry in its heap, so
    /// its key is never compared with another source's.
    fn key(&self) -> Key {
        (self.time, self.sched_at, self.ord.1)
    }
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.sched_at == other.sched_at && self.ord == other.ord
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
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, sched_at, ord) pops first. `sched_at` is non-decreasing
        // in burst and in seq for ordinary entries, so it only reorders
        // back-dated ones. `(time, sched_at)` compares as one 128-bit
        // word: measured faster in the sift loops than chaining a third
        // `then_with`.
        let primary =
            |e: &Self| ((e.time.as_nanos() as u128) << 64) | e.sched_at.as_nanos() as u128;
        primary(other)
            .cmp(&primary(self))
            .then_with(|| other.ord.cmp(&self.ord))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    Vacant,
    Pending,
    Cancelled,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    gen: u32,
    state: SlotState,
}

struct WheelEntry<E> {
    time: SimTime,
    sched_at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> WheelEntry<E> {
    fn key(&self) -> Key {
        (self.time, self.sched_at, self.seq)
    }
}

/// Bucketed timer wheel for strictly periodic events. Entries are binned
/// by `time >> WHEEL_SHIFT`; the bucket at the cursor is drained into a
/// small sorted run (`current`, descending so the next event is `last()`),
/// from which peeks and pops are O(1).
///
/// An occupancy bitmap (`occ`, one bit per bucket) lets the cursor jump
/// straight to the next non-empty bucket: advancing over an idle stretch
/// costs O(occ words) word scans instead of O(ticks) bucket probes. The
/// jump is sound because every live entry's tick lies in the horizon
/// window `[cur_tick, cur_tick + WHEEL_BUCKETS)` (inserts below the
/// cursor divert to `current`, overflows divert to the heap) and exactly
/// one tick of that window maps to each bucket index — so the nearest
/// occupied bucket in cursor order holds the earliest tick, skipped
/// buckets are provably empty, and a drained bucket always empties whole
/// (no same-index-later-wrap leftovers are possible while earlier ticks
/// remain).
struct Wheel<E> {
    buckets: Vec<Vec<WheelEntry<E>>>,
    /// Occupancy bitmap: bit `b` set iff `buckets[b]` is non-empty.
    occ: [u64; WHEEL_BUCKETS / 64],
    /// Next tick index to drain. The drained tick's events live in
    /// `current`.
    cur_tick: u64,
    /// Events of already-drained ticks, sorted descending by key.
    current: Vec<WheelEntry<E>>,
    len: usize,
}

fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> WHEEL_SHIFT
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; WHEEL_BUCKETS / 64],
            cur_tick: 0,
            current: Vec::new(),
            len: 0,
        }
    }

    /// Insert if the event fits the horizon; on overflow the payload is
    /// handed back so the caller can fall back to the heap.
    ///
    /// Buckets are kept sorted descending by key at insert time, so
    /// draining a bucket is a plain `mem::take` with no sort.
    fn insert(&mut self, e: WheelEntry<E>) -> Result<(), E> {
        let time = e.time;
        if self.len == 0 {
            // Empty wheel: re-anchor the cursor at the new event's tick so
            // the horizon always starts "now". (All buckets are empty, so
            // `occ` is already zero.)
            self.cur_tick = tick_of(time);
            self.current.clear();
        }
        let t = tick_of(time);
        if t < self.cur_tick {
            // A tick that was already drained (scheduling into the past of
            // the cursor): merge into the sorted run.
            let key = e.key();
            let idx = self.current.partition_point(|x| x.key() > key);
            self.current.insert(idx, e);
        } else if t - self.cur_tick < WHEEL_BUCKETS as u64 {
            let b = (t % WHEEL_BUCKETS as u64) as usize;
            let key = e.key();
            let bucket = &mut self.buckets[b];
            let idx = bucket.partition_point(|x| x.key() > key);
            bucket.insert(idx, e);
            self.occ[b >> 6] |= 1u64 << (b & 63);
        } else {
            return Err(e.payload);
        }
        self.len += 1;
        Ok(())
    }

    /// Forward distance (in buckets, wrapping) from bucket index `b0` to
    /// the nearest occupied bucket, or `None` if the bitmap is empty.
    #[inline]
    fn next_occupied_distance(&self, b0: usize) -> Option<usize> {
        const WORDS: usize = WHEEL_BUCKETS / 64;
        let w0 = b0 >> 6;
        // Bits at or after `b0` within its own word.
        let first = self.occ[w0] & (!0u64 << (b0 & 63));
        if first != 0 {
            return Some((w0 << 6) + first.trailing_zeros() as usize - b0);
        }
        // Remaining words in cursor order; the wrap back to `w0` checks
        // the bits below `b0` that `first` masked off.
        for i in 1..=WORDS {
            let w = (w0 + i) % WORDS;
            let word = self.occ[w];
            if word != 0 {
                let idx = (w << 6) + word.trailing_zeros() as usize;
                return Some((idx + WHEEL_BUCKETS - b0) % WHEEL_BUCKETS);
            }
        }
        None
    }

    /// Key of the earliest wheel event, jumping the cursor straight to
    /// the next occupied bucket.
    fn peek_key(&mut self) -> Option<Key> {
        if let Some(e) = self.current.last() {
            return Some(e.key());
        }
        if self.len == 0 {
            return None;
        }
        // `current` is empty but entries remain, so some bucket is
        // occupied. Jump to it and drain it whole (see the struct docs
        // for why it cannot hold later-wrap leftovers).
        let b0 = (self.cur_tick % WHEEL_BUCKETS as u64) as usize;
        let d = self.next_occupied_distance(b0)?;
        let b = (b0 + d) % WHEEL_BUCKETS;
        std::mem::swap(&mut self.current, &mut self.buckets[b]);
        self.occ[b >> 6] &= !(1u64 << (b & 63));
        self.cur_tick += d as u64 + 1;
        debug_assert!(!self.current.is_empty(), "occupied bucket was empty");
        self.current.last().map(WheelEntry::key)
    }

    fn pop(&mut self) -> Option<WheelEntry<E>> {
        self.peek_key()?;
        let Some(e) = self.current.pop() else {
            debug_assert!(false, "peek_key positioned an entry");
            return None;
        };
        self.len -= 1;
        Some(e)
    }
}

/// FIFO lane for one strictly-periodic cadence (see
/// [`EventQueue::schedule_cadenced`]). Re-arms of a fixed-interval timer
/// arrive in fire order, and every re-arm lands one interval after its
/// fire time, so within a single cadence the pushed keys are monotone
/// non-decreasing: the deque *is* sorted, insert is
/// `push_back`, and the earliest entry is `front`. Pushes that would
/// break monotonicity (the staggered initial arms, fault-injected timer
/// jitter) are rejected by the caller and routed through the wheel
/// instead, so the invariant is checked, never assumed.
struct Lane<E> {
    interval_ns: u64,
    q: std::collections::VecDeque<WheelEntry<E>>,
}

/// Cap on distinct cadences before falling back to the wheel: lanes are
/// scanned linearly on every pop, so this must stay small. Real engines
/// have a handful (mechanism timer, balance, watchdog, fault tick).
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

/// The default implementation: slab-cancellation heap + timer wheel +
/// per-cadence FIFO lanes + re-armable timer slots.
struct FastQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    wheel: Wheel<E>,
    lanes: Vec<Lane<E>>,
    timers: TimerSlots<E>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    /// Exact number of live (scheduled, not cancelled, not popped)
    /// events, armed timer slots included.
    live: usize,
    /// Cancelled entries still physically in the heap. Pops skip the
    /// cancelled-top drain scan entirely while this is zero — which for
    /// the engine is always (it never cancels by handle).
    cancelled_pending: usize,
    /// Rotate cadenced pops in place (see
    /// [`EventQueue::set_auto_cadence`]).
    auto_cadence: bool,
    /// Whether the most recent `pop` rotated its event (auto re-arm).
    /// Reset by every pop and every schedule call.
    last_pop_rotated: bool,
    /// The lane whose back holds the most recent pop's rotated re-arm,
    /// while nothing has been scheduled since (see
    /// [`EventQueue::undo_rotation`]). `None` when the rotation fell back
    /// to the wheel or heap.
    undo_lane: Option<usize>,
    /// Sim time of the most recent pop: the `scheduled_at` stamp of every
    /// ordinary schedule call.
    now: SimTime,
    /// `scheduled_at` of the most recently popped entry.
    popped_sched_at: SimTime,
    /// Hot-lane pop cache: the lane that won the last pop, paired with
    /// the minimum key over every *other* source (heap, wheel, timer
    /// slots, remaining lanes) at that moment. While subsequent pushes land
    /// only on the hot lane — the steady state of a tick-dominated run,
    /// where each tick's re-arm goes straight back to its own lane — the
    /// other-source minimum cannot drop, so the next pop decides with a
    /// single key compare instead of a full source scan. Any push to
    /// another source clears it.
    hot: Option<(usize, Option<Key>)>,
    /// Tie-break permutation salt (see [`mix_ord`]). Non-zero salts also
    /// route periodic/cadenced events straight to the heap: the wheel's
    /// sorted buckets and the lanes' FIFO monotonicity argument are both
    /// stated over raw insertion sequence numbers, so bypassing them
    /// keeps the salted order trivially total at a perf cost only the
    /// certifier pays.
    salt: u64,
    /// Burst counter: incremented on every pop, stamped into each entry's
    /// tie-break key at insert. Scopes the salt permutation to the events
    /// one handler execution scheduled (see [`mix_ord`]).
    burst: u64,
}

impl<E> FastQueue<E> {
    fn new() -> Self {
        FastQueue {
            heap: BinaryHeap::new(),
            wheel: Wheel::new(),
            lanes: Vec::new(),
            timers: TimerSlots::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            cancelled_pending: 0,
            auto_cadence: false,
            last_pop_rotated: false,
            undo_lane: None,
            now: SimTime::ZERO,
            popped_sched_at: SimTime::ZERO,
            hot: None,
            salt: 0,
            burst: 0,
        }
    }

    fn alloc_slot(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize].state = SlotState::Pending;
            slot
        } else {
            let slot = self.slots.len() as u32;
            assert!(slot < NO_SLOT, "slot space exhausted");
            self.slots.push(Slot {
                gen: 0,
                state: SlotState::Pending,
            });
            slot
        }
    }

    fn release_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.state = SlotState::Vacant;
        self.free.push(slot);
    }

    /// Draw the next sequence number. Every schedule call goes through
    /// here, which also ends the window in which the last pop's rotation
    /// can be undone.
    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.last_pop_rotated = false;
        self.undo_lane = None;
        seq
    }

    fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        let seq = self.draw_seq();
        self.hot = None;
        let slot = self.alloc_slot();
        let gen = self.slots[slot as usize].gen;
        self.heap.push(HeapEntry {
            time: at,
            sched_at: self.now,
            ord: (self.burst, mix_ord(seq, self.salt)),
            slot,
            payload,
        });
        self.live += 1;
        EventHandle::fast(slot, gen)
    }

    /// Schedule without a cancellation slot: the entry can never be
    /// cancelled, so pops skip the slab entirely. This is the engine's
    /// hot path: it never cancels by handle.
    fn schedule_nocancel(&mut self, at: SimTime, payload: E) {
        let seq = self.draw_seq();
        self.hot = None;
        self.heap.push(HeapEntry {
            time: at,
            sched_at: self.now,
            ord: (self.burst, mix_ord(seq, self.salt)),
            slot: NO_SLOT,
            payload,
        });
        self.live += 1;
    }

    /// A never-cancelled heap entry keyed as though scheduled at sim time
    /// `sched_at` (see [`EventQueue::schedule_backdated`]).
    fn schedule_backdated(&mut self, at: SimTime, sched_at: SimTime, payload: E) {
        debug_assert!(sched_at <= self.now, "back-dated into the future");
        let seq = self.draw_seq();
        self.hot = None;
        self.heap.push(HeapEntry {
            time: at,
            sched_at,
            ord: (self.burst, mix_ord(seq, self.salt)),
            slot: NO_SLOT,
            payload,
        });
        self.live += 1;
    }

    fn schedule_periodic(&mut self, at: SimTime, payload: E) {
        let seq = self.draw_seq();
        self.hot = None;
        if self.salt != 0 {
            self.heap.push(HeapEntry {
                time: at,
                sched_at: self.now,
                ord: (self.burst, mix_ord(seq, self.salt)),
                slot: NO_SLOT,
                payload,
            });
        } else {
            self.insert_wheel_or_heap(at, seq, payload);
        }
        self.live += 1;
    }

    fn insert_wheel_or_heap(&mut self, at: SimTime, seq: u64, payload: E) {
        debug_assert_eq!(self.salt, 0, "salted queues bypass the wheel");
        let sched_at = self.now;
        match self.wheel.insert(WheelEntry {
            time: at,
            sched_at,
            seq,
            payload,
        }) {
            Ok(()) => {}
            // Beyond the wheel horizon: fall back to the heap, with no
            // cancellation slot (periodic events are never cancelled).
            Err(payload) => self.heap.push(HeapEntry {
                time: at,
                sched_at,
                ord: (self.burst, seq),
                slot: NO_SLOT,
                payload,
            }),
        }
    }

    /// [`schedule_periodic`](Self::schedule_periodic) with a declared
    /// cadence: monotone re-arms append to the cadence's FIFO lane in
    /// O(1); anything else (initial staggered arms, jittered re-arms,
    /// cadence overflow) takes the wheel/heap path. Ordering is identical
    /// either way — lanes share the global sequence counter and pops
    /// compare keys across all sources.
    fn schedule_cadenced(&mut self, at: SimTime, interval_ns: u64, payload: E) {
        let seq = self.draw_seq();
        self.live += 1;
        if self.salt != 0 {
            self.hot = None;
            self.heap.push(HeapEntry {
                time: at,
                sched_at: self.now,
                ord: (self.burst, mix_ord(seq, self.salt)),
                slot: NO_SLOT,
                payload,
            });
            return;
        }
        let lane_idx = match self
            .lanes
            .iter_mut()
            .position(|l| l.interval_ns == interval_ns)
        {
            Some(i) => i,
            None if self.lanes.len() < MAX_LANES => {
                self.lanes.push(Lane {
                    interval_ns,
                    q: std::collections::VecDeque::new(),
                });
                self.lanes.len() - 1
            }
            None => {
                self.hot = None;
                self.insert_wheel_or_heap(at, seq, payload);
                return;
            }
        };
        // A monotone push to the hot lane cannot lower any other source's
        // minimum, so it leaves the pop cache valid; everything else
        // clears it.
        if self.hot.is_some_and(|(h, _)| h != lane_idx) {
            self.hot = None;
        }
        let entry = WheelEntry {
            time: at,
            sched_at: self.now,
            seq,
            payload,
        };
        let lane = &mut self.lanes[lane_idx];
        if lane.q.back().is_none_or(|e| e.key() <= entry.key()) {
            lane.q.push_back(entry);
        } else {
            self.hot = None;
            self.insert_wheel_or_heap(at, seq, entry.payload);
        }
    }

    /// Arm timer slot `slot` (see [`EventQueue::arm`]). The sequence
    /// number and scheduled-at stamp are drawn exactly as
    /// [`schedule_nocancel`](Self::schedule_nocancel) draws them, so the
    /// entry's key is the one a heap entry would have had.
    fn arm(&mut self, slot: usize, at: SimTime, payload: E) {
        if self.salt != 0 {
            // The permutation keys are stated over heap entries: a salted
            // queue keeps superseded entries and pops them.
            self.schedule_nocancel(at, payload);
            return;
        }
        let seq = self.draw_seq();
        self.hot = None;
        if !self.timers.arm(slot, (at, self.now, seq), payload) {
            self.live += 1;
        }
    }

    /// Disarm timer slot `slot` (see [`EventQueue::disarm`]). Like
    /// `cancel`, removing an entry can only raise the other sources'
    /// minima, so the hot-lane cache stays valid.
    fn disarm(&mut self, slot: usize) {
        if self.salt == 0 && self.timers.disarm(slot) {
            self.live -= 1;
        }
    }

    /// Index and key of the lane holding the earliest front entry, if
    /// any lane is non-empty.
    #[inline]
    fn lane_min(&self) -> Option<(usize, Key)> {
        let mut best: Option<(usize, Key)> = None;
        for (i, l) in self.lanes.iter().enumerate() {
            if let Some(e) = l.q.front() {
                let k = e.key();
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        best
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        let (slot, gen) = handle.fast_parts();
        let Some(s) = self.slots.get_mut(slot as usize) else {
            return false;
        };
        if s.gen != gen || s.state != SlotState::Pending {
            return false;
        }
        s.state = SlotState::Cancelled;
        self.live -= 1;
        self.cancelled_pending += 1;
        // Cancellation removes an event, so it can only *raise* the
        // cached other-source minimum — a conservative (never unsafely
        // low) bound — and the hot cache stays valid.
        true
    }

    /// Discard cancelled entries sitting on top of the heap, releasing
    /// their slots for reuse. Free when nothing is cancelled.
    fn drain_cancelled(&mut self) {
        while self.cancelled_pending > 0 {
            let Some(top) = self.heap.peek() else { break };
            let slot = top.slot;
            if slot != NO_SLOT && self.slots[slot as usize].state == SlotState::Cancelled {
                self.heap.pop();
                self.release_slot(slot);
                self.cancelled_pending -= 1;
            } else {
                break;
            }
        }
    }

    fn peek_key(&mut self) -> Option<Key> {
        self.drain_cancelled();
        let hk = self.heap.peek().map(HeapEntry::key);
        let wk = self.wheel.peek_key();
        let tk = self.timers.peek_key();
        let lk = self.lane_min().map(|(_, k)| k);
        [hk, wk, tk, lk].into_iter().flatten().min()
    }

    fn pop(&mut self) -> Option<(SimTime, E)>
    where
        E: Clone,
    {
        // A pop starts a new burst: everything scheduled while the popped
        // event is processed shares the next burst stamp (see `mix_ord`).
        self.burst += 1;
        // Hot path: the lane that won the last pop wins again while its
        // front stays below the cached minimum of every other source.
        if let Some((h, om)) = self.hot {
            if let Some(e) = self.lanes[h].q.front() {
                if om.is_none_or(|m| e.key() < m) {
                    return self.pop_lane(h);
                }
            }
            self.hot = None;
        }
        self.last_pop_rotated = false;
        self.undo_lane = None;
        self.drain_cancelled();
        let hk = self.heap.peek().map(HeapEntry::key);
        let wk = self.wheel.peek_key();
        let tk = self.timers.peek_key();
        // Best lane and the runner-up minimum over the *other* lanes
        // (needed to seed the hot cache when a lane wins).
        let mut lk: Option<(usize, Key)> = None;
        let mut lane_rest: Option<Key> = None;
        for (i, l) in self.lanes.iter().enumerate() {
            if let Some(e) = l.q.front() {
                let k = e.key();
                match lk {
                    Some((_, bk)) if k >= bk => {
                        if lane_rest.is_none_or(|r| k < r) {
                            lane_rest = Some(k);
                        }
                    }
                    _ => {
                        if let Some((_, bk)) = lk {
                            lane_rest = Some(lane_rest.map_or(bk, |r| r.min(bk)));
                        }
                        lk = Some((i, k));
                    }
                }
            }
        }
        // Source of the minimum key: 0 = heap, 1 = wheel, 2 = timer
        // slots, 3 = best lane.
        let mut src = usize::MAX;
        let mut best: Option<Key> = None;
        if let Some(h) = hk {
            (src, best) = (0, Some(h));
        }
        if let Some(w) = wk {
            if best.is_none_or(|b| w < b) {
                (src, best) = (1, Some(w));
            }
        }
        if let Some(k) = tk {
            if best.is_none_or(|b| k < b) {
                (src, best) = (2, Some(k));
            }
        }
        if let Some((_, l)) = lk {
            if best.is_none_or(|b| l < b) {
                (src, best) = (3, Some(l));
            }
        }
        best?;
        match src {
            0 => {
                self.live -= 1;
                let Some(e) = self.heap.pop() else {
                    debug_assert!(false, "peeked heap entry must pop");
                    self.live += 1;
                    return None;
                };
                if e.slot != NO_SLOT {
                    self.release_slot(e.slot);
                }
                self.now = e.time;
                self.popped_sched_at = e.sched_at;
                Some((e.time, e.payload))
            }
            1 => {
                self.live -= 1;
                let e = self.wheel.pop()?;
                self.now = e.time;
                self.popped_sched_at = e.sched_at;
                Some((e.time, e.payload))
            }
            2 => {
                self.live -= 1;
                let ((time, sched_at, _), payload) = self.timers.pop()?;
                self.now = time;
                self.popped_sched_at = sched_at;
                Some((time, payload))
            }
            _ => {
                let (i, _) = lk?;
                let om = [hk, wk, tk, lane_rest].into_iter().flatten().min();
                self.hot = Some((i, om));
                self.pop_lane(i)
            }
        }
    }

    /// Pop the front of lane `i`; with auto-cadence on, rotate the event
    /// back into the lane one interval later under a fresh sequence
    /// number (the in-queue equivalent of the handler's own re-arm-first
    /// schedule — see [`EventQueue::set_auto_cadence`]).
    fn pop_lane(&mut self, i: usize) -> Option<(SimTime, E)>
    where
        E: Clone,
    {
        let Some(e) = self.lanes[i].q.pop_front() else {
            debug_assert!(false, "pop_lane on empty lane");
            return None;
        };
        self.now = e.time;
        self.popped_sched_at = e.sched_at;
        if self.auto_cadence {
            let seq = self.draw_seq();
            let rearm = WheelEntry {
                time: e.time + self.lanes[i].interval_ns,
                sched_at: e.time,
                seq,
                payload: e.payload.clone(),
            };
            let lane = &mut self.lanes[i];
            if lane.q.back().is_none_or(|b| b.key() <= rearm.key()) {
                lane.q.push_back(rearm);
                self.undo_lane = Some(i);
            } else {
                // Cannot happen for a shared strict cadence (the popped
                // front plus one interval is at or past every pending
                // entry), but fall back safely rather than assume it.
                self.hot = None;
                self.insert_wheel_or_heap(rearm.time, seq, rearm.payload);
            }
            // live is unchanged: one event left, its re-arm arrived.
            self.last_pop_rotated = true;
        } else {
            self.live -= 1;
            self.last_pop_rotated = false;
            self.undo_lane = None;
        }
        Some((e.time, e.payload))
    }

    /// Take back the most recent pop's rotation (see
    /// [`EventQueue::undo_rotation`]).
    fn undo_rotation(&mut self) -> bool {
        let Some(i) = self.undo_lane.take() else {
            return false;
        };
        // Nothing was scheduled since the rotation, so its re-arm is the
        // lane's back and holds the last sequence number drawn: removing
        // it and returning the number leaves the queue as if the pop had
        // not rotated at all.
        let e = self.lanes[i].q.pop_back();
        debug_assert!(e.is_some_and(|e| e.seq + 1 == self.next_seq));
        self.next_seq -= 1;
        self.live -= 1;
        self.last_pop_rotated = false;
        true
    }
}

/// The original seed implementation: lazy cancellation through a
/// `HashSet` of cancelled sequence numbers, probed on every peek/pop.
/// Retained verbatim (including its cancel-after-pop leak) as the
/// reference baseline. It has no timer slots: `arm` is a plain
/// `schedule` and `disarm` a no-op, so the engine's reference runs pop
/// every superseded timer, as the seed engine did.
struct ClassicQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    cancelled: std::collections::HashSet<u64>,
    live: usize,
    /// Tie-break permutation salt (see [`mix_ord`]). `cancelled` holds
    /// salted keys `mix_ord(seq, salt)`, the only copy of an entry's
    /// sequence number that its heap entry carries.
    salt: u64,
    /// Burst counter (see the fast queue's field of the same name).
    burst: u64,
}

impl<E> ClassicQueue<E> {
    fn new() -> Self {
        ClassicQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: std::collections::HashSet::new(),
            live: 0,
            salt: 0,
            burst: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            time: at,
            // No scheduled-at key: the classic queue orders by
            // `(time, seq)` alone.
            sched_at: SimTime::ZERO,
            ord: (self.burst, mix_ord(seq, self.salt)),
            slot: NO_SLOT,
            payload,
        });
        self.live += 1;
        EventHandle(seq)
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        if handle.0 >= self.next_seq {
            return false;
        }
        // Heap entries carry the salted key `mix_ord(seq, salt)` (a
        // bijection), so cancellations are recorded under it too.
        self.cancelled.insert(mix_ord(handle.0, self.salt))
    }

    fn drain_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.contains(&top.ord.1) {
                let Some(e) = self.heap.pop() else {
                    debug_assert!(false, "peeked heap entry must pop");
                    break;
                };
                self.cancelled.remove(&e.ord.1);
                self.live = self.live.saturating_sub(1);
            } else {
                break;
            }
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.drain_cancelled();
        self.heap.peek().map(|e| e.time)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.burst += 1;
        self.drain_cancelled();
        self.heap.pop().map(|e| {
            self.live = self.live.saturating_sub(1);
            (e.time, e.payload)
        })
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
    /// Create an empty queue (fast implementation: slab cancellation +
    /// timer wheel).
    pub fn new() -> Self {
        EventQueue {
            imp: Imp::Fast(FastQueue::new()),
        }
    }

    /// Create an empty queue using the pre-overhaul reference
    /// implementation (`BinaryHeap` + `HashSet` lazy cancellation).
    pub fn classic() -> Self {
        EventQueue {
            imp: Imp::Classic(ClassicQueue::new()),
        }
    }

    /// True if this queue uses the reference implementation.
    pub fn is_classic(&self) -> bool {
        matches!(self.imp, Imp::Classic(_))
    }

    /// Set the equal-time tie-break permutation salt (see `mix_ord`).
    /// `0` (the default) is pinned insertion order; non-zero values pop
    /// equal-time events in a salt-dependent deterministic permutation —
    /// the schedule-robustness certifier's knob. Must be called on an
    /// empty queue: entries already pushed keep their old keys, which
    /// would make the heap order inconsistent.
    pub fn set_tiebreak_salt(&mut self, salt: u64) {
        match &mut self.imp {
            Imp::Fast(q) => {
                assert_eq!(q.live, 0, "set_tiebreak_salt on a non-empty queue");
                q.salt = salt;
            }
            Imp::Classic(q) => {
                assert!(q.heap.is_empty(), "set_tiebreak_salt on a non-empty queue");
                q.salt = salt;
            }
        }
    }

    /// Schedule `payload` at absolute time `at`. Returns a cancellation
    /// handle.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventHandle {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule(at, payload),
            Imp::Classic(q) => q.schedule(at, payload),
        }
    }

    /// Schedule an event that will never be cancelled (no handle). On the
    /// fast queue this skips cancellation-slot bookkeeping entirely, so
    /// the pop path is a pure heap operation; on the classic queue it is
    /// a plain `schedule`. This is the engine's hot path: the simulator
    /// never cancels by handle (its re-armable timers use
    /// [`arm`](Self::arm)).
    pub fn schedule_nocancel(&mut self, at: SimTime, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule_nocancel(at, payload),
            Imp::Classic(q) => {
                q.schedule(at, payload);
            }
        }
    }

    /// Schedule a never-cancelled event at `at` keyed as though it had
    /// been scheduled at the earlier sim time `scheduled_at` (see the
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
            Imp::Classic(q) => {
                q.schedule(at, payload);
            }
        }
    }

    /// Schedule a strictly periodic event (no cancellation handle). On the
    /// fast queue these are routed through the timer wheel, so the
    /// comparison heap holds only irregular events; beyond the wheel
    /// horizon (or on the classic queue) they take the heap path. Ordering
    /// is identical either way: periodic events share the queue's sequence
    /// counter.
    pub fn schedule_periodic(&mut self, at: SimTime, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule_periodic(at, payload),
            Imp::Classic(q) => {
                q.schedule(at, payload);
            }
        }
    }

    /// [`schedule_periodic`](Self::schedule_periodic) with the cadence
    /// declared. On the fast queue, re-arms of a fixed-interval timer fire
    /// in time order and each lands one interval later, so per cadence the
    /// scheduled `(time, seq)` keys are monotone: they append to a FIFO
    /// lane with O(1) insert and O(1) pop, bypassing the wheel's binned
    /// insert entirely. Non-monotone pushes (staggered initial arms,
    /// jittered re-arms) silently fall back to the wheel/heap path, and
    /// the classic queue treats this as a plain `schedule` — the popped
    /// `(time, seq)` order is identical in every case.
    pub fn schedule_cadenced(&mut self, at: SimTime, interval_ns: u64, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.schedule_cadenced(at, interval_ns, payload),
            Imp::Classic(q) => {
                q.schedule(at, payload);
            }
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
    /// events, and [`seq_mark`](Self::seq_mark) moves as for any schedule.
    ///
    /// Only the unsalted fast queue keeps the slot. The classic queue
    /// treats `arm` as a plain `schedule`, and a salted fast queue as
    /// `schedule_nocancel`, so both keep the superseded entry and pop
    /// it. A caller must therefore still recognise a superseded entry
    /// when it pops (the engine checks an epoch); the slot only saves
    /// the pop.
    ///
    /// [`schedule_nocancel`]: Self::schedule_nocancel
    pub fn arm(&mut self, slot: usize, at: SimTime, payload: E) {
        match &mut self.imp {
            Imp::Fast(q) => q.arm(slot, at, payload),
            Imp::Classic(q) => {
                q.schedule(at, payload);
            }
        }
    }

    /// Remove timer slot `slot`'s pending entry, if it has one. It draws
    /// no sequence number. A no-op on the classic queue and on a salted
    /// fast queue, which keep every armed entry (see [`arm`](Self::arm)).
    pub fn disarm(&mut self, slot: usize) {
        if let Imp::Fast(q) = &mut self.imp {
            q.disarm(slot);
        }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending (not yet popped or cancelled). On the fast queue
    /// this is exact and O(1): cancelling an already-popped event returns
    /// `false` even if its slot has been reused (generation check), and no
    /// state is leaked.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match &mut self.imp {
            Imp::Fast(q) => q.cancel(handle),
            Imp::Classic(q) => q.cancel(handle),
        }
    }

    /// Monotone counter advanced on every `schedule*` and
    /// [`arm`](Self::arm) call (it is the queue's internal tie-break
    /// sequence). Two reads returning the same value prove that *no
    /// event of any kind* was scheduled in between, which callers use to
    /// detect that two entries are adjacent among same-time events (see
    /// the engine's resched coalescing).
    pub fn seq_mark(&self) -> u64 {
        match &self.imp {
            Imp::Fast(q) => q.next_seq,
            Imp::Classic(q) => q.next_seq,
        }
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.imp {
            Imp::Fast(q) => q.peek_key().map(|(t, _, _)| t),
            Imp::Classic(q) => q.peek_time(),
        }
    }

    /// Pop the next live event.
    ///
    /// `E: Clone` feeds auto-cadence rotation (the queue re-arms a popped
    /// cadenced event by cloning its payload one interval later); payloads
    /// are small `Copy` enums in practice.
    pub fn pop(&mut self) -> Option<(SimTime, E)>
    where
        E: Clone,
    {
        match &mut self.imp {
            Imp::Fast(q) => q.pop(),
            Imp::Classic(q) => q.pop(),
        }
    }

    /// Enable (or disable) auto-cadence rotation on the fast queue; no-op
    /// on the classic queue.
    ///
    /// With auto-cadence on, popping a lane event immediately re-schedules
    /// a clone of its payload one lane interval later, under the sequence
    /// number the queue allocates at that instant, and marks the pop via
    /// [`last_pop_rotated`](Self::last_pop_rotated). This is sound only
    /// under the engine's re-arm-first contract: the handler's own re-arm
    /// would be the *first* schedule call after the pop, at exactly
    /// `time + interval`, so the rotation allocates the identical
    /// `(time, seq)` key the handler would have — the handler must then
    /// *skip* its explicit re-arm when `last_pop_rotated()` reports the
    /// queue already did it. Events that fall outside the lanes (initial
    /// staggered arms, jittered re-arms) pop with the flag false and keep
    /// the explicit path.
    pub fn set_auto_cadence(&mut self, on: bool) {
        if let Imp::Fast(q) = &mut self.imp {
            q.auto_cadence = on;
        }
    }

    /// True when the most recent [`pop`](Self::pop) was a cadenced lane
    /// event that the queue already rotated (re-armed) internally — the
    /// caller must skip its explicit re-arm for that event. Always false
    /// on the classic queue.
    pub fn last_pop_rotated(&self) -> bool {
        match &self.imp {
            Imp::Fast(q) => q.last_pop_rotated,
            Imp::Classic(_) => false,
        }
    }

    /// Cancel the re-arm that the most recent [`pop`](Self::pop) rotated
    /// into its lane, returning its sequence number to the counter, so
    /// the timer stops. Returns `false` (and changes nothing) when there
    /// is nothing to undo: the pop did not rotate, the rotation fell back
    /// off its lane, or anything has been scheduled since the pop. Always
    /// `false` on the classic queue. The engine calls it when a tick finds
    /// its core idle and lets that core's timer lapse (tickless idle).
    pub fn undo_rotation(&mut self) -> bool {
        match &mut self.imp {
            Imp::Fast(q) => q.undo_rotation(),
            Imp::Classic(_) => false,
        }
    }

    /// Sim time at which the most recently popped event was scheduled
    /// (its back-date, for
    /// [`schedule_backdated`](Self::schedule_backdated) entries). Zero
    /// before the first pop, and always on the classic queue, which keeps
    /// no scheduled-at key.
    pub fn popped_scheduled_at(&self) -> SimTime {
        match &self.imp {
            Imp::Fast(q) => q.popped_sched_at,
            Imp::Classic(_) => SimTime::ZERO,
        }
    }

    /// True if no live events remain. Takes `&mut self` because the
    /// classic flavor must drain lazily-cancelled heap tops to answer
    /// exactly (the fast flavor's count is always exact).
    pub fn is_empty(&mut self) -> bool {
        match &mut self.imp {
            Imp::Fast(q) => q.live == 0,
            Imp::Classic(q) => q.peek_time().is_none(),
        }
    }

    /// Number of live events. Exact on the fast queue, where it counts
    /// each armed timer slot once and no entry that re-arming or
    /// disarming a slot superseded. On the classic queue this is the
    /// legacy upper bound (heap entries including not-yet-drained
    /// cancellations, and superseded slot entries) — which is also why
    /// `is_empty` needs `&mut self` and trips this lint. A salted fast
    /// queue also counts superseded slot entries, which it keeps.
    #[allow(clippy::len_without_is_empty)]
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
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_nanos(1), "x");
        q.schedule(SimTime::from_nanos(2), "y");
        assert!(q.cancel(h1));
        let (_, p) = q.pop().unwrap();
        assert_eq!(p, "y");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_returns_false() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_nanos(1), ());
        assert!(q.cancel(h));
        assert!(!q.cancel(h));
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventHandle(99)));
        assert!(!q.cancel(EventHandle::fast(7, 0)));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_nanos(1), "dead");
        q.schedule(SimTime::from_nanos(5), "live");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 10);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), v), (10, 10));
        q.schedule(SimTime::from_nanos(5), 5);
        q.schedule(SimTime::from_nanos(7), 7);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 7);
        assert!(q.pop().is_none());
    }

    /// Satellite fix: cancelling an already-popped event must return
    /// `false` and must not leak state — even after its slot is reused.
    #[test]
    fn cancel_after_pop_is_false_and_leak_free() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(h), "cancel after pop must be false");
        assert_eq!(q.len(), 0, "no leaked live count");
        // The slot is reused by the next schedule; the stale handle must
        // not be able to cancel the new occupant.
        let h2 = q.schedule(SimTime::from_nanos(2), "b");
        assert!(!q.cancel(h), "stale handle must not hit reused slot");
        assert!(q.cancel(h2));
        assert!(q.pop().is_none());
    }

    /// Satellite fix: `len` is an exact live count, immediately reflecting
    /// cancellations that are still physically in the heap.
    #[test]
    fn len_is_exact_under_cancellation() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(2), 2);
        let h3 = q.schedule(SimTime::from_nanos(3), 3);
        assert_eq!(q.len(), 3);
        assert!(q.cancel(h1));
        assert!(q.cancel(h3));
        assert_eq!(q.len(), 1, "exact count, not heap upper bound");
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    /// Periodic (wheel) and irregular (heap) events interleave in exact
    /// global `(time, seq)` order, including ties.
    #[test]
    fn periodic_and_irregular_share_total_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule(t, 1);
        q.schedule_periodic(t, 2);
        q.schedule(t, 3);
        q.schedule_periodic(SimTime::from_nanos(50), 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// Periodic events beyond the wheel horizon fall back to the heap and
    /// still pop in order.
    #[test]
    fn periodic_beyond_horizon_falls_back_to_heap() {
        let mut q = EventQueue::new();
        let horizon = WHEEL_BUCKETS as u64 * WHEEL_GRAIN_NS;
        q.schedule_periodic(SimTime::from_nanos(10), "near");
        q.schedule_periodic(SimTime::from_nanos(10 + 4 * horizon), "far");
        q.schedule(SimTime::from_nanos(20), "mid");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    /// The wheel keeps working across many horizon wraps (re-anchoring on
    /// empty, distinguishing wrapped bucket occupants).
    #[test]
    fn wheel_survives_wraps_and_reanchors() {
        let mut q = EventQueue::new();
        let step = 100_000u64; // 100 µs, the BWD cadence
        let mut now = 0u64;
        let mut popped = 0usize;
        q.schedule_periodic(SimTime::from_nanos(now + step), ());
        while popped < 10_000 {
            let (t, ()) = q.pop().unwrap();
            assert!(t.as_nanos() > now);
            now = t.as_nanos();
            popped += 1;
            q.schedule_periodic(SimTime::from_nanos(now + step), ());
        }
        assert_eq!(q.len(), 1);
    }

    /// Wrap-distinguishing: two periodic events exactly one horizon apart
    /// land in the same bucket but must pop in time order.
    #[test]
    fn same_bucket_different_wrap_pops_in_order() {
        let mut q = EventQueue::new();
        let horizon = WHEEL_BUCKETS as u64 * WHEEL_GRAIN_NS;
        q.schedule_periodic(SimTime::from_nanos(1_000), "first");
        // Pop to anchor the cursor at tick(1_000), then schedule one
        // horizon-minus-one-bucket ahead → same bucket index, later wrap.
        assert_eq!(q.pop().unwrap().1, "first");
        q.schedule_periodic(SimTime::from_nanos(1_000 + WHEEL_GRAIN_NS), "a");
        q.schedule_periodic(
            SimTime::from_nanos(1_000 + WHEEL_GRAIN_NS + horizon - WHEEL_GRAIN_NS),
            "b",
        );
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    /// A non-zero salt permutes equal-time pops but keeps time order,
    /// loses nothing, and is deterministic for a fixed salt.
    #[test]
    fn salt_permutes_ties_but_preserves_time_order() {
        let run = |salt: u64| {
            let mut q = EventQueue::new();
            q.set_tiebreak_salt(salt);
            for i in 0..16 {
                q.schedule(SimTime::from_nanos(5), i);
                q.schedule_periodic(SimTime::from_nanos(9), 100 + i);
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
        let mut q = EventQueue::new();
        q.set_tiebreak_salt(0xABCD);
        q.schedule(SimTime::from_nanos(1), 0);
        // Burst 0: a tie group at t=5.
        for i in 10..14 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        // Burst 1 (after one pop): another tie group at t=5.
        for i in 20..24 {
            q.schedule(SimTime::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert!(
            order[..4].iter().all(|p| *p < 14) && order[4..].iter().all(|p| *p >= 20),
            "cross-burst ties must keep burst order: {order:?}"
        );
    }

    /// Salted classic and fast queues still pop identically (they share
    /// the sequence counter and the mix).
    #[test]
    fn salted_classic_matches_salted_fast() {
        let mut fast = EventQueue::new();
        let mut classic = EventQueue::classic();
        fast.set_tiebreak_salt(7);
        classic.set_tiebreak_salt(7);
        for i in 0..24 {
            let t = SimTime::from_nanos((i % 3) as u64);
            match i % 4 {
                0 => {
                    fast.schedule(t, i);
                    classic.schedule(t, i);
                }
                1 => {
                    fast.schedule_cadenced(t, 10, i);
                    classic.schedule_cadenced(t, 10, i);
                }
                2 => {
                    fast.arm(i % 3, t, i);
                    classic.arm(i % 3, t, i);
                }
                _ => {
                    fast.disarm(i % 3);
                    classic.disarm(i % 3);
                }
            }
        }
        assert_eq!(fast.len(), classic.len(), "both keep superseded entries");
        loop {
            let (a, b) = (fast.pop(), classic.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Undoing a rotation stops the timer and returns its sequence
    /// number; it is only possible right after the rotating pop.
    #[test]
    fn undo_rotation_stops_a_cadenced_timer() {
        let mut q = EventQueue::new();
        q.set_auto_cadence(true);
        q.schedule_cadenced(SimTime::from_nanos(100), 100, "tick");
        q.schedule_cadenced(SimTime::from_nanos(150), 100, "other");
        assert!(!q.undo_rotation(), "nothing popped yet");
        let mark = q.seq_mark();
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), "tick")));
        assert!(q.last_pop_rotated());
        assert!(q.undo_rotation());
        assert!(!q.undo_rotation(), "undone once");
        assert_eq!(q.seq_mark(), mark, "the re-arm's seq is returned");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(150), "other")));
        // A schedule call after the pop closes the undo window.
        q.schedule(SimTime::from_nanos(400), "late");
        assert!(!q.undo_rotation());
        assert_eq!(q.pop(), Some((SimTime::from_nanos(250), "other")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(350), "other")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(400), "late")));
    }

    /// A back-dated entry pops among equal-time events as though it had
    /// been scheduled at its back-date: after earlier-scheduled ones,
    /// before later-scheduled ones, and after those scheduled at exactly
    /// the back-date (insertion order breaks that tie). A salt keeps
    /// that order across bursts.
    #[test]
    fn backdated_entries_order_by_scheduled_at() {
        let t = SimTime::from_nanos(1_000);
        for salt in [0, 0x5eed] {
            let mut q = EventQueue::new();
            q.set_tiebreak_salt(salt);
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
                ["back900", "at0", "at300", "back@300", "back@400", "at600"],
                "salt {salt:#x}"
            );
            assert_eq!(q.popped_scheduled_at(), SimTime::from_nanos(600));
        }
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
        let mark = q.seq_mark();
        q.disarm(2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.seq_mark(), mark, "disarm draws no sequence number");
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
            q.set_auto_cadence(true);
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

    /// Disarming leaves the hot-lane cache in place (it can only raise
    /// the other sources' minimum), and pops stay in key order.
    #[test]
    fn hot_lane_cache_survives_a_disarm() {
        let mut q = EventQueue::new();
        q.set_auto_cadence(true);
        q.schedule_cadenced(SimTime::from_nanos(100), 100, "tick");
        q.arm(0, SimTime::from_nanos(250), "slot");
        q.schedule_nocancel(SimTime::from_nanos(450), "heap");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), "tick")));
        let hot = |q: &EventQueue<&str>| match &q.imp {
            Imp::Fast(f) => f.hot,
            Imp::Classic(_) => None,
        };
        assert_eq!(
            hot(&q).map(|(_, om)| om.map(|k| k.0)),
            Some(Some(SimTime::from_nanos(250)))
        );
        q.disarm(0);
        assert!(hot(&q).is_some(), "disarm cleared the hot-lane cache");
        let order: Vec<_> = (0..4)
            .filter_map(|_| q.pop())
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(order, [200, 300, 400, 450]);
        assert!(hot(&q).is_none(), "the heap pop ended the lane's run");
        assert_eq!(q.pop().map(|(t, _)| t.as_nanos()), Some(500));
        assert!(hot(&q).is_some());
        // Arming can lower another source's minimum, so it clears it.
        q.arm(1, SimTime::from_nanos(550), "slot");
        assert!(hot(&q).is_none(), "arm must clear the hot-lane cache");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(550), "slot")));
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
                fast.schedule(SimTime::from_nanos(t), i);
                classic.schedule(SimTime::from_nanos(t), i);
            } else {
                fast.schedule_periodic(SimTime::from_nanos(t), i);
                classic.schedule_periodic(SimTime::from_nanos(t), i);
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
