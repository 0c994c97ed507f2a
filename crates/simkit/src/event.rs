//! Deterministic event queue.
//!
//! [`EventQueue`] is a min-priority queue of `(SimTime, E)` pairs. Events
//! that share a firing time are delivered in insertion order: every push is
//! stamped with a monotonically increasing sequence number that acts as the
//! tie-breaker. This makes simulation runs reproducible regardless of how
//! the underlying containers happen to break ties.
//!
//! # Two lanes
//!
//! Discrete-event simulations of queueing systems schedule the overwhelming
//! majority of their events a few hundred nanoseconds to a few hundred
//! microseconds ahead of the current virtual time (core dispatches at `now`,
//! work completions at `now + cost`, device fetch/completion latencies,
//! interrupt deliveries). A binary heap pays `O(log n)` sift work for every
//! one of those pushes and pops. [`EventQueue`] therefore keeps two lanes,
//! calendar-queue style:
//!
//! * a **near-future lane**: a ring of [`NEAR_BUCKETS`] buckets, each
//!   covering a granule of `1 << GRANULE_SHIFT` nanoseconds. Pushes whose
//!   firing granule lies within the ring's current window
//!   `[cursor, cursor + NEAR_BUCKETS)` are appended to their bucket in
//!   O(1); a bucket is sorted once, when draining reaches it. A bitmask
//!   with one bit per bucket marks the occupied ones, so finding the next
//!   bucket to drain is a `trailing_zeros` per 64 buckets, not a step per
//!   empty bucket.
//! * a **far lane**: the plain binary heap, holding only timers beyond the
//!   window (stop markers, warmup boundaries, think-time wakeups, storm
//!   intervals, open-loop arrivals) and the rare push behind the cursor.
//!
//! # Keeping the window where the events are
//!
//! The window follows the drain. Draining advances `cursor` to the first
//! occupied bucket; when the near lane is empty, a pop first *resyncs*
//! the cursor to the far head's granule, so an idle gap longer than the
//! window does not strand later near-future pushes in the far lane. Every
//! time the cursor moves, far events whose granule now lies inside the
//! window *migrate* into their buckets, keeping their sequence numbers.
//! Invariant: no far event lies inside the window unless a behind-cursor
//! event sits at the far head. That head is the global minimum and pops
//! next, and migration resumes right after it.
//!
//! Every pop compares the near-lane head against the far-lane head on the
//! full `(time, seq)` key, so the observable order is *identical* to the
//! reference single-heap implementation ([`HeapQueue`]) — property-tested
//! in `simkit/tests/proptests.rs` against random push/pop interleavings,
//! idle gaps and batched pushes, and micro-benched old-vs-new in
//! `bench/benches/micro.rs`.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event: fires at `at`, ties broken by `seq` (insertion order).
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the `BinaryHeap` max-heap acts as a min-heap on
        // (time, sequence).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Width of one near-future bucket: events within the same
/// `2^GRANULE_SHIFT` ns granule share a bucket (1.024 µs).
pub const GRANULE_SHIFT: u32 = 10;

/// Number of buckets in the near-future ring (must stay a power of two).
/// Window covered: `NEAR_BUCKETS << GRANULE_SHIFT` ns ≈ 262 µs — the
/// dominant event horizon of the simulated storage stack.
pub const NEAR_BUCKETS: usize = 256;

const NEAR_MASK: u64 = NEAR_BUCKETS as u64 - 1;

/// One near-lane bucket. `sorted == true` means `items` is kept in
/// *descending* `(time, seq)` order so the minimum pops off the tail.
struct Bucket<E> {
    items: Vec<(SimTime, u64, E)>,
    sorted: bool,
}

impl<E> Bucket<E> {
    const fn new() -> Self {
        Bucket {
            // dd-alloc-allowlist: const empty Vec — no heap allocation.
            items: Vec::new(),
            sorted: false,
        }
    }

    /// Sorts (once) so the minimal `(time, seq)` sits at the tail.
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // Keys are unique (seq is unique), so unstable is exact.
            self.items
                .sort_unstable_by(|a, b| (b.0, b.1).cmp(&(a.0, a.1)));
            self.sorted = true;
        }
    }

    fn push(&mut self, at: SimTime, seq: u64, event: E) {
        if self.sorted {
            // Monotone-append fast path: descending order keeps the
            // minimum at the tail, so a new overall minimum appends in
            // O(1) — the common case when the drain pushes follow-ups
            // strictly earlier than the bucket's remaining events.
            match self.items.last() {
                Some((t, s, _)) if (at, seq) >= (*t, *s) => {
                    // Active (draining) bucket: keep descending order.
                    // Pushes at the current time carry the largest seq so
                    // far, i.e. they belong near the tail —
                    // `partition_point` finds the spot and the memmove is
                    // short.
                    let pos = self.items.partition_point(|(t, s, _)| (*t, *s) > (at, seq));
                    self.items.insert(pos, (at, seq, event));
                }
                _ => self.items.push((at, seq, event)),
            }
        } else {
            self.items.push((at, seq, event));
        }
    }
}

/// A deterministic min-queue of timed events (bucketed near-future lane
/// plus a binary-heap far lane; see the module docs).
///
/// # Examples
///
/// ```
/// use simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// q.push(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Near-future ring; slot `g & NEAR_MASK` holds granule `g` whenever
    /// `cursor <= g < cursor + NEAR_BUCKETS`.
    buckets: Vec<Bucket<E>>,
    /// Occupancy bitmask over the ring: bit `slot` is set iff
    /// `buckets[slot]` is non-empty.
    occupied: [u64; OCC_WORDS],
    /// Events currently in the near lane.
    near_len: usize,
    /// Granule index the ring window starts at.
    cursor: u64,
    /// Out-of-window timers and behind-cursor pushes.
    far: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    pushed_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

const fn granule(at: SimTime) -> u64 {
    at.as_nanos() >> GRANULE_SHIFT
}

/// Words of the occupancy bitmask (one bit per ring slot).
const OCC_WORDS: usize = NEAR_BUCKETS / 64;

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NEAR_BUCKETS);
        buckets.resize_with(NEAR_BUCKETS, Bucket::new);
        EventQueue {
            buckets,
            occupied: [0; OCC_WORDS],
            near_len: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            pushed_total: 0,
        }
    }

    /// Creates an empty queue pre-sized for roughly `cap` concurrently
    /// pending events (spread over the near buckets and the far heap), so
    /// the steady state allocates nothing.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.reserve(cap);
        q
    }

    /// Grows the lanes for roughly `cap` concurrently pending events.
    /// Idempotent — an already-large (e.g. arena-recycled) queue is left
    /// alone, so a recycled queue behaves exactly like a fresh
    /// [`EventQueue::with_capacity`] one, capacity aside.
    pub fn reserve(&mut self, cap: usize) {
        // Most pending events cluster in a handful of active granules;
        // sizing every bucket for an even spread (with a floor) absorbs
        // that clustering without allocating cap × NEAR_BUCKETS slots.
        let per_bucket = (cap / NEAR_BUCKETS).clamp(4, 256);
        for b in &mut self.buckets {
            b.items.reserve(per_bucket);
        }
        self.far.reserve(cap / 4 + 16);
    }

    /// Appends to the near lane; `g` must lie inside the ring window.
    #[inline]
    fn push_near(&mut self, g: u64, at: SimTime, seq: u64, event: E) {
        let slot = (g & NEAR_MASK) as usize;
        self.buckets[slot].push(at, seq, event);
        self.occupied[slot >> 6] |= 1 << (slot & 63);
        self.near_len += 1;
    }

    /// Routes one stamped event to its lane; `cursor` is `self.cursor`,
    /// passed in so a batch loads it once.
    #[inline]
    fn insert(&mut self, cursor: u64, at: SimTime, seq: u64, event: E) {
        let g = granule(at);
        if g.wrapping_sub(cursor) < NEAR_BUCKETS as u64 {
            self.push_near(g, at, seq, event);
        } else {
            self.far.push(Scheduled { at, seq, event });
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed_total += 1;
        self.insert(self.cursor, at, seq, event);
    }

    /// Schedules a batch of events, assigning sequence numbers in iterator
    /// order — byte-for-byte equivalent to calling [`EventQueue::push`] per
    /// item, but with the sequence/counter bookkeeping hoisted out of the
    /// loop so the per-item work is one granule shift plus the bucket
    /// append (the monotone-append fast path of the near ring).
    pub fn push_batch<I: IntoIterator<Item = (SimTime, E)>>(&mut self, batch: I) {
        // Pushes never move the cursor, so one load serves the batch.
        let cursor = self.cursor;
        let mut seq = self.next_seq;
        for (at, event) in batch {
            self.insert(cursor, at, seq, event);
            seq += 1;
        }
        self.pushed_total += seq - self.next_seq;
        self.next_seq = seq;
    }

    /// Slot of the first occupied bucket at or after the cursor's slot,
    /// wrapping round the ring; `None` when the near lane is empty.
    #[inline]
    fn first_occupied(&self) -> Option<usize> {
        let from = (self.cursor & NEAR_MASK) as usize;
        // Dense fast path: the cursor's own bucket is usually the one
        // draining, and its length is cheaper to test than the mask walk.
        if !self.buckets[from].items.is_empty() {
            return Some(from);
        }
        let fw = from >> 6;
        let w = self.occupied[fw] & (u64::MAX << (from & 63));
        if w != 0 {
            return Some(fw << 6 | w.trailing_zeros() as usize);
        }
        // The remaining words in ring order; the last one is `fw` again,
        // whose bits at or after `from` are known clear, so any set bit
        // there is a wrapped slot before `from`.
        for i in 1..=OCC_WORDS {
            let wi = (fw + i) % OCC_WORDS;
            let w = self.occupied[wi];
            if w != 0 {
                return Some(wi << 6 | w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Moves every far-heap event whose granule now lies inside the ring
    /// window into its bucket, keeping its `seq`. Stops at the first heap
    /// head outside the window — including a behind-cursor head, which is
    /// the global minimum and pops next (and migration resumes after it).
    fn migrate(&mut self) {
        loop {
            let Some(head) = self.far.peek_mut() else {
                break;
            };
            let g = granule(head.at);
            if g.wrapping_sub(self.cursor) >= NEAR_BUCKETS as u64 {
                break;
            }
            let Scheduled { at, seq, event } = PeekMut::pop(head);
            self.push_near(g, at, seq, event);
        }
    }

    /// Finds the near-lane head: advances `cursor` to the first occupied
    /// bucket (migrating far events the moved window now covers), sorts
    /// that bucket if needed, and returns its slot and minimal
    /// `(time, seq)`. `None` when the near lane is empty.
    fn near_head(&mut self) -> Option<(usize, SimTime, u64)> {
        let slot = self.first_occupied()?;
        let step = (slot as u64).wrapping_sub(self.cursor) & NEAR_MASK;
        if step != 0 {
            self.cursor += step;
            self.migrate();
        }
        let b = &mut self.buckets[slot];
        b.ensure_sorted();
        b.items.last().map(|&(at, seq, _)| (slot, at, seq))
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.near_len == 0 {
            // Resync: with the ring idle, jump the window to the far head
            // so it and its near-future neighbours drain through buckets.
            self.cursor = granule(self.far.peek()?.at);
            self.migrate();
        }
        let near = self.near_head();
        let take_far = match (near, self.far.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((_, nat, nseq)), Some(f)) => (f.at, f.seq) < (nat, nseq),
        };
        match near {
            Some((slot, _, _)) if !take_far => {
                let b = &mut self.buckets[slot];
                let (at, _, event) = b.items.pop()?;
                if b.items.is_empty() {
                    b.sorted = false;
                    self.occupied[slot >> 6] &= !(1 << (slot & 63));
                }
                self.near_len -= 1;
                Some((at, event))
            }
            _ => {
                let s = self.far.pop()?;
                // The popped head may have been behind the cursor and
                // blocking migration of in-window events queued after it.
                self.migrate();
                Some((s.at, s.event))
            }
        }
    }

    /// The firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Non-mutating: the first occupied bucket holds the near-lane
        // minimum; take it without sorting.
        let near = self.first_occupied().and_then(|slot| {
            let b = &self.buckets[slot];
            if b.sorted {
                b.items.last().map(|(t, _, _)| *t)
            } else {
                b.items.iter().map(|(t, _, _)| *t).min()
            }
        });
        match (near, self.far.peek().map(|s| s.at)) {
            (None, f) => f,
            (n, None) => n,
            (Some(n), Some(f)) => Some(n.min(f)),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near_len == 0 && self.far.is_empty()
    }

    /// Total number of events ever pushed (for run statistics).
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Total backing capacity in events across the near-lane buckets and
    /// the far heap. Used by capacity-stability probes: once a run reaches
    /// steady state the queue must stop allocating.
    pub fn capacity(&self) -> usize {
        self.buckets.iter().map(|b| b.items.capacity()).sum::<usize>() + self.far.capacity()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.items.clear();
            b.sorted = false;
        }
        self.occupied = [0; OCC_WORDS];
        self.near_len = 0;
        self.far.clear();
    }
}

impl<E> crate::arena::ArenaReset for EventQueue<E> {
    /// Full logical reset: cursor, sequence numbers, and push counter all
    /// restart at zero (sequence numbers are the deterministic tie-break —
    /// a recycled queue must replay exactly like a fresh one), keeping the
    /// bucket-ring and far-heap allocations.
    fn arena_reset(&mut self) {
        self.clear();
        self.cursor = 0;
        self.next_seq = 0;
        self.pushed_total = 0;
    }
}

/// The reference implementation: one binary heap on `(time, seq)`.
///
/// This is the pre-bucketing [`EventQueue`]; it is kept as the behavioural
/// oracle for the property tests (order equivalence under random push/pop
/// interleavings) and as the baseline of the `micro/event_queue_*`
/// benches. Its API is a subset of [`EventQueue`]'s.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    pushed_total: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            pushed_total: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            pushed_total: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed_total += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// The firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever pushed (for run statistics).
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for t in [5u64, 3, 9, 1, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn fifo_within_same_time() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn fifo_across_lanes() {
        // Same firing time reached through the near lane and (via a push
        // far beyond the window) the far lane: seq order must still win.
        let mut q = EventQueue::new();
        let far = SimTime::from_nanos((NEAR_BUCKETS as u64 + 10) << GRANULE_SHIFT);
        q.push(far, "far-first"); // lands in the far heap
        q.push(SimTime::from_nanos(1), "near");
        q.push(far, "far-second"); // also far heap
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far-first");
        assert_eq!(q.pop().unwrap().1, "far-second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_behind_cursor_still_delivered() {
        // Pop something late, then push something earlier ("time travel"):
        // the queue is a plain priority queue, so the early event comes
        // right out even though the drain cursor moved past its granule.
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(50), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        q.push(SimTime::from_nanos(5), "early");
        assert_eq!(q.pop().unwrap().1, "early");
    }

    #[test]
    fn interleaved_push_pop_at_now() {
        // The machine's dominant pattern: pop at t, push follow-ups at t
        // and t + small deltas. Order must stay (time, seq).
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1000), 0u32);
        let (t, _) = q.pop().unwrap();
        q.push(t, 1);
        q.push(t + crate::SimDuration::from_nanos(500), 3);
        q.push(t, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_sees_both_lanes() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(5);
        q.push(far, "far");
        assert_eq!(q.peek_time(), Some(far));
        q.push(SimTime::from_nanos(3), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
    }

    #[test]
    fn counts_pushes() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.pushed_total(), 2);
        q.clear();
        assert_eq!(q.pushed_total(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn push_batch_matches_looped_push() {
        // Mixed near/far batch interleaved with single pushes and pops:
        // the batched queue must replay identically to the looped one.
        let mut batched = EventQueue::new();
        let mut looped = EventQueue::new();
        let far = SimTime::from_nanos((NEAR_BUCKETS as u64 + 3) << GRANULE_SHIFT);
        let items = [
            (SimTime::from_nanos(100), 0u32),
            (SimTime::from_nanos(100), 1),
            (far, 2),
            (SimTime::from_nanos(50), 3),
            (far, 4),
            (SimTime::from_nanos(2000), 5),
        ];
        batched.push(SimTime::from_nanos(10), 99);
        looped.push(SimTime::from_nanos(10), 99);
        batched.push_batch(items.iter().copied());
        for (at, e) in items {
            looped.push(at, e);
        }
        assert_eq!(batched.len(), looped.len());
        assert_eq!(batched.pushed_total(), looped.pushed_total());
        loop {
            let (a, b) = (batched.pop(), looped.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn push_batch_into_active_sorted_bucket() {
        // Drain into a bucket (sorting it), then batch-push into the same
        // bucket: order must stay (time, seq) across the sorted insert and
        // the monotone-append fast path.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 0u32);
        q.push(SimTime::from_nanos(30), 1);
        assert_eq!(q.pop().unwrap().1, 0); // sorts the active bucket
        q.push_batch([
            (SimTime::from_nanos(30), 2),
            (SimTime::from_nanos(20), 3),
            (SimTime::from_nanos(15), 4), // new minimum: fast append
        ]);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![4, 3, 1, 2]);
    }

    #[test]
    fn arena_reset_replays_like_fresh() {
        use crate::arena::ArenaReset;
        let mut q = EventQueue::with_capacity(512);
        for t in [5u64, 1_000_000, 3] {
            q.push(SimTime::from_nanos(t), t);
        }
        q.pop();
        q.arena_reset();
        assert!(q.is_empty());
        assert_eq!(q.pushed_total(), 0);
        // Replays exactly like a fresh queue (seq restarts at zero).
        let mut fresh = EventQueue::new();
        for t in [7u64, 7, 2] {
            q.push(SimTime::from_nanos(t), t);
            fresh.push(SimTime::from_nanos(t), t);
        }
        loop {
            let (a, b) = (q.pop(), fresh.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Ring window in nanoseconds.
    const WINDOW: u64 = (NEAR_BUCKETS as u64) << GRANULE_SHIFT;

    #[test]
    fn idle_gap_resyncs_the_near_lane() {
        // Drain across an idle gap of more than two ring windows: the next
        // near-future push must land in the ring, not the far heap.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 0u32);
        assert_eq!(q.pop().unwrap().1, 0);
        let late = SimTime::from_nanos(100 + 2 * WINDOW + 5_000);
        q.push(late, 1);
        assert_eq!(q.near_len, 0, "beyond the window: far lane");
        assert_eq!(q.pop(), Some((late, 1)));
        q.push(late + crate::SimDuration::from_micros(1), 2);
        assert_eq!(q.near_len, 1, "a push just after the gap must use the ring");
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn window_advance_migrates_far_events() {
        // `b` is one granule beyond the window at push time; once draining
        // moves the cursor to `c`'s granule, `b` must move into the ring.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(0), "a");
        q.push(SimTime::from_nanos(WINDOW + 500), "b");
        q.push(SimTime::from_nanos(WINDOW - 2_000), "c");
        assert_eq!((q.near_len, q.far.len()), (2, 1));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!((q.near_len, q.far.len()), (1, 0));
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn behind_cursor_head_pops_then_migration_resumes() {
        // A push behind the cursor sits at the far heap's head and blocks
        // migration; popping it lets the in-window far event move in.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10 << GRANULE_SHIFT), "cursor");
        let far = SimTime::from_nanos((10 << GRANULE_SHIFT) + WINDOW + 1);
        q.push(far, "far");
        assert_eq!(q.pop().unwrap().1, "cursor");
        q.push(SimTime::from_nanos(5), "behind");
        q.push(SimTime::from_nanos(20 << GRANULE_SHIFT), "near");
        assert_eq!(q.pop().unwrap().1, "behind");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.near_len, 1, "the far event migrated once unblocked");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.is_empty());
    }

    #[test]
    fn occupancy_search_wraps_round_the_ring() {
        // Cursor near the ring's end: the next occupied slots lie before
        // the cursor's slot in index order and must be found by wrapping.
        let g = |n: u64| SimTime::from_nanos(n << GRANULE_SHIFT);
        let mut q = EventQueue::new();
        q.push(g(250), 0u32);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(g(NEAR_BUCKETS as u64 + 70), 1); // slot 70
        q.push(g(NEAR_BUCKETS as u64 + 4), 2); // slot 4
        q.push(g(255), 3); // slot 255
        assert_eq!(q.near_len, 3);
        assert_eq!(q.peek_time(), Some(g(255)));
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.peek_time(), Some(g(NEAR_BUCKETS as u64 + 4)));
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.occupied, [0; OCC_WORDS]);
    }

    #[test]
    fn arena_reset_zeroes_occupancy_and_replays_like_fresh() {
        use crate::arena::ArenaReset;
        // Leave buckets occupied all round the ring (and far timers), then
        // recycle: the reset queue must replay a gap-and-wrap timeline
        // exactly like a fresh one, lane by lane.
        let mut q = EventQueue::with_capacity(512);
        for n in [3u64, 64, 130, 200, 255, 300, 5_000] {
            q.push(SimTime::from_nanos(n << GRANULE_SHIFT), n);
        }
        q.pop();
        q.arena_reset();
        assert_eq!(q.occupied, [0; OCC_WORDS]);
        assert_eq!((q.near_len, q.cursor), (0, 0));
        let mut fresh = EventQueue::new();
        let timeline = [
            7u64,
            200_000,
            3 * WINDOW,
            3 * WINDOW + 900,
            WINDOW - 1,
            3 * WINDOW,
        ];
        for (i, &t) in timeline.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i as u64);
            fresh.push(SimTime::from_nanos(t), i as u64);
            if i % 2 == 1 {
                assert_eq!(q.pop(), fresh.pop());
            }
            assert_eq!((q.near_len, q.far.len()), (fresh.near_len, fresh.far.len()));
            assert_eq!(q.peek_time(), fresh.peek_time());
        }
        loop {
            let (a, b) = (q.pop(), fresh.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn heap_queue_matches_basic_order() {
        let mut q = HeapQueue::new();
        for t in [5u64, 3, 9, 1, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }
}
