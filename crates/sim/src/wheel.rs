//! A hierarchical timing wheel — the production scheduler behind
//! [`crate::engine::Engine`].
//!
//! The original [`crate::event::EventQueue`] is a binary heap: every
//! schedule and pop costs O(log n), which at 10⁵–10⁶ pending events makes
//! the scheduler itself a hot spot. [`TimingWheel`] replaces it with the
//! classical hierarchical timing wheel (Varghese & Lauck): eight levels of
//! 256 slots over the 64-bit nanosecond clock, so an event is bucketed by
//! the highest byte in which its firing time differs from the wheel's
//! current time. Scheduling is O(1); a pop cascades an event through at
//! most seven levels, amortized O(1); per-level occupancy bitmaps make
//! "find the next non-empty slot" four word-scans instead of 256 probes.
//!
//! # Storage
//!
//! * **One node arena.** Every entry lives in a single `Vec` of nodes
//!   recycled through a free list, so a warm wheel allocates nothing.
//! * **Slot lists.** Each slot is a singly linked list of `u32` node
//!   indices threaded through the nodes; cascading a slot relinks its
//!   nodes into the slots below without moving or copying them.
//! * **Sequence handles.** An [`EventId`] holds the event's sequence
//!   number, which the wheel never hands out twice, and the index of its
//!   node. `cancel` checks that the node still holds that sequence number
//!   and a live payload, so a stale handle (its event fired or cancelled,
//!   its node perhaps reused) cancels nothing, and `len` is a counter. A
//!   cancelled entry still linked into a slot is unlinked and freed when
//!   that slot is next scanned.
//! * **One-entry take.** When level 0 is exhausted and the earliest
//!   occupied higher-level slot holds exactly one live entry, every lower
//!   level is empty, so that entry is the minimum: it is taken directly
//!   instead of being cascaded down level by level.
//!
//! The wheel keeps the exact determinism contract of the heap queue —
//! events fire in `(time, seq)` order, i.e. FIFO among events scheduled
//! for the same instant — and the heap queue stays in-tree as the
//! reference oracle: a proptest replays arbitrary
//! schedule/cancel/pop/peek interleavings against both and demands
//! identical observable behaviour.

use crate::event::EventId;
use crate::time::SimTime;

/// log2 of the slots per level.
const BITS: usize = 8;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Levels; 8 × 8 bits covers the full `u64` nanosecond clock.
const LEVELS: usize = 8;
/// Low-byte mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Words per occupancy bitmap (256 slots / 64 bits).
const WORDS: usize = SLOTS / 64;
/// The end of a slot list or of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<E> {
    /// Requested firing time in nanos (may sit below the wheel's current
    /// time when scheduled "into the past"; ordering always uses it).
    time: u64,
    /// The event's sequence number: FIFO order among equal times, and the
    /// identity its [`EventId`] is checked against.
    seq: u64,
    /// The next node of this node's slot list, or of the free list.
    next: u32,
    /// `Some` while the event is live; `None` once fired or cancelled.
    payload: Option<E>,
}

impl<E> Node<E> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// A time-ordered, FIFO-stable pending-event set with O(1) scheduling,
/// amortized O(1) pops, and a shared-borrow O(1) peek.
///
/// Drop-in replacement for [`crate::event::EventQueue`] — same API, same
/// `(time, seq)` pop order, same cancellation semantics.
///
/// # Examples
///
/// ```
/// use jrsnd_sim::wheel::TimingWheel;
/// use jrsnd_sim::time::SimTime;
///
/// let mut w = TimingWheel::new();
/// w.schedule(SimTime::from_secs(2), "late");
/// w.schedule(SimTime::from_nanos(10), "early");
/// assert_eq!(w.peek_time(), Some(SimTime::from_nanos(10)));
/// let (t, e) = w.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_nanos(10), "early"));
/// ```
#[derive(Debug)]
pub struct TimingWheel<E> {
    /// The node arena: every scheduled entry, live, lazily cancelled or
    /// free.
    nodes: Vec<Node<E>>,
    /// Head of the free list threaded through `Node::next`.
    free: u32,
    /// `heads[l][slot]` heads the list of entries whose time differs from
    /// `current` first in byte `l`. Entries within a slot are unordered;
    /// extraction scans the (small) slot for the `(time, seq)` minimum.
    heads: [[u32; SLOTS]; LEVELS],
    /// Occupancy bitmaps, one bit per slot, for O(words) slot scans.
    occupied: [[u64; WORDS]; LEVELS],
    /// The wheel's notion of "now": the slot position of the last
    /// extraction. Only ever moves forward.
    current: u64,
    /// Node index of the cached global minimum, held outside the slots so
    /// peeking is a shared-borrow field read. Invariant: `Some` iff any
    /// live event exists, and it is the `(time, seq)`-minimal live entry.
    next: Option<u32>,
    /// Entries linked into slots (live or lazily cancelled).
    stored: usize,
    /// Lazily cancelled entries still linked into slots.
    cancelled: usize,
    /// Live events: scheduled, neither fired nor cancelled.
    live: usize,
    next_seq: u64,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// Creates an empty wheel at time zero.
    pub fn new() -> Self {
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [[0u64; WORDS]; LEVELS],
            current: 0,
            next: None,
            stored: 0,
            cancelled: 0,
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`, returning a cancellation
    /// handle. Times before an already-fired event are honoured the same
    /// way [`crate::event::EventQueue`] honours them: the event simply
    /// becomes the most urgent one.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        let node = Node {
            time: time.as_nanos(),
            seq,
            next: NIL,
            payload: Some(payload),
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("timing wheel holds at most u32::MAX - 1 entries");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        let key = self.nodes[idx as usize].key();
        match self.next {
            Some(head) if self.nodes[head as usize].key() <= key => self.place(idx),
            _ => {
                // The new event preempts the cached minimum.
                if let Some(old) = self.next.replace(idx) {
                    self.place(old);
                }
            }
        }
        EventId::new(seq, idx)
    }

    /// Cancels a previously scheduled event. Returns `true` if it was
    /// still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let idx = id.node();
        let node = match self.nodes.get_mut(idx as usize) {
            Some(node) if node.seq == id.seq() && node.payload.is_some() => node,
            _ => return false,
        };
        node.payload = None;
        self.live -= 1;
        if self.next == Some(idx) {
            self.next = None;
            self.release(idx);
            self.refill();
        } else {
            // Lazy: the node is unlinked when its slot is next scanned.
            self.cancelled += 1;
        }
        true
    }

    /// Removes and returns the earliest pending event. `None` when no
    /// live event remains.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let head = self.next.take()?;
        self.live -= 1;
        let node = &mut self.nodes[head as usize];
        let time = node.time;
        let payload = node.payload.take().expect("cached minimum is live");
        self.release(head);
        self.refill();
        Some((SimTime::from_nanos(time), payload))
    }

    /// The firing time of the earliest live event, if any. A shared-borrow
    /// O(1) read of the cached minimum.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next
            .map(|i| SimTime::from_nanos(self.nodes[i as usize].time))
    }

    /// Number of live (scheduled, not cancelled, not yet fired) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Returns an unlinked node to the free list.
    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
    }

    /// Links a node into the slot of the highest byte in which its
    /// effective time differs from `current`. Times at or before `current`
    /// land in the immediate slot, where the min-scan restores their true
    /// order.
    fn place(&mut self, idx: u32) {
        let t_eff = self.nodes[idx as usize].time.max(self.current);
        let xor = t_eff ^ self.current;
        let level = if xor == 0 {
            0
        } else {
            (63 - xor.leading_zeros() as usize) / BITS
        };
        let slot = ((t_eff >> (BITS * level)) & MASK) as usize;
        self.nodes[idx as usize].next = self.heads[level][slot];
        self.heads[level][slot] = idx;
        self.occupied[level][slot / 64] |= 1u64 << (slot % 64);
        self.stored += 1;
    }

    /// First occupied slot index `>= start` at `level`, via the bitmap.
    fn next_occupied(&self, level: usize, start: usize) -> Option<usize> {
        let mut word = start / 64;
        let mut bits = self.occupied[level][word] & (!0u64 << (start % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= WORDS {
                return None;
            }
            bits = self.occupied[level][word];
        }
    }

    /// Unlinks and frees the lazily cancelled nodes of one slot and
    /// returns the slot's head, keeping the bitmap and counts in sync.
    fn purge_slot(&mut self, level: usize, slot: usize) -> u32 {
        if self.cancelled > 0 {
            let mut prev = NIL;
            let mut cur = self.heads[level][slot];
            while cur != NIL {
                let next = self.nodes[cur as usize].next;
                if self.nodes[cur as usize].payload.is_none() {
                    if prev == NIL {
                        self.heads[level][slot] = next;
                    } else {
                        self.nodes[prev as usize].next = next;
                    }
                    self.release(cur);
                    self.stored -= 1;
                    self.cancelled -= 1;
                } else {
                    prev = cur;
                }
                cur = next;
            }
        }
        let head = self.heads[level][slot];
        if head == NIL {
            self.occupied[level][slot / 64] &= !(1u64 << (slot % 64));
        }
        head
    }

    /// Re-establishes the `next` invariant by extracting the minimum live
    /// entry from the wheel, cascading higher-level slots as needed.
    fn refill(&mut self) {
        debug_assert!(self.next.is_none());
        'search: while self.stored > 0 {
            // Level 0: the slot holding `current` (plus anything scheduled
            // "into the past") and the remainder of its 256-tick window.
            let mut start = (self.current & MASK) as usize;
            while let Some(found) = self.next_occupied(0, start) {
                let head = self.purge_slot(0, found);
                if head == NIL {
                    start = found + 1;
                    if start >= SLOTS {
                        break;
                    }
                    continue;
                }
                // Scan the slot list for the (time, seq) minimum.
                let (mut min, mut min_prev) = (head, NIL);
                let (mut prev, mut cur) = (head, self.nodes[head as usize].next);
                while cur != NIL {
                    if self.nodes[cur as usize].key() < self.nodes[min as usize].key() {
                        (min, min_prev) = (cur, prev);
                    }
                    prev = cur;
                    cur = self.nodes[cur as usize].next;
                }
                let after = self.nodes[min as usize].next;
                if min_prev == NIL {
                    self.heads[0][found] = after;
                    if after == NIL {
                        self.occupied[0][found / 64] &= !(1u64 << (found % 64));
                    }
                } else {
                    self.nodes[min_prev as usize].next = after;
                }
                self.stored -= 1;
                self.current = (self.current & !MASK) | found as u64;
                self.next = Some(min);
                return;
            }
            // Level 0 exhausted for this rotation: every lower level is
            // empty, so the earliest occupied higher-level slot holds the
            // minimum.
            for level in 1..LEVELS {
                let cur_slot = ((self.current >> (BITS * level)) & MASK) as usize;
                let Some(found) = self.next_occupied(level, cur_slot) else {
                    continue;
                };
                let head = self.purge_slot(level, found);
                if head == NIL {
                    // The slot held only lazily-cancelled entries;
                    // restart the pass (the bitmap now skips it).
                    continue 'search;
                }
                self.heads[level][found] = NIL;
                self.occupied[level][found / 64] &= !(1u64 << (found % 64));
                let first = &self.nodes[head as usize];
                if first.next == NIL {
                    // One entry: it is the minimum, so take it directly and
                    // move `current` to its time, where cascading it down
                    // level by level would have left it.
                    debug_assert!(first.time >= self.current);
                    self.current = first.time;
                    self.stored -= 1;
                    self.next = Some(head);
                    return;
                }
                // Advance to the slot's start; its entries relink into
                // levels below.
                let span = BITS * (level + 1);
                let prefix = if span >= 64 {
                    0
                } else {
                    self.current & (!0u64 << span)
                };
                self.current = prefix | ((found as u64) << (BITS * level));
                let mut cur = head;
                while cur != NIL {
                    let next = self.nodes[cur as usize].next;
                    self.stored -= 1;
                    self.place(cur);
                    cur = next;
                }
                continue 'search;
            }
            // Every stored entry sits at or after `current` by
            // construction, so reaching here means this pass's purges
            // removed the last lazily-cancelled entries.
            assert_eq!(self.stored, 0, "stored events but no occupied slot");
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimingWheel::new();
        // Times spanning several wheel levels, scheduled out of order.
        let times = [
            3u64,
            1 << 9,
            (1 << 17) + 5,
            1 << 30,
            (1 << 45) + 123,
            u64::MAX,
            7,
            1 << 9,
        ];
        for (i, &n) in times.iter().enumerate() {
            w.schedule(t(n), i);
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        sorted.sort_unstable();
        let got: Vec<(SimTime, usize)> = std::iter::from_fn(|| w.pop()).collect();
        let want: Vec<(SimTime, usize)> = sorted.into_iter().map(|(n, i)| (t(n), i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut w = TimingWheel::new();
        for i in 0..100 {
            w.schedule(t(5_000_000), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_pop_keeps_fifo_at_equal_time() {
        let mut w = TimingWheel::new();
        w.schedule(t(10), 0);
        w.schedule(t(10), 1);
        assert_eq!(w.pop().unwrap().1, 0);
        // Scheduling more events at the already-started instant keeps FIFO.
        w.schedule(t(10), 2);
        assert_eq!(w.pop().unwrap().1, 1);
        assert_eq!(w.pop().unwrap().1, 2);
        assert!(w.pop().is_none());
    }

    #[test]
    fn cancel_semantics_match_the_queue() {
        let mut w = TimingWheel::new();
        let a = w.schedule(t(1), "a");
        let b = w.schedule(t(2), "b");
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double cancel is a no-op");
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_time(), Some(t(2)));
        assert_eq!(w.pop().unwrap().1, "b");
        assert!(!w.cancel(b), "cancel after fire is a no-op");
        assert!(w.is_empty());
    }

    #[test]
    fn cancelling_a_buried_entry_is_lazy_but_invisible() {
        let mut w = TimingWheel::new();
        w.schedule(t(1), 1);
        let mid = w.schedule(t(1 << 20), 2);
        w.schedule(t(1 << 40), 3);
        assert!(w.cancel(mid));
        assert_eq!(w.len(), 2);
        let got: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, vec![1, 3]);
    }

    #[test]
    fn stale_handle_of_a_reused_node_cancels_nothing() {
        let mut w = TimingWheel::new();
        let fired = w.schedule(t(5), "fired");
        assert_eq!(w.pop().unwrap().1, "fired");
        // The freed node is reused by the next schedule, for an event with
        // a new sequence number: the old handle must not reach it.
        let reused = w.schedule(t(7), "reused");
        assert_eq!(fired.node(), reused.node(), "node reused");
        assert!(!w.cancel(fired));
        assert_eq!(w.len(), 1);
        // Same for a handle retired by cancellation.
        assert!(w.cancel(reused));
        let again = w.schedule(t(9), "again");
        assert_eq!(reused.node(), again.node(), "node reused");
        assert!(!w.cancel(reused));
        assert_eq!(w.pop().unwrap().1, "again");
        assert!(w.is_empty());
    }

    #[test]
    fn cancelling_the_cached_minimum_promotes_the_next() {
        let mut w = TimingWheel::new();
        let head = w.schedule(t(10), "head");
        w.schedule(t(1 << 20), "far");
        w.schedule(t(10), "tie");
        assert_eq!(w.peek_time(), Some(t(10)));
        assert!(w.cancel(head));
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek_time(), Some(t(10)));
        assert_eq!(w.pop().unwrap().1, "tie");
        assert_eq!(w.pop().unwrap().1, "far");
        assert!(w.pop().is_none());
    }

    #[test]
    fn one_entry_take_keeps_order_with_past_and_equal_times() {
        let mut w = TimingWheel::new();
        // Lone entries in distinct higher-level slots are taken directly.
        w.schedule(t(1 << 33), "a");
        w.schedule(t(3 << 33), "c");
        w.schedule(t(2 << 33), "b");
        assert_eq!(w.pop().unwrap().1, "a");
        // Into the past relative to the cursor, and equal to it: both fire
        // before the lone far entries, the tie FIFO after the past one.
        w.schedule(t(1 << 33), "now");
        w.schedule(t(5), "past");
        w.schedule(t(1 << 33), "now-2");
        assert_eq!(w.pop().unwrap().1, "past");
        assert_eq!(w.pop().unwrap().1, "now");
        assert_eq!(w.pop().unwrap().1, "now-2");
        // A lone entry taken directly moves the cursor to its time, so an
        // equal-time event scheduled after it still fires after it.
        assert_eq!(w.pop().unwrap().1, "b");
        w.schedule(t(2 << 33), "b-tie");
        w.schedule(t((2 << 33) + 1), "b-next");
        assert_eq!(w.pop().unwrap().1, "b-tie");
        assert_eq!(w.pop().unwrap().1, "b-next");
        assert_eq!(w.pop().unwrap().1, "c");
        assert!(w.is_empty());
    }

    #[test]
    fn peek_is_shared_borrow_and_stable() {
        let mut w = TimingWheel::new();
        w.schedule(t(500), ());
        w.schedule(t(100), ());
        let shared: &TimingWheel<()> = &w;
        assert_eq!(shared.peek_time(), Some(t(100)));
        assert_eq!(shared.peek_time(), Some(t(100)));
    }

    #[test]
    fn scheduling_before_the_last_pop_still_fires_in_time_order() {
        let mut w = TimingWheel::new();
        w.schedule(t(1 << 24), "far");
        assert_eq!(w.pop().unwrap().1, "far");
        // "Past" relative to the wheel's cursor; the heap-queue oracle
        // happily fires such events next, so the wheel must too.
        w.schedule(t(3), "past-a");
        w.schedule(t(1), "past-b");
        assert_eq!(w.pop().unwrap().1, "past-b");
        assert_eq!(w.pop().unwrap().1, "past-a");
    }

    #[test]
    fn large_event_population_drains_sorted() {
        let mut w = TimingWheel::new();
        // A deterministic pseudo-random scatter over ~10 s of nanos.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut times = Vec::new();
        for i in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let time = x % 10_000_000_000;
            times.push(time);
            w.schedule(t(time), i);
        }
        assert_eq!(w.len(), 50_000);
        let mut last = (0u64, 0u64);
        let mut seen = 0usize;
        while let Some((time, i)) = w.pop() {
            let key = (time.as_nanos(), i);
            assert!(
                key > last || seen == 0,
                "out of order: {key:?} after {last:?}"
            );
            assert_eq!(time.as_nanos(), times[i as usize]);
            last = key;
            seen += 1;
        }
        assert_eq!(seen, 50_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::event::proptests::{arb_op, Op};
    use crate::event::EventQueue;
    use proptest::prelude::*;

    /// Replays one op list against both schedulers, demanding identical
    /// observable behaviour (pop results, cancel results, peeks, lengths).
    fn check_against_oracle(ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut oracle: EventQueue<u64> = EventQueue::new();
        let mut ids: Vec<(EventId, EventId)> = Vec::new();
        let mut payload = 0u64;
        for op in ops {
            match op {
                Op::Schedule(t) => {
                    let time = SimTime::from_nanos(t);
                    let w = wheel.schedule(time, payload);
                    let o = oracle.schedule(time, payload);
                    ids.push((w, o));
                    payload += 1;
                }
                Op::CancelNth(k) => {
                    if ids.is_empty() {
                        continue;
                    }
                    let (w, o) = ids[k % ids.len()];
                    prop_assert_eq!(wheel.cancel(w), oracle.cancel(o));
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.pop(), oracle.pop());
                }
                Op::Peek => {
                    prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
                }
            }
            prop_assert_eq!(wheel.len(), oracle.len());
            prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
        }
        loop {
            let (w, o) = (wheel.pop(), oracle.pop());
            prop_assert_eq!(&w, &o);
            if w.is_none() {
                break;
            }
        }
        Ok(())
    }

    /// Times drawn across the full clock so every wheel level and cascade
    /// path gets exercised, not just the low bytes.
    fn arb_wide_op() -> impl Strategy<Value = Op> {
        let wide_time = prop_oneof![
            0u64..1000,
            1_000_000u64..1_000_000_000,
            0u64..1 << 40,
            Just(u64::MAX),
            any::<u64>(),
        ];
        prop_oneof![
            wide_time.prop_map(Op::Schedule),
            (0usize..64).prop_map(Op::CancelNth),
            Just(Op::Pop),
            Just(Op::Peek),
        ]
    }

    proptest! {
        /// The wheel must be observationally identical to the retained
        /// `EventQueue` oracle under the queue's own op model.
        #[test]
        fn wheel_matches_event_queue_oracle(
            ops in proptest::collection::vec(arb_op(), 1..200),
        ) {
            check_against_oracle(ops)?;
        }

        /// Same, with firing times spread over the whole 64-bit clock.
        #[test]
        fn wheel_matches_oracle_across_all_levels(
            ops in proptest::collection::vec(arb_wide_op(), 1..200),
        ) {
            check_against_oracle(ops)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The shape of one 20k-node scale strip: over 10k events uniform
        /// over 30 s, with cancels interleaved among the schedules, then a
        /// full drain — slots several entries deep at the top levels and
        /// lone entries below, so both the cascade and the one-entry take
        /// run many times per case.
        #[test]
        fn scale_shaped_drain_matches_oracle(
            seed in any::<u64>(),
            events in 10_000usize..14_000,
            cancel_every in 3usize..12,
        ) {
            let mut x = seed | 1;
            let mut ops = Vec::with_capacity(events + events / cancel_every);
            for i in 0..events {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ops.push(Op::Schedule(x % 30_000_000_000));
                if i % cancel_every == 0 {
                    ops.push(Op::CancelNth((x >> 40) as usize));
                }
            }
            check_against_oracle(ops)?;
        }
    }
}
