//! The pending-event set of the discrete-event simulator.
//!
//! [`EventQueue`] is a priority queue ordered by firing time with FIFO
//! tie-breaking: two events scheduled for the same instant fire in the order
//! they were scheduled. That determinism is what lets a whole network run be
//! replayed bit-for-bit from its seed.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies a scheduled event so it can be cancelled.
///
/// Holds the event's sequence number, which no other event of the same
/// queue ever gets, so a handle can never reach a later event. The timing
/// wheel also records the arena node that stores the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    seq: u64,
    /// The timing wheel's node index (0 for the heap queue).
    node: u32,
}

impl EventId {
    /// The handle of event `seq`, stored in wheel node `node`.
    pub(crate) fn new(seq: u64, node: u32) -> Self {
        EventId { seq, node }
    }

    /// The event's sequence number.
    pub(crate) fn seq(self) -> u64 {
        self.seq
    }

    /// The wheel node that stores the event.
    pub(crate) fn node(self) -> u32 {
        self.node
    }
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    cancelled: bool,
    payload: E,
}

// Order entries so that the *smallest* (time, seq) is popped first from
// `BinaryHeap`, which is a max-heap: reverse the comparison.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered, FIFO-stable queue of simulation events carrying payloads
/// of type `E`.
///
/// # Examples
///
/// ```
/// use jrsnd_sim::event::EventQueue;
/// use jrsnd_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "late");
/// q.schedule(SimTime::from_nanos(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_nanos(10), "early"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Sequence numbers scheduled but neither fired nor cancelled.
    live: std::collections::HashSet<u64>,
    /// Cancelled sequence numbers whose heap entries are still pending
    /// lazy removal.
    cancelled: std::collections::HashSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            live: std::collections::HashSet::new(),
            cancelled: std::collections::HashSet::new(),
        }
    }

    /// Schedules `payload` to fire at `time`, returning a handle usable with
    /// [`EventQueue::cancel`].
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            seq,
            cancelled: false,
            payload,
        });
        self.live.insert(seq);
        EventId::new(seq, 0)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an already
    /// fired or already cancelled event returns `false` and has no effect.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.live.remove(&id.seq) {
            // Lazy removal: the heap entry is skipped when it surfaces.
            self.cancelled.insert(id.seq);
            // Restore the peek invariant in case we just killed the head.
            self.drop_cancelled_heads();
            true
        } else {
            false
        }
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// entries. Returns `None` when no live event remains.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(!entry.cancelled);
            self.live.remove(&entry.seq);
            // A cancelled entry buried below the popped head may now have
            // surfaced; drop it so peeking stays a shared-borrow O(1) read.
            self.drop_cancelled_heads();
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// The firing time of the earliest live event, if any.
    ///
    /// Takes `&self`: [`EventQueue::cancel`] and [`EventQueue::pop`]
    /// maintain the invariant that the heap head is never a cancelled
    /// entry, so peeking never needs to clean up.
    pub fn peek_time(&self) -> Option<SimTime> {
        let entry = self.heap.peek()?;
        debug_assert!(!self.cancelled.contains(&entry.seq));
        Some(entry.time)
    }

    /// Removes cancelled entries sitting at the heap head, upholding the
    /// invariant that makes [`EventQueue::peek_time`] a shared-borrow read.
    fn drop_cancelled_heads(&mut self) {
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                break;
            }
        }
    }

    /// Number of live (scheduled, not cancelled, not yet fired) events.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let _b = q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_twice_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.pop().unwrap();
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_fire_with_other_live_events_is_noop() {
        // Regression: cancelling an already-fired event while another is
        // still live used to corrupt len() and report a phantom cancel.
        let mut q = EventQueue::new();
        let fast = q.schedule(t(0), "fast");
        q.schedule(t(319), "slow");
        assert_eq!(q.pop().unwrap().1, "fast");
        assert!(!q.cancel(fast), "fast already fired");
        assert_eq!(q.len(), 1, "slow is still live");
        assert_eq!(q.pop().unwrap().1, "slow");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn len_tracks_schedule_cancel_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;

    /// Operations the reference model replays against the queue.
    #[derive(Debug, Clone)]
    pub(crate) enum Op {
        Schedule(u64),
        CancelNth(usize),
        Pop,
        Peek,
    }

    pub(crate) fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..1000).prop_map(Op::Schedule),
            (0usize..64).prop_map(Op::CancelNth),
            Just(Op::Pop),
            Just(Op::Peek),
        ]
    }

    proptest! {
        /// The queue must agree with a naive reference model (a vector of
        /// live (time, seq) entries popped by minimum) under arbitrary
        /// interleavings of schedule/cancel/pop.
        #[test]
        fn queue_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut queue: EventQueue<u64> = EventQueue::new();
            // Reference: (time, seq, payload) triples still live.
            let mut model: Vec<(u64, u64, u64)> = Vec::new();
            let mut ids: Vec<(EventId, u64)> = Vec::new(); // (id, seq), incl. dead
            let mut next_seq = 0u64;
            for op in ops {
                match op {
                    Op::Schedule(t) => {
                        let id = queue.schedule(SimTime::from_nanos(t), next_seq);
                        model.push((t, next_seq, next_seq));
                        ids.push((id, next_seq));
                        next_seq += 1;
                    }
                    Op::CancelNth(k) => {
                        if ids.is_empty() {
                            continue;
                        }
                        let (id, seq) = ids[k % ids.len()];
                        let was_live = model.iter().any(|&(_, s, _)| s == seq);
                        prop_assert_eq!(queue.cancel(id), was_live);
                        model.retain(|&(_, s, _)| s != seq);
                    }
                    Op::Pop => {
                        let expect = model
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &(t, s, _))| (t, s))
                            .map(|(i, &(t, _, p))| (i, t, p));
                        match (queue.pop(), expect) {
                            (Some((qt, qp)), Some((i, t, p))) => {
                                prop_assert_eq!(qt, SimTime::from_nanos(t));
                                prop_assert_eq!(qp, p);
                                model.remove(i);
                            }
                            (None, None) => {}
                            (got, want) => {
                                return Err(TestCaseError::fail(format!(
                                    "queue {got:?} vs model {want:?}"
                                )));
                            }
                        }
                    }
                    Op::Peek => {
                        // Exercised through a shared borrow: peeking must
                        // not require `&mut` and must not disturb state.
                        let shared: &EventQueue<u64> = &queue;
                        let want = model.iter().map(|&(t, s, _)| (t, s)).min().map(|(t, _)| t);
                        prop_assert_eq!(shared.peek_time(), want.map(SimTime::from_nanos));
                        prop_assert_eq!(shared.peek_time(), want.map(SimTime::from_nanos));
                    }
                }
                prop_assert_eq!(queue.len(), model.len());
                // The shared-borrow peek agrees with the model after *every*
                // operation, whatever interleaving produced the state.
                let min_time = model.iter().map(|&(t, s, _)| (t, s)).min().map(|(t, _)| t);
                prop_assert_eq!(queue.peek_time(), min_time.map(SimTime::from_nanos));
            }
            // Drain: remaining pops must come out in (time, seq) order.
            model.sort_unstable();
            for &(t, _, p) in &model {
                let (qt, qp) = queue.pop().expect("model says more events remain");
                prop_assert_eq!(qt, SimTime::from_nanos(t));
                prop_assert_eq!(qp, p);
            }
            prop_assert!(queue.pop().is_none());
        }
    }
}
