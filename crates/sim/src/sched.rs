use std::cmp::Reverse;
use std::collections::BinaryHeap;

use flowscript_codec::IdMap;

use crate::event::EventId;
use crate::fault::FaultAction;
use crate::node::NodeId;
use crate::time::SimTime;
use crate::world::PayloadKind;

/// What a pending event does when it runs: a value, whether a node
/// asked for it or the environment's script did.
pub(crate) enum Event {
    /// Hand a message to its destination.
    Deliver(Delivery),
    /// Hand `node` its timer's `tag`, if the incarnation that armed it
    /// still runs.
    Timer {
        node: NodeId,
        incarnation: u64,
        tag: u64,
    },
    /// Fail `caller`'s call `call` unless its answer came first.
    Timeout { caller: NodeId, call: u64 },
    /// Apply a scripted fault (`FaultPlan::apply`).
    Fault(FaultAction),
}

/// A message on the wire: its ends, what it is, and the incarnation of
/// the destination it was sent to (a restart in between drops it).
pub(crate) struct Delivery {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) kind: PayloadKind,
    pub(crate) payload: Vec<u8>,
    pub(crate) incarnation: u64,
}

/// The event queue: a time-ordered heap of events with stable ordering
/// and cancellation.
///
/// An event's id doubles as its scheduling sequence number — the
/// monotonic tie-breaker that makes two events at the same instant run
/// in the order they were scheduled, the root of determinism. The heap
/// holds `(time, id)` keys, earliest time first, then scheduling order;
/// `entries` holds the pending events under the fixed hasher: the ids
/// are the scheduler's own sequence. Cancelling removes the table
/// entry, and a heap key without one is skipped (and dropped) whenever
/// it surfaces at the top.
pub(crate) struct Scheduler {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    entries: IdMap<u64, Event>,
    next_event: u64,
    now: SimTime,
}

impl Scheduler {
    pub(crate) fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            entries: IdMap::default(),
            next_event: 0,
            now: SimTime::ZERO,
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at `at`; times already in the past are clamped
    /// to "now" (the event runs as soon as possible, after events already
    /// queued for the current instant).
    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) -> EventId {
        let at = at.max(self.now);
        let id = self.next_event;
        self.next_event += 1;
        self.heap.push(Reverse((at, id)));
        self.entries.insert(id, event);
        EventId(id)
    }

    /// Cancels a pending event; a no-op for one that already ran or was
    /// already cancelled.
    pub(crate) fn cancel(&mut self, id: EventId) {
        self.entries.remove(&id.0);
    }

    /// Cancels every pending timer and call time-out of `node`.
    pub(crate) fn cancel_owned_by(&mut self, node: NodeId) {
        self.entries.retain(|_, event| match event {
            Event::Timer { node: owner, .. } | Event::Timeout { caller: owner, .. } => {
                *owner != node
            }
            Event::Deliver(_) | Event::Fault(_) => true,
        });
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    pub(crate) fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Pops the next runnable event if it is due by `deadline`,
    /// advancing the clock to its time.
    pub(crate) fn pop(&mut self, deadline: SimTime) -> Option<(SimTime, EventId, Event)> {
        while let Some(&Reverse((at, id))) = self.heap.peek() {
            if at > deadline {
                return None;
            }
            self.heap.pop();
            let Some(event) = self.entries.remove(&id) else {
                continue; // cancelled
            };
            debug_assert!(at >= self.now, "clock went backwards");
            self.now = at;
            return Some((at, EventId(id), event));
        }
        None
    }

    /// Advances the clock to `at` without running anything; a no-op if
    /// `at` is in the past. Callers must have drained events ≤ `at`
    /// first, or the next pop would run behind the clock.
    pub(crate) fn advance_to(&mut self, at: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|next| next >= at),
            "advance_to past a pending event"
        );
        self.now = self.now.max(at);
    }

    /// Time of the next runnable event, if any: the heap top, once the
    /// keys of cancelled events above it are dropped.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, id))) = self.heap.peek() {
            if self.entries.contains_key(&id) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn noop() -> Event {
        Event::Timer {
            node: NodeId(0),
            incarnation: 0,
            tag: 0,
        }
    }

    #[test]
    fn pops_in_time_order_then_fifo() {
        let mut s = Scheduler::new();
        let t1 = SimTime::from_nanos(10);
        let t2 = SimTime::from_nanos(20);
        let a = s.schedule(t2, noop());
        let b = s.schedule(t1, noop());
        let c = s.schedule(t1, noop());
        let (at1, id1, _) = s.pop(SimTime::MAX).unwrap();
        let (at2, id2, _) = s.pop(SimTime::MAX).unwrap();
        let (at3, id3, _) = s.pop(SimTime::MAX).unwrap();
        assert_eq!((at1, id1), (t1, b));
        assert_eq!((at2, id2), (t1, c), "same-time events pop in FIFO order");
        assert_eq!((at3, id3), (t2, a));
        assert!(s.pop(SimTime::MAX).is_none());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_nanos(5), noop());
        assert_eq!(s.now(), SimTime::ZERO);
        let _ = s.pop(SimTime::MAX).unwrap();
        assert_eq!(s.now(), SimTime::from_nanos(5));
    }

    #[test]
    fn cancellation_skips_event() {
        let mut s = Scheduler::new();
        let id = s.schedule(SimTime::from_nanos(1), noop());
        let keep = s.schedule(SimTime::from_nanos(2), noop());
        s.cancel(id);
        assert_eq!(s.pending(), 1);
        let (_, popped, _) = s.pop(SimTime::MAX).unwrap();
        assert_eq!(popped, keep);
        assert!(s.pop(SimTime::MAX).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn peek_ignores_cancelled() {
        let mut s = Scheduler::new();
        let early = s.schedule(SimTime::from_nanos(1), noop());
        s.schedule(SimTime::from_nanos(9), noop());
        s.cancel(early);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(9)));
    }

    #[test]
    fn cancel_after_fire_and_cancel_twice_leave_nothing_behind() {
        let mut s = Scheduler::new();
        let fired = s.schedule(SimTime::from_nanos(1), noop());
        let dropped = s.schedule(SimTime::from_nanos(2), noop());
        let _ = s.pop(SimTime::MAX).unwrap();
        s.cancel(fired);
        s.cancel(dropped);
        s.cancel(dropped);
        assert_eq!(s.pending(), 0);
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        // A later event is not mistaken for the cancelled ones.
        let next = s.schedule(SimTime::from_nanos(3), noop());
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(s.pop(SimTime::MAX).map(|(_, id, _)| id), Some(next));
    }

    proptest::proptest! {
        /// The heap-top peek and remove-on-cancel against the obvious
        /// model: a list of pending `(time, id)` pairs, scanned for its
        /// minimum. Cancels pick among every id ever issued, so events
        /// that already fired or were already cancelled get cancelled
        /// (again) too.
        #[test]
        fn agrees_with_a_min_scan_model(
            ops in proptest::collection::vec((0u8..4, 0u64..40, 0usize..64), 0..200),
        ) {
            let mut s = Scheduler::new();
            let mut pending: Vec<(SimTime, EventId)> = Vec::new();
            let mut issued: Vec<EventId> = Vec::new();
            let mut now = SimTime::ZERO;
            for (op, at, pick) in ops {
                match op {
                    0 | 1 => {
                        let at = SimTime::from_nanos(at);
                        let id = s.schedule(at, noop());
                        pending.push((at.max(now), id));
                        issued.push(id);
                    }
                    2 if !issued.is_empty() => {
                        let id = issued[pick % issued.len()];
                        s.cancel(id);
                        pending.retain(|(_, other)| *other != id);
                    }
                    2 => {}
                    _ => {
                        // Ids are minted in scheduling order, so the
                        // pair minimum is "earliest, then FIFO".
                        let expected = pending.iter().copied().min();
                        assert_eq!(s.pop(SimTime::MAX).map(|(at, id, _)| (at, id)), expected);
                        if let Some((at, id)) = expected {
                            pending.retain(|(_, other)| *other != id);
                            now = at;
                        }
                    }
                }
                assert_eq!(s.peek_time(), pending.iter().map(|(at, _)| *at).min());
                assert_eq!(s.pending(), pending.len());
                assert_eq!(s.is_empty(), pending.is_empty());
                assert_eq!(s.now(), now);
            }
        }
    }

    #[test]
    fn past_times_clamp_to_now() {
        let mut s = Scheduler::new();
        s.schedule(SimTime::from_nanos(100), noop());
        let _ = s.pop(SimTime::MAX).unwrap();
        assert_eq!(s.now(), SimTime::from_nanos(100));
        // Scheduling "in the past" runs at the current instant instead.
        let id = s.schedule(SimTime::from_nanos(5), noop());
        let (at, popped, _) = s.pop(SimTime::MAX).unwrap();
        assert_eq!(at, SimTime::from_nanos(100));
        assert_eq!(popped, id);
        assert_eq!(s.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn zero_delay_events_preserve_order() {
        let mut s = Scheduler::new();
        let now = s.now();
        let ids: Vec<_> = (0..10).map(|_| s.schedule(now, noop())).collect();
        let popped: Vec<_> =
            std::iter::from_fn(|| s.pop(SimTime::MAX).map(|(_, id, _)| id)).collect();
        assert_eq!(ids, popped);
        let _ = SimDuration::ZERO;
    }
}
