//! Deterministic event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::SimTime;

/// An entry in the queue: ordered by time, then by insertion sequence so
/// that simultaneous events dequeue in FIFO order (determinism).
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled, which keeps multi-component simulations deterministic.
///
/// # Example
///
/// ```
/// use dcsim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "b");
/// q.schedule(SimTime::from_secs(5), "c");
/// q.schedule(SimTime::from_secs(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock — events cannot be
    /// scheduled in the past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Removes and returns the earliest event only if it fires at or
    /// before `deadline`; otherwise leaves the queue untouched.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E: Snapshot> Snapshot for EventQueue<E> {
    const KIND: &'static str = "dcsim.EventQueue";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.now.as_millis());
        w.put_u64(self.next_seq);
        // Record the event codec so restoring under a changed event
        // layout fails loudly instead of mis-decoding bodies.
        w.put_str(E::KIND);
        w.put_u32(E::VERSION);
        // BinaryHeap iteration order is arbitrary; sort by (at, seq) so
        // identical queue contents always encode to identical bytes.
        let mut entries: Vec<&Entry<E>> = self.heap.iter().collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        w.put_u64(entries.len() as u64);
        for e in entries {
            w.put_u64(e.at.as_millis());
            w.put_u64(e.seq);
            e.event.encode_body(w);
        }
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let now = SimTime::from_millis(r.get_u64()?);
        let next_seq = r.get_u64()?;
        let kind = r.get_str()?;
        if kind != E::KIND {
            return Err(SnapError::KindMismatch {
                expected: E::KIND.to_string(),
                found: kind,
            });
        }
        let version = r.get_u32()?;
        if version != E::VERSION {
            return Err(SnapError::VersionMismatch {
                kind,
                found: version,
                supported: E::VERSION,
            });
        }
        let n = r.get_u64()? as usize;
        let mut heap = BinaryHeap::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let at = SimTime::from_millis(r.get_u64()?);
            let seq = r.get_u64()?;
            let event = E::decode_body(r)?;
            heap.push(Entry { at, seq, event });
        }
        Ok(EventQueue {
            heap,
            next_seq,
            now,
        })
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(10);
        for i in 0..50 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        assert!(q.pop_before(SimTime::from_secs(5)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(SimTime::from_secs(10)).unwrap().1, "late");
    }

    #[test]
    fn rescheduling_from_popped_time_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 0);
        let (t, _) = q.pop().unwrap();
        // Same-instant rescheduling must be legal (controllers do this).
        q.schedule(t, 1);
        q.schedule(t + SimDuration::from_secs(3), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        let run = || {
            let mut q = EventQueue::new();
            let mut log = Vec::new();
            q.schedule(SimTime::from_secs(1), 100);
            q.schedule(SimTime::from_secs(4), 400);
            while let Some((t, e)) = q.pop() {
                log.push((t.as_secs(), e));
                if e == 100 {
                    q.schedule(t + SimDuration::from_secs(1), 200);
                    q.schedule(t + SimDuration::from_secs(1), 201);
                }
            }
            log
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![(1, 100), (2, 200), (2, 201), (4, 400)]);
    }
}
