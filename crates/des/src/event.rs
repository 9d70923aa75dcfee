//! Deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the
//! same instant pop in the order they were scheduled. This makes
//! simulation runs reproducible regardless of heap internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queued for a future instant.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A min-ordered event queue with deterministic tie-breaking.
///
/// # Examples
///
/// ```
/// use hetpipe_des::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(10), "b");
/// q.push(SimTime::from_nanos(5), "a");
/// q.push(SimTime::from_nanos(10), "c");
/// assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(5), "a"));
/// assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(10), "b"));
/// assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(10), "c"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The time of the earliest queued event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Every queued event with its time and sequence number, in no
    /// particular order; `(time, sequence)` ranks them.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.heap.iter().map(|s| (s.time, s.seq, &s.event))
    }

    /// Moves every queued event that `moves` accepts `by` later, after
    /// `moves` has rewritten it. Each event keeps its sequence number,
    /// so events that tie keep their order.
    pub fn shift(&mut self, by: SimTime, mut moves: impl FnMut(&mut E) -> bool) {
        let mut events = std::mem::take(&mut self.heap).into_vec();
        for s in &mut events {
            if moves(&mut s.event) {
                s.time += by;
            }
        }
        self.heap = BinaryHeap::from(events);
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &(t, v) in &[(30u64, 3), (10, 1), (20, 2)] {
            q.push(SimTime::from_nanos(t), v);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        for v in 0..50 {
            q.push(t, v);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 'a');
        q.push(SimTime::from_nanos(1), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        q.push(SimTime::from_nanos(2), 'c');
        q.push(SimTime::from_nanos(7), 'd');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop().unwrap().1, 'd');
    }

    #[test]
    fn shift_moves_accepted_events_and_keeps_tie_order() {
        let mut q = EventQueue::new();
        for (t, v) in [(5u64, 1), (5, 2), (9, 3), (7, 4)] {
            q.push(SimTime::from_nanos(t), v);
        }
        // Event 4 stays; the rest move 4 later, event 3 renamed.
        q.shift(SimTime::from_nanos(4), |v| {
            if *v == 3 {
                *v = 30;
            }
            *v != 4
        });
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let at = SimTime::from_nanos;
        assert_eq!(
            order,
            vec![(at(7), 4), (at(9), 1), (at(9), 2), (at(13), 30)]
        );
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
