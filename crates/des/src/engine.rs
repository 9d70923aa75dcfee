//! The simulation driver.
//!
//! An [`Engine`] owns the event queue and the simulation clock.
//! Client code pops events one at a time (or runs a handler loop) and
//! schedules follow-up events; the clock only moves forward.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A discrete-event simulation engine over event type `E`.
///
/// Events are `Copy`, so the queue moves them through its heap by
/// value. Nothing is lost by the bound: the executor's `Ev`, a 16-byte
/// enum, is the only event type an engine carries.
///
/// # Examples
///
/// A tiny two-event simulation:
///
/// ```
/// use hetpipe_des::{Engine, SimTime};
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimTime::from_millis(1), Ev::Ping);
/// let mut log = Vec::new();
/// while let Some(ev) = engine.next_event() {
///     if ev == Ev::Ping {
///         engine.schedule_in(SimTime::from_millis(2), Ev::Pong);
///     }
///     log.push((engine.now(), ev));
/// }
/// assert_eq!(log.len(), 2);
/// assert_eq!(log[1].0, SimTime::from_millis(3));
/// ```
#[derive(Debug, Clone)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine {
            queue: EventQueue::default(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }
}

impl<E: Copy> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The instant of the next queued event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// Events scheduled in the past are clamped to `now` (they will fire
    /// immediately, after already-queued events at `now`).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// Schedules `event` after a `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn next_event(&mut self) -> Option<E> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "time must be monotone");
        self.now = time;
        self.processed += 1;
        Some(event)
    }

    /// Pops the next event only if it fires at or before `deadline`.
    ///
    /// Used by bounded-horizon runs: events after the deadline stay
    /// queued and the clock does not advance past them.
    pub fn next_event_until(&mut self, deadline: SimTime) -> Option<E> {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => self.next_event(),
            _ => None,
        }
    }

    /// Every queued event with its time and sequence number, in no
    /// particular order; `(time, sequence)` ranks them.
    pub fn pending_events(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.queue.iter()
    }

    /// Jumps the clock `by` forward, as if a stretch of simulation that
    /// repeats the state shifted in time had run. Queued events that
    /// `moves` accepts move with the clock, after `moves` has rewritten
    /// them; the others keep their instants (see [`EventQueue::shift`]).
    pub fn fast_forward(&mut self, by: SimTime, moves: impl FnMut(&mut E) -> bool) {
        self.queue.shift(by, moves);
        self.now += by;
    }

    /// Counts `events` more processed events: those of a stretch that
    /// [`Engine::fast_forward`] skipped.
    pub fn count(&mut self, events: u64) {
        self.processed += events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(SimTime::from_nanos(10), 1);
        e.schedule_in(SimTime::from_nanos(5), 2);
        assert_eq!(e.next_event(), Some(2));
        assert_eq!(e.now(), SimTime::from_nanos(5));
        assert_eq!(e.next_event(), Some(1));
        assert_eq!(e.now(), SimTime::from_nanos(10));
        assert_eq!(e.next_event(), None);
        assert_eq!(e.processed(), 2);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_in(SimTime::from_nanos(100), "later");
        e.next_event();
        e.schedule_at(SimTime::from_nanos(1), "past");
        assert_eq!(e.next_event(), Some("past"));
        assert_eq!(e.now(), SimTime::from_nanos(100), "clock must not go back");
    }

    #[test]
    fn bounded_horizon_stops_at_deadline() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(SimTime::from_nanos(10), 1);
        e.schedule_in(SimTime::from_nanos(20), 2);
        let deadline = SimTime::from_nanos(15);
        assert_eq!(e.next_event_until(deadline), Some(1));
        assert_eq!(e.next_event_until(deadline), None);
        assert_eq!(e.pending(), 1, "event after deadline stays queued");
        assert_eq!(e.now(), SimTime::from_nanos(10));
    }

    #[test]
    fn fast_forward_moves_the_clock_and_the_accepted_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(SimTime::from_nanos(10), 1);
        e.schedule_in(SimTime::from_nanos(50), 2);
        e.next_event();
        e.fast_forward(SimTime::from_nanos(100), |v| *v != 2);
        e.count(7);
        assert_eq!(e.now(), SimTime::from_nanos(110));
        assert_eq!(e.processed(), 8);
        let mut times: Vec<_> = e.pending_events().map(|(t, _, &v)| (t, v)).collect();
        times.sort();
        assert_eq!(times, vec![(SimTime::from_nanos(50), 2)]);
    }

    #[test]
    fn handler_driven_cascade() {
        // Each event spawns the next until a count is reached; verifies
        // scheduling from inside the pop loop.
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(SimTime::from_nanos(1), 0);
        let mut seen = Vec::new();
        while let Some(n) = e.next_event() {
            seen.push(n);
            if n < 4 {
                e.schedule_in(SimTime::from_nanos(1), n + 1);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(e.now(), SimTime::from_nanos(5));
    }
}
