//! Deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the
//! same instant pop in the order they were scheduled. This makes
//! simulation runs reproducible regardless of heap internals.
//!
//! An entry's rank is one integer key, `time << 64 | sequence` as a
//! `u128`, so ranking two entries is one comparison. The entries live
//! in a binary min-heap in a `Vec`, sifted through a hole: each level
//! moves one entry. A push sifts its entry up from the bottom. A pop
//! walks the root's hole down to the bottom along the smaller children,
//! chosen by index without a branch, then sifts the heap's last entry
//! up into it.
//!
//! Events pushed at the instant of the latest pop skip the heap and
//! join a FIFO lane. Each has a larger sequence number than any event
//! already queued, and all share that instant, so the lane is sorted
//! by key, and a pop takes the smaller of the lane's front and the
//! heap's root. The lane invariant: every lane entry is at the latest
//! pop's instant. Two steps would break it, so both merge the lane
//! back into the heap: a pop that moves the instant while the lane
//! holds entries (it can only move back, to an event pushed into the
//! past), and [`EventQueue::shift`], which also forgets the instant
//! until the next pop.

use crate::time::SimTime;
use std::collections::VecDeque;

/// An event queued for a future instant, ranked by its key.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    /// `time << 64 | seq`.
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn new(time: SimTime, seq: u64, event: E) -> Self {
        let key = (time.as_nanos() as u128) << 64 | seq as u128;
        Entry { key, event }
    }

    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }

    fn seq(&self) -> u64 {
        self.key as u64
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
    /// A binary min-heap by key.
    heap: Vec<Entry<E>>,
    /// Events pushed at `instant`, in push order.
    lane: VecDeque<Entry<E>>,
    /// The latest pop's instant; `None` before the first pop and after
    /// a shift.
    instant: Option<SimTime>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: Vec::new(),
            lane: VecDeque::new(),
            instant: None,
            next_seq: 0,
        }
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = Entry::new(time, self.next_seq, event);
        self.next_seq += 1;
        if self.instant == Some(time) {
            self.lane.push_back(entry);
        } else {
            self.push_heap(entry);
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match (self.lane.front(), self.heap.first()) {
            (Some(l), Some(h)) if h.key < l.key => self.pop_heap(),
            (Some(_), _) => self.lane.pop_front(),
            (None, _) => self.pop_heap(),
        }?;
        let time = entry.time();
        if self.instant != Some(time) {
            // Only a heap entry moves the instant. While the lane holds
            // entries, it can only move back, to an event pushed into
            // the past.
            self.merge_lane();
            self.instant = Some(time);
        }
        Some((time, entry.event))
    }

    /// The time of the earliest queued event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lane.front().map(|e| e.key);
        let heap = self.heap.first().map(|e| e.key);
        let key = match (lane, heap) {
            (Some(l), Some(h)) => l.min(h),
            (l, h) => l.or(h)?,
        };
        Some(SimTime::from_nanos((key >> 64) as u64))
    }

    /// Every queued event with its time and sequence number, in no
    /// particular order; `(time, sequence)` ranks them.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        (self.heap.iter().chain(&self.lane)).map(|e| (e.time(), e.seq(), &e.event))
    }

    /// Moves every queued event that `moves` accepts `by` later, after
    /// `moves` has rewritten it. Each event keeps its sequence number,
    /// so events that tie keep their order. The lane merges back into
    /// the heap, and the next pop starts a new one.
    pub fn shift(&mut self, by: SimTime, mut moves: impl FnMut(&mut E) -> bool) {
        self.heap.extend(self.lane.drain(..));
        self.instant = None;
        for e in &mut self.heap {
            if moves(&mut e.event) {
                *e = Entry::new(e.time() + by, e.seq(), e.event);
            }
        }
        // A sorted array is a min-heap.
        self.heap.sort_unstable_by_key(|e| e.key);
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Moves every lane entry into the heap.
    fn merge_lane(&mut self) {
        while let Some(entry) = self.lane.pop_front() {
            self.push_heap(entry);
        }
    }

    fn push_heap(&mut self, entry: Entry<E>) {
        let hole = self.heap.len();
        self.heap.push(entry);
        sift_up(&mut self.heap, hole, entry);
    }

    /// Removes and returns the heap's root, if any.
    fn pop_heap(&mut self) -> Option<Entry<E>> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        let heap = &mut self.heap[..];
        let (mut hole, mut child) = (0, 1);
        while child + 1 < heap.len() {
            child += (heap[child + 1].key < heap[child].key) as usize;
            heap[hole] = heap[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child < heap.len() {
            heap[hole] = heap[child];
            hole = child;
        }
        sift_up(heap, hole, last);
        Some(top)
    }
}

/// Moves the hole at `hole` up past every parent that ranks after
/// `entry`, then fills it with `entry`.
fn sift_up<E: Copy>(heap: &mut [Entry<E>], mut hole: usize, entry: Entry<E>) {
    while hole > 0 {
        let parent = (hole - 1) / 2;
        if heap[parent].key < entry.key {
            break;
        }
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = entry;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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

    /// An [`EventQueue`] and its reference, std's heap over `(time,
    /// seq)`, which numbers pushes as the queue does. Each queued event
    /// is its sequence number, so a pop names its entry.
    #[derive(Clone, Default)]
    struct Twin {
        q: EventQueue<u64>,
        reference: BinaryHeap<Reverse<(SimTime, u64)>>,
        /// The latest pop's instant.
        latest: Option<SimTime>,
    }

    impl Twin {
        fn push(&mut self, time: SimTime) {
            let seq = self.q.next_seq;
            self.q.push(time, seq);
            self.reference.push(Reverse((time, seq)));
        }

        /// Pops both, requiring the same entry.
        fn pop(&mut self, audit: &mut Audit) -> Option<(SimTime, u64)> {
            let lane = self.q.lane.len();
            let got = self.q.pop();
            audit.lane_pops += (self.q.lane.len() < lane) as u64;
            assert_eq!(got, self.reference.pop().map(|Reverse(e)| e));
            if let Some((t, _)) = got {
                audit.pops += 1;
                audit.max_pops += (t == SimTime::MAX) as u64;
                self.latest = Some(t);
            }
            got
        }

        /// Shifts both: every event moves `by` later except those whose
        /// sequence number is `stays` modulo 4.
        fn shift(&mut self, by: SimTime, stays: u64) {
            let moves = |seq: u64| seq % 4 != stays;
            self.q.shift(by, |&mut seq| moves(seq));
            let shifted = |(t, seq)| (if moves(seq) { t + by } else { t }, seq);
            let reference = std::mem::take(&mut self.reference).into_iter();
            self.reference = reference.map(|Reverse(e)| Reverse(shifted(e))).collect();
        }

        /// Requires the same length, earliest time and queued set.
        fn check(&self) {
            assert_eq!(self.q.len(), self.reference.len());
            let earliest = self.reference.peek().map(|Reverse((t, _))| *t);
            assert_eq!(self.q.peek_time(), earliest);
            let mut queued: Vec<_> = self.q.iter().map(|(t, seq, &ev)| (t, seq, ev)).collect();
            queued.sort_unstable();
            let mut want: Vec<_> = (self.reference.iter())
                .map(|Reverse((t, s))| (*t, *s, *s))
                .collect();
            want.sort_unstable();
            assert_eq!(queued, want);
        }
    }

    /// What a differential run exercised, so it cannot pass vacuously.
    #[derive(Default, Debug)]
    struct Audit {
        lane_pops: u64,
        past_pushes: u64,
        shifts_with_lane: u64,
        clones_with_lane: u64,
        max_pops: u64,
        pops: u64,
    }

    /// SplitMix64: a seeded stream of test choices.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Runs `steps` random operations on both sides of `t`, then
    /// drains it, checking it after each; at `depth` 0 a clone of `t`
    /// runs a sequence of its own.
    fn differential(mut t: Twin, rng: &mut Rng, steps: usize, depth: u32, audit: &mut Audit) {
        let at = SimTime::from_nanos;
        for _ in 0..steps {
            match rng.below(100) {
                0..=49 => {
                    let latest = t.latest;
                    let base = latest.map_or(0, |t| t.as_nanos().min(u64::MAX - 8));
                    let time = match rng.below(10) {
                        0..=3 => latest.unwrap_or(SimTime::ZERO),
                        4..=5 => at(base + rng.below(4)),
                        6 => at(rng.below(24)),
                        7 => SimTime::ZERO,
                        8 => SimTime::MAX,
                        _ => at(u64::MAX - rng.below(2)),
                    };
                    audit.past_pushes += latest.is_some_and(|t| time < t) as u64;
                    t.push(time);
                }
                50..=93 => {
                    t.pop(audit);
                }
                94..=96 => {
                    audit.shifts_with_lane += !t.q.lane.is_empty() as u64;
                    let by = at([0, 1, 3, 1 << 40][rng.below(4) as usize]);
                    t.shift(by, rng.below(4));
                }
                _ if depth == 0 => {
                    audit.clones_with_lane += !t.q.lane.is_empty() as u64;
                    let mut fork = Rng(rng.next());
                    differential(t.clone(), &mut fork, steps / 4, 1, audit);
                }
                _ => {}
            }
            t.check();
        }
        while t.pop(audit).is_some() {}
        assert!(t.q.is_empty());
    }

    #[test]
    fn pops_match_a_reference_heap_over_seeded_sequences() {
        let mut audit = Audit::default();
        for seed in 0..16 {
            differential(Twin::default(), &mut Rng(seed), 600, 0, &mut audit);
        }
        assert!(audit.pops > 20_000, "{audit:?}");
        assert!(audit.lane_pops > 1_000, "{audit:?}");
        assert!(audit.past_pushes > 100, "{audit:?}");
        assert!(audit.shifts_with_lane > 20, "{audit:?}");
        assert!(audit.clones_with_lane > 10, "{audit:?}");
        assert!(audit.max_pops > 100, "{audit:?}");
    }
}
