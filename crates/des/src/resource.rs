//! Serially-reusable timeline resources.
//!
//! A [`Resource`] models hardware that can do one thing at a time — a GPU
//! executing kernels, a NIC moving bytes. Work is *reserved* on the
//! resource's timeline: a reservation starting "now" begins at
//! `max(now, free_at)` and pushes `free_at` forward, which yields
//! first-come-first-served service without an explicit queue (callers
//! reserve in event order, and the event queue is deterministic).
//!
//! Busy time is accumulated for utilization reports (Figure 3 of the
//! paper plots per-partition GPU utilization).

use crate::time::SimTime;

/// Index of a resource within a [`ResourcePool`]. A `u32`, so that a
/// kept [`Span`](crate::Span) with a 12-byte tag takes 32 bytes;
/// [`ResourceId::new`] and [`ResourcePool::add`] check that an index
/// fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// The id of the resource at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    pub fn new(index: usize) -> Self {
        ResourceId(u32::try_from(index).expect("resource ids fit in a u32"))
    }

    /// The id as a slice index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A serially-reusable resource with FCFS timeline reservation. Its
/// service rate is not its own: a run declares each resource's
/// [`RateTimeline`] up front and reserves work against it.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    free_at: SimTime,
    busy: SimTime,
    reservations: u64,
}

impl Resource {
    /// Reserves `nominal` work starting no earlier than `earliest`,
    /// with the duration `rates` derives from the granted start
    /// ([`RateTimeline::duration_from`]). Returns `(start, end)`.
    pub fn reserve_work(
        &mut self,
        earliest: SimTime,
        nominal: SimTime,
        rates: &RateTimeline,
    ) -> (SimTime, SimTime) {
        let start = self.free_at.max(earliest);
        let duration = rates.duration_from(start, nominal);
        self.reserve(start, duration)
    }

    /// Reserves the resource for `duration`, starting no earlier than
    /// `earliest`. Returns `(start, end)` of the granted slot.
    ///
    /// Reservations are granted back-to-back in call order, which is the
    /// FIFO service discipline the paper's partition scheduler mandates
    /// (Section 4, condition 3).
    pub fn reserve(&mut self, earliest: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = self.free_at.max(earliest);
        let end = start + duration;
        self.free_at = end;
        self.busy += duration;
        self.reservations += 1;
        (start, end)
    }

    /// Moves the free instant `by` later.
    pub fn shift(&mut self, by: SimTime) {
        self.free_at += by;
    }

    /// Accounts for `reservations` more reservations, `busy` long in
    /// all, that the timeline did not grant one by one.
    pub fn add(&mut self, busy: SimTime, reservations: u64) {
        self.busy += busy;
        self.reservations += reservations;
    }

    /// The instant the resource becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total reserved (busy) time.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Number of reservations granted.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }
}

/// A resource's known piecewise-constant service-rate timeline: sorted
/// `(at, rate)` edges, each in effect from its instant until the next
/// edge, nominal (1.0) before the first. A run declares it up front and
/// only reads it, so it lives beside the resource rather than in it.
///
/// This is the declaration half of the rate-edge *lifecycle* for
/// appearing and disappearing resources: a GPU leased away and later
/// re-granted is a `(t_out, 0.0)` / `(t_back, 1.0)` edge pair, and work
/// reserved across the outage ends after the resource returns
/// ([`RateTimeline::duration_from`]) instead of keeping a
/// reservation-time duration that never completes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RateTimeline {
    edges: Vec<(SimTime, f64)>,
}

impl RateTimeline {
    /// The timeline of `edges`, in any order; of several edges at one
    /// instant the last one wins.
    pub fn new(mut edges: Vec<(SimTime, f64)>) -> Self {
        edges.sort_by_key(|&(at, _)| at);
        edges.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });
        RateTimeline { edges }
    }

    /// The rate in effect at `t`: the latest edge at or before `t`, or
    /// nominal (1.0) before the first.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let after = self.edges.partition_point(|&(at, _)| at <= t);
        after.checked_sub(1).map_or(1.0, |i| self.edges[i].1)
    }

    /// How long `nominal` work starting at `start` takes: nominal work
    /// is *integrated* over the piecewise-constant rate windows the job
    /// actually spans. A rate-0 window contributes pure delay; work
    /// that never meets a positive window again clamps to a quarter of
    /// [`SimTime::MAX`], so that downstream additions saturate instead
    /// of wrapping. An empty timeline is nominal throughout and returns
    /// `nominal` as is; work confined to nominal-rate windows is an
    /// exact identity too (the nanosecond counts stay below 2^53, so
    /// the f64 walk is exact).
    pub fn duration_from(&self, start: SimTime, nominal: SimTime) -> SimTime {
        if self.edges.is_empty() {
            return nominal;
        }
        const DEAD: u64 = u64::MAX / 4;
        let start_ns = start.as_nanos() as f64;
        let mut work = nominal.as_nanos() as f64;
        if work <= 0.0 {
            return SimTime::ZERO;
        }
        let mut t = start_ns;
        let mut next_i = self
            .edges
            .iter()
            .rposition(|&(at, _)| (at.as_nanos() as f64) <= t)
            .map_or(0, |i| i + 1);
        loop {
            let rate = if next_i == 0 {
                1.0
            } else {
                self.edges[next_i - 1].1
            };
            let next = self.edges.get(next_i).map(|&(at, _)| at.as_nanos() as f64);
            if rate > 0.0 {
                let fits = match next {
                    Some(n) => work <= (n - t) * rate,
                    None => true,
                };
                if fits {
                    let dur = (t + work / rate - start_ns).min(DEAD as f64);
                    return SimTime::from_nanos(dur as u64);
                }
                let n = next.expect("unfit work implies a next edge");
                work -= (n - t) * rate;
                t = n;
            } else {
                match next {
                    Some(n) => t = n,
                    // Dead with no later edge: never completes.
                    None => return SimTime::from_nanos(DEAD),
                }
            }
            next_i += 1;
        }
    }
}

/// A dense pool of resources addressed by [`ResourceId`].
#[derive(Debug, Clone, Default)]
pub struct ResourcePool {
    resources: Vec<Resource>,
}

impl ResourcePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a resource and returns its ID.
    ///
    /// # Panics
    ///
    /// Panics if the pool already holds `u32::MAX + 1` resources.
    pub fn add(&mut self, resource: Resource) -> ResourceId {
        let id = ResourceId::new(self.resources.len());
        self.resources.push(resource);
        id
    }

    /// Shared access to a resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }

    /// Exclusive access to a resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get_mut(&mut self, id: ResourceId) -> &mut Resource {
        &mut self.resources[id.index()]
    }

    /// Number of resources in the pool.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// Iterates over `(id, resource)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, &Resource)> {
        self.resources
            .iter()
            .enumerate()
            .map(|(i, r)| (ResourceId::new(i), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_reservations() {
        let mut gpu = Resource::default();
        let (s1, e1) = gpu.reserve(SimTime::ZERO, SimTime::from_nanos(10));
        assert_eq!((s1, e1), (SimTime::ZERO, SimTime::from_nanos(10)));
        // Requested at t=5 but the GPU is busy until t=10.
        let (s2, e2) = gpu.reserve(SimTime::from_nanos(5), SimTime::from_nanos(10));
        assert_eq!((s2, e2), (SimTime::from_nanos(10), SimTime::from_nanos(20)));
        assert_eq!(gpu.busy_time(), SimTime::from_nanos(20));
        assert_eq!(gpu.reservations(), 2);
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut gpu = Resource::default();
        gpu.reserve(SimTime::ZERO, SimTime::from_nanos(10));
        // Next request arrives after an idle gap.
        let (s, _) = gpu.reserve(SimTime::from_nanos(100), SimTime::from_nanos(10));
        assert_eq!(s, SimTime::from_nanos(100));
        assert_eq!(gpu.busy_time(), SimTime::from_nanos(20));
    }

    #[test]
    fn schedule_integration_spans_rate_windows() {
        // x2 slowdown over [100, 200), nominal elsewhere.
        let rates = RateTimeline::new(vec![
            (SimTime::from_nanos(200), 1.0),
            (SimTime::from_nanos(100), 0.5),
        ]);
        // Entirely inside a nominal window: exact identity.
        assert_eq!(
            rates.duration_from(SimTime::ZERO, SimTime::from_nanos(50)),
            SimTime::from_nanos(50)
        );
        // Entirely inside the slow window: plain scaling.
        assert_eq!(
            rates.duration_from(SimTime::from_nanos(100), SimTime::from_nanos(40)),
            SimTime::from_nanos(80)
        );
        // Spanning the onset: 60 ns of work at rate 1, the remaining
        // 40 ns at rate 0.5 → 60 + 80 = 140 ns.
        assert_eq!(
            rates.duration_from(SimTime::from_nanos(40), SimTime::from_nanos(100)),
            SimTime::from_nanos(140)
        );
        // Spanning the restore edge: 25 ns of nominal work done in the
        // slow window's last 50 ns, the remaining 75 at rate 1.
        assert_eq!(
            rates.duration_from(SimTime::from_nanos(150), SimTime::from_nanos(100)),
            SimTime::from_nanos(125)
        );
        // Of two edges at one instant the later one wins, and an empty
        // timeline is nominal.
        let twice = RateTimeline::new(vec![
            (SimTime::from_nanos(100), 0.25),
            (SimTime::from_nanos(100), 0.5),
        ]);
        assert_eq!(
            twice.duration_from(SimTime::from_nanos(100), SimTime::from_nanos(40)),
            SimTime::from_nanos(80)
        );
        assert_eq!(
            RateTimeline::default().duration_from(SimTime::from_nanos(7), SimTime::from_nanos(40)),
            SimTime::from_nanos(40)
        );
    }

    #[test]
    fn rate_at_reads_the_latest_edge() {
        let ns = SimTime::from_nanos;
        assert_eq!(RateTimeline::default().rate_at(ns(5)), 1.0);
        // Two edges at one instant: the last one wins.
        let rates = RateTimeline::new(vec![(ns(100), 0.5), (ns(200), 0.0), (ns(200), 0.25)]);
        assert_eq!(rates.rate_at(SimTime::ZERO), 1.0);
        assert_eq!(rates.rate_at(ns(99)), 1.0);
        assert_eq!(rates.rate_at(ns(100)), 0.5);
        assert_eq!(rates.rate_at(ns(199)), 0.5);
        assert_eq!(rates.rate_at(ns(200)), 0.25);
        assert_eq!(rates.rate_at(SimTime::MAX), 0.25);
    }

    #[test]
    fn outage_window_delays_instead_of_wedging() {
        // Leased away over [100, 300), granted back after.
        let rates = RateTimeline::new(vec![
            (SimTime::from_nanos(100), 0.0),
            (SimTime::from_nanos(300), 1.0),
        ]);
        // Work starting inside the outage waits it out, then runs.
        assert_eq!(
            rates.duration_from(SimTime::from_nanos(150), SimTime::from_nanos(40)),
            SimTime::from_nanos(190)
        );
        // Work crossing into the outage is split around it.
        assert_eq!(
            rates.duration_from(SimTime::from_nanos(80), SimTime::from_nanos(40)),
            SimTime::from_nanos(240)
        );
        // The paired reservation form agrees and keeps FCFS.
        let mut gpu = Resource::default();
        let (s, e) = gpu.reserve_work(SimTime::from_nanos(150), SimTime::from_nanos(40), &rates);
        assert_eq!((s, e), (SimTime::from_nanos(150), SimTime::from_nanos(340)));
        // An outage with no recovery edge never completes (saturating).
        let dead = RateTimeline::new(vec![(SimTime::from_nanos(100), 0.0)]);
        let d = dead.duration_from(SimTime::from_nanos(150), SimTime::from_nanos(1));
        assert!(d > SimTime::from_secs(1e9));
        assert!(SimTime::MAX + d == SimTime::MAX);
        // Work that ends before the outage is nominal.
        assert_eq!(
            dead.duration_from(SimTime::from_nanos(50), SimTime::from_nanos(20)),
            SimTime::from_nanos(20)
        );
    }

    #[test]
    fn repeat_shifts_only_a_reserved_timeline() {
        // A repeated stretch adds its totals, and moves the free instant
        // of a resource it reserved; one it never reserved keeps its own.
        let mut gpu = Resource::default();
        gpu.reserve(SimTime::ZERO, SimTime::from_nanos(10));
        let mut idle = gpu.clone();
        gpu.add(SimTime::from_nanos(30), 3);
        gpu.shift(SimTime::from_nanos(100));
        assert_eq!(gpu.free_at(), SimTime::from_nanos(110));
        assert_eq!(gpu.busy_time(), SimTime::from_nanos(40));
        assert_eq!(gpu.reservations(), 4);
        idle.add(SimTime::ZERO, 0);
        assert_eq!(idle.free_at(), SimTime::from_nanos(10));
        assert_eq!(idle.reservations(), 1);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn resource_ids_fit_in_a_u32() {
        assert_eq!(
            ResourceId::new(u32::MAX as usize).index(),
            u32::MAX as usize
        );
        assert!(std::panic::catch_unwind(|| ResourceId::new(u32::MAX as usize + 1)).is_err());
    }

    #[test]
    fn pool_addressing() {
        let mut pool = ResourcePool::new();
        let a = pool.add(Resource::default());
        let b = pool.add(Resource::default());
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        pool.get_mut(b)
            .reserve(SimTime::ZERO, SimTime::from_nanos(5));
        assert_eq!(pool.get(a).busy_time(), SimTime::ZERO);
        assert_eq!(pool.get(b).busy_time(), SimTime::from_nanos(5));
    }
}
