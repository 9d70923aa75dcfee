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

/// Index of a resource within a [`ResourcePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub usize);

/// A serially-reusable resource with FCFS timeline reservation.
#[derive(Debug, Clone)]
pub struct Resource {
    /// Human-readable name for reports (e.g. `"gpu3"`, `"nic0"`).
    pub name: String,
    free_at: SimTime,
    busy: SimTime,
    reservations: u64,
    /// Service-rate multiplier (1.0 = nominal). Fault injection models
    /// a throttled GPU or degraded link by lowering the rate; callers
    /// scale nominal durations through [`Resource::scaled`] before
    /// reserving. The rate applies at *reservation time*: work already
    /// on the timeline keeps the duration it was granted with.
    rate: f64,
    /// The known piecewise-constant rate timeline (sorted rate edges),
    /// when the caller can declare it up front
    /// ([`Resource::set_rate_schedule`]). With a timeline installed,
    /// [`Resource::duration_from`] *integrates* nominal work across
    /// the windows the reservation actually spans — the rate-edge
    /// lifecycle appearing/disappearing resources need: a resource
    /// that is out (rate 0) for a window and then returns delays the
    /// work by the outage instead of freezing a reservation-time
    /// duration forever. Before the first edge the rate is nominal.
    edges: Vec<(SimTime, f64)>,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            free_at: SimTime::ZERO,
            busy: SimTime::ZERO,
            reservations: 0,
            rate: 1.0,
            edges: Vec::new(),
        }
    }

    /// Current service-rate multiplier (1.0 = nominal speed).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Sets the service-rate multiplier. `0.5` means work takes twice
    /// its nominal duration; `0.0` (or any non-positive value) models a
    /// lost resource — [`Resource::scaled`] returns an effectively
    /// unreachable duration, so work reserved on it never completes
    /// within any finite horizon.
    pub fn set_rate(&mut self, rate: f64) {
        self.rate = rate;
    }

    /// Scales a nominal duration by the current rate. Exact identity
    /// at the nominal rate (the common case pays no float round-trip);
    /// non-positive rates clamp to a quarter of [`SimTime::MAX`] so
    /// that downstream additions saturate instead of wrapping.
    pub fn scaled(&self, nominal: SimTime) -> SimTime {
        if self.rate == 1.0 {
            return nominal;
        }
        if self.rate <= 0.0 {
            return SimTime::from_nanos(u64::MAX / 4);
        }
        let ns = (nominal.as_nanos() as f64 / self.rate).min(u64::MAX as f64 / 4.0);
        SimTime::from_nanos(ns as u64)
    }

    /// Installs the full known rate timeline: sorted `(at, rate)`
    /// edges, each in effect from its instant until the next edge
    /// (nominal 1.0 before the first). Replaces any prior schedule.
    ///
    /// This is the declaration half of the rate-edge *lifecycle* for
    /// appearing and disappearing resources: a GPU leased away and
    /// later re-granted is a `(t_out, 0.0)` / `(t_back, 1.0)` edge
    /// pair, and work reserved across the outage ends after the
    /// resource returns ([`Resource::duration_from`]) instead of
    /// keeping a reservation-time duration that never completes.
    pub fn set_rate_schedule(&mut self, mut edges: Vec<(SimTime, f64)>) {
        edges.sort_by_key(|&(at, _)| at);
        // Same-instant edges: the last one wins.
        edges.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });
        self.edges = edges;
    }

    /// The scheduled rate in effect at `t` (nominal before the first
    /// edge; [`Resource::rate`] when no schedule is installed).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        match self.edges.iter().rev().find(|&&(at, _)| at <= t) {
            Some(&(_, rate)) => rate,
            None if self.edges.is_empty() => self.rate,
            None => 1.0,
        }
    }

    /// How long `nominal` work starting at `start` takes under the
    /// installed rate schedule: nominal work is *integrated* over the
    /// piecewise-constant rate windows the job actually spans. A
    /// rate-0 window contributes pure delay; work that never meets a
    /// positive window again clamps to a quarter of [`SimTime::MAX`]
    /// (saturating downstream, like [`Resource::scaled`]). Without a
    /// schedule this falls back to reservation-time scaling. Work
    /// confined to nominal-rate windows is an exact identity (the
    /// nanosecond counts stay below 2^53, so the f64 walk is exact).
    pub fn duration_from(&self, start: SimTime, nominal: SimTime) -> SimTime {
        if self.edges.is_empty() {
            return self.scaled(nominal);
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

    /// Reserves `nominal` work starting no earlier than `earliest`,
    /// with the duration derived from the granted start through
    /// [`Resource::duration_from`] — the schedule-aware form of
    /// [`Resource::reserve`]. Returns `(start, end)`.
    pub fn reserve_work(&mut self, earliest: SimTime, nominal: SimTime) -> (SimTime, SimTime) {
        let start = self.free_at.max(earliest);
        let duration = self.duration_from(start, nominal);
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

    /// Accounts for a stretch of `by` that reserved the resource
    /// `reservations` times for `busy` in all, and that repeats its
    /// latest stretch shifted in time: the free instant moves `by`
    /// later when the stretch reserved anything, and stays otherwise.
    pub fn repeat(&mut self, by: SimTime, busy: SimTime, reservations: u64) {
        self.busy += busy;
        self.reservations += reservations;
        if reservations > 0 {
            self.free_at += by;
        }
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

    /// Busy fraction over the horizon `[0, horizon)`.
    ///
    /// Returns 0 for a zero horizon. Values may exceed 1.0 if
    /// reservations extend past the horizon (callers normally pass the
    /// final simulation time).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        self.busy.as_secs() / horizon.as_secs()
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
    pub fn add(&mut self, resource: Resource) -> ResourceId {
        let id = ResourceId(self.resources.len());
        self.resources.push(resource);
        id
    }

    /// Shared access to a resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: ResourceId) -> &Resource {
        &self.resources[id.0]
    }

    /// Exclusive access to a resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get_mut(&mut self, id: ResourceId) -> &mut Resource {
        &mut self.resources[id.0]
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
            .map(|(i, r)| (ResourceId(i), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_reservations() {
        let mut gpu = Resource::new("gpu0");
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
        let mut gpu = Resource::new("gpu0");
        gpu.reserve(SimTime::ZERO, SimTime::from_nanos(10));
        // Next request arrives after an idle gap.
        let (s, _) = gpu.reserve(SimTime::from_nanos(100), SimTime::from_nanos(10));
        assert_eq!(s, SimTime::from_nanos(100));
        assert_eq!(gpu.busy_time(), SimTime::from_nanos(20));
        let util = gpu.utilization(SimTime::from_nanos(110));
        assert!((util - 20.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_zero_horizon() {
        let gpu = Resource::new("gpu0");
        assert_eq!(gpu.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn rate_scales_durations() {
        let mut gpu = Resource::new("gpu0");
        let d = SimTime::from_nanos(1000);
        // Nominal rate is an exact identity.
        assert_eq!(gpu.rate(), 1.0);
        assert_eq!(gpu.scaled(d), d);
        // Half speed doubles the duration.
        gpu.set_rate(0.5);
        assert_eq!(gpu.scaled(d), SimTime::from_nanos(2000));
        // A lost resource yields an unreachable duration that still
        // saturates under addition.
        gpu.set_rate(0.0);
        let dead = gpu.scaled(d);
        assert!(dead > SimTime::from_secs(1e9));
        assert!(SimTime::MAX + dead == SimTime::MAX);
        // Recovery restores the identity.
        gpu.set_rate(1.0);
        assert_eq!(gpu.scaled(d), d);
    }

    #[test]
    fn schedule_integration_spans_rate_windows() {
        let mut gpu = Resource::new("gpu0");
        // x2 slowdown over [100, 200), nominal elsewhere.
        gpu.set_rate_schedule(vec![
            (SimTime::from_nanos(100), 0.5),
            (SimTime::from_nanos(200), 1.0),
        ]);
        // Entirely inside a nominal window: exact identity.
        assert_eq!(
            gpu.duration_from(SimTime::ZERO, SimTime::from_nanos(50)),
            SimTime::from_nanos(50)
        );
        // Entirely inside the slow window: plain scaling.
        assert_eq!(
            gpu.duration_from(SimTime::from_nanos(100), SimTime::from_nanos(40)),
            SimTime::from_nanos(80)
        );
        // Spanning the onset: 60 ns of work at rate 1, the remaining
        // 40 ns at rate 0.5 → 60 + 80 = 140 ns.
        assert_eq!(
            gpu.duration_from(SimTime::from_nanos(40), SimTime::from_nanos(100)),
            SimTime::from_nanos(140)
        );
        // Spanning the restore edge: 25 ns of nominal work done in the
        // slow window's last 50 ns, the remaining 75 at rate 1.
        assert_eq!(
            gpu.duration_from(SimTime::from_nanos(150), SimTime::from_nanos(100)),
            SimTime::from_nanos(125)
        );
    }

    #[test]
    fn outage_window_delays_instead_of_wedging() {
        let mut gpu = Resource::new("gpu0");
        // Leased away over [100, 300), granted back after.
        gpu.set_rate_schedule(vec![
            (SimTime::from_nanos(100), 0.0),
            (SimTime::from_nanos(300), 1.0),
        ]);
        // Work starting inside the outage waits it out, then runs.
        assert_eq!(
            gpu.duration_from(SimTime::from_nanos(150), SimTime::from_nanos(40)),
            SimTime::from_nanos(190)
        );
        // Work crossing into the outage is split around it.
        assert_eq!(
            gpu.duration_from(SimTime::from_nanos(80), SimTime::from_nanos(40)),
            SimTime::from_nanos(240)
        );
        // The paired reservation form agrees and keeps FCFS.
        let (s, e) = gpu.reserve_work(SimTime::from_nanos(150), SimTime::from_nanos(40));
        assert_eq!((s, e), (SimTime::from_nanos(150), SimTime::from_nanos(340)));
        // An outage with no recovery edge never completes (saturating).
        let mut dead = Resource::new("gpu1");
        dead.set_rate_schedule(vec![(SimTime::from_nanos(100), 0.0)]);
        let d = dead.duration_from(SimTime::from_nanos(150), SimTime::from_nanos(1));
        assert!(d > SimTime::from_secs(1e9));
        assert!(SimTime::MAX + d == SimTime::MAX);
        // rate_at reads the schedule; without one it reads the knob.
        assert_eq!(dead.rate_at(SimTime::from_nanos(50)), 1.0);
        assert_eq!(dead.rate_at(SimTime::from_nanos(100)), 0.0);
        let plain = Resource::new("gpu2");
        assert_eq!(plain.rate_at(SimTime::from_nanos(5)), 1.0);
    }

    #[test]
    fn empty_schedule_falls_back_to_reservation_time_rate() {
        let mut gpu = Resource::new("gpu0");
        gpu.set_rate(0.5);
        assert_eq!(
            gpu.duration_from(SimTime::ZERO, SimTime::from_nanos(100)),
            SimTime::from_nanos(200)
        );
        let (s, e) = gpu.reserve_work(SimTime::ZERO, SimTime::from_nanos(100));
        assert_eq!((s, e), (SimTime::ZERO, SimTime::from_nanos(200)));
    }

    #[test]
    fn repeat_shifts_only_a_reserved_timeline() {
        let mut gpu = Resource::new("gpu0");
        gpu.reserve(SimTime::ZERO, SimTime::from_nanos(10));
        let mut idle = gpu.clone();
        gpu.repeat(SimTime::from_nanos(100), SimTime::from_nanos(30), 3);
        assert_eq!(gpu.free_at(), SimTime::from_nanos(110));
        assert_eq!(gpu.busy_time(), SimTime::from_nanos(40));
        assert_eq!(gpu.reservations(), 4);
        idle.repeat(SimTime::from_nanos(100), SimTime::ZERO, 0);
        assert_eq!(idle.free_at(), SimTime::from_nanos(10));
    }

    #[test]
    fn pool_addressing() {
        let mut pool = ResourcePool::new();
        let a = pool.add(Resource::new("a"));
        let b = pool.add(Resource::new("b"));
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        pool.get_mut(b)
            .reserve(SimTime::ZERO, SimTime::from_nanos(5));
        assert_eq!(pool.get(a).busy_time(), SimTime::ZERO);
        assert_eq!(pool.get(b).busy_time(), SimTime::from_nanos(5));
        let names: Vec<&str> = pool.iter().map(|(_, r)| r.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
