//! The fleet's cross-engine channel: conservative WSP-gate
//! synchronization over announced push landings.
//!
//! # Protocol
//!
//! A pull with target wave `w` is served, in the single-engine
//! executor, at the first instant `S` at which the request is locally
//! ready *and* every VW's push clock has reached `w + 1`; the pull
//! carries version `min_clock(S) − 1`. The bus reconstructs exactly
//! that instant from three monotone per-VW streams:
//!
//! - **Announces**: each push's landing time, reported at push
//!   *start* (chunk arrivals are reserved up front — the bus's
//!   lookahead). Waves are contiguous from 0 and landings monotone
//!   per VW.
//! - **Frontiers**: a lock-free monotone lower bound on each VW's
//!   next action, published before every event pop.
//! - **Polls**: a VW with a ready pull asks, before popping its next
//!   local event at `bound`, whether the serve is decided.
//!
//! A poll resolves to [`ServePoll::Ready`] only when (a) every VW's
//! target-wave push is announced — fixing the crossing time
//! `T* = max` of those landings and hence `S = max(ready_since, T*)`
//! — with `S ≤ bound`, and (b) every VW that could still announce a
//! push is provably past `S`, so the version is final. "Provably
//! past" folds the bus's *lookahead*: a push announced during an
//! action at `t` lands no earlier than `t + min_step` (a lower bound
//! on the VW's push duration from transfer physics, always positive
//! when transfers are timed), so an unannounced landing from VW `u`
//! is bounded below by `floor(u) + min_step(u)`. If the same fold
//! over every contribution — announced landings exactly, unannounced
//! ones by their floors-plus-lookahead — already exceeds `bound`, the
//! poll resolves to [`ServePoll::NotBefore`] carrying that certified
//! lower bound; the engine caches it and pops every local event
//! strictly before it with no further bus traffic.
//!
//! Otherwise the poll *registers* and returns [`ServePoll::Wait`]. A
//! registration is a standing, sound description of the blocked VW's
//! next action (`min(next local event, its own serve)`): it persists
//! until the VW's next non-`Wait` verdict, so other polls may lean on
//! it without racing. When every live VW is registered the bus
//! applies the **quiescent rule**: the globally earliest candidate
//! action `t*` (over every VW's next event and exactly-computable
//! serve) is found, and the poller acts iff it achieves `t*` —
//! serving at `t* = S` or popping at `t* = t_next` (serve wins ties,
//! matching the in-process executor, which serves inside the crossing
//! push's handler ahead of same-instant events). The earliest action
//! is decidable because any push landing at or before `t*` would have
//! had to start strictly before `t*` — in some VW's past, hence
//! already announced.
//!
//! Every verdict is a pure function of simulated data (announced
//! landings and registration inputs), never of wall-clock
//! interleaving — frontier freshness affects only *when* a verdict
//! becomes available, not its value. That is the determinism
//! argument: any thread count computes the same serves, hence the
//! same simulation.
//!
//! # Bookkeeping
//!
//! The bus keeps no per-VW log of announced steps. Because each VW
//! announces waves contiguously from 0 with monotone landings, every
//! question a poll asks reduces to aggregates updated at announce,
//! register and finish time:
//!
//! - **Per-wave aggregates**: for each wave, how many VWs announced
//!   it and the latest of their landings. A wave's crossing is that
//!   maximum once every VW has announced it — one lookup.
//! - **Fully announced prefix**: `full`, the fewest waves any VW has
//!   announced. Over `waves[..full]` the crossings are non-decreasing
//!   (each VW's landings are), and the number of waves every VW has
//!   landed by `s` is the count of prefix crossings `≤ s` — so the
//!   version at `s` is one binary search over the prefix.
//! - **Finished VWs**: the fewest waves any finished VW announced; a
//!   target at or past it can never be served.
//! - **Registrations**: the count of live VWs with no registration;
//!   zero is the quiescent rule's all-blocked test.
//!
//! What a poll still scans, over dense per-VW arrays and never with a
//! binary search: the action floors of the VWs that have not
//! announced the target (only while some have not), and, once all
//! have, the version-final check over every VW's floor. The quiescent
//! rule walks the registrations, but only when every live VW is
//! registered.

use hetpipe_core::{GateBus, ServePoll};
use hetpipe_des::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A registered (blocked) poll: a sound standing description of the
/// VW's next action, valid until its next non-`Wait` verdict.
#[derive(Debug, Clone, Copy)]
struct WaitInfo {
    /// Target wave of the pending pull.
    target: u64,
    /// Instant the pull became locally serveable.
    since: SimTime,
    /// The VW's next local event (its polled bound).
    t_next: SimTime,
}

/// One wave's announces, aggregated over the VWs that made them.
#[derive(Debug, Clone, Copy)]
struct WaveAgg {
    /// VWs that announced this wave.
    announced: usize,
    /// Latest landing among them: the wave's crossing time once every
    /// VW has announced it.
    max_lands: SimTime,
}

impl WaveAgg {
    const NONE: WaveAgg = WaveAgg {
        announced: 0,
        max_lands: SimTime::ZERO,
    };
}

/// Verdict and announce counts of one fleet run's gate bus.
///
/// `ready` and `announces` are thread-invariant: every served pull
/// takes exactly one `Ready` verdict and every wave push one
/// announce, and the simulation is the same on any thread count. The
/// other counts record how often an undecided serve was asked again,
/// which depends on how engine steps interleave across the driver's
/// worker threads; compare them only between runs on one thread
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusCounters {
    /// Polls answered [`ServePoll::Ready`].
    pub ready: u64,
    /// Polls answered [`ServePoll::NotBefore`].
    pub not_before: u64,
    /// Polls answered [`ServePoll::Wait`].
    pub wait: u64,
    /// Non-`Wait` verdicts decided by the quiescent rule (a subset of
    /// `ready + not_before`).
    pub quiescent: u64,
    /// Push landings announced.
    pub announces: u64,
}

impl BusCounters {
    /// Total polls: every poll gets exactly one verdict.
    pub fn polls(&self) -> u64 {
        self.ready + self.not_before + self.wait
    }
}

#[derive(Debug)]
struct BusState {
    /// Per-wave aggregates, indexed by wave.
    waves: Vec<WaveAgg>,
    /// Waves each VW has announced — also the next wave it announces.
    announced: Vec<u64>,
    /// Each VW's latest announced landing (the monotonicity check).
    last_lands: Vec<SimTime>,
    /// Length of the fully announced prefix, `min(announced)`.
    full: usize,
    /// Fewest waves any finished VW announced (`u64::MAX` while none
    /// has finished).
    done_min_announced: u64,
    waiting: Vec<Option<WaitInfo>>,
    done: Vec<bool>,
    /// Live VWs with no registration.
    unregistered: usize,
    /// Bumped on every announce, finish, and all-blocked transition;
    /// blocked drivers wait for it to change.
    generation: u64,
    counters: BusCounters,
}

impl BusState {
    /// The crossing time of `target` — the max of every VW's
    /// target-wave landing — once every VW has announced it. New
    /// announces only add later waves, so the value is final.
    fn crossing(&self, target: u64) -> Option<SimTime> {
        let n = self.announced.len();
        self.waves
            .get(target as usize)
            .filter(|agg| agg.announced == n)
            .map(|agg| agg.max_lands)
    }

    /// The version a serve at `at` carries: `min_clock(at) − 1` over
    /// the announced landings. The prefix crossings are sorted, and a
    /// VW that announced only `full` waves caps the minimum there.
    /// Sound only once the caller has proven no unannounced push can
    /// land at or before `at`.
    fn version_at(&self, at: SimTime) -> i64 {
        self.waves[..self.full].partition_point(|agg| agg.max_lands <= at) as i64 - 1
    }

    /// Sets `vw`'s registration, keeping `unregistered` in step.
    fn set_waiting(&mut self, vw: usize, w: Option<WaitInfo>) {
        match (self.waiting[vw].is_some(), w.is_some()) {
            (false, true) => self.unregistered -= 1,
            (true, false) => self.unregistered += 1,
            _ => {}
        }
        self.waiting[vw] = w;
    }
}

/// The shared WSP gate state of a fleet run (see the module doc for
/// the protocol). One instance per [`crate::run_fleet`] call.
pub struct FleetBus {
    state: Mutex<BusState>,
    wake: Condvar,
    /// Lock-free monotone lower bounds on each VW's next action
    /// (nanoseconds), published on every event pop.
    frontiers: Vec<AtomicU64>,
    /// Per-VW lookahead: a certified lower bound on the duration of
    /// any of the VW's pushes (announce → landing). Zero is always
    /// sound (landings still fall strictly after the announcing
    /// action); larger values turn `Wait` verdicts into `NotBefore`
    /// horizons.
    min_step: Vec<SimTime>,
}

impl FleetBus {
    /// A bus for `vws` engines, with zero lookahead (see
    /// [`FleetBus::set_min_steps`]).
    pub fn new(vws: usize) -> FleetBus {
        FleetBus {
            state: Mutex::new(BusState {
                waves: Vec::new(),
                announced: vec![0; vws],
                last_lands: vec![SimTime::ZERO; vws],
                full: 0,
                done_min_announced: u64::MAX,
                waiting: vec![None; vws],
                done: vec![false; vws],
                unregistered: vws,
                generation: 0,
                counters: BusCounters::default(),
            }),
            wake: Condvar::new(),
            frontiers: (0..vws).map(|_| AtomicU64::new(0)).collect(),
            min_step: vec![SimTime::ZERO; vws],
        }
    }

    /// Installs the per-VW minimum push durations (the conservative
    /// lookahead). Must be called before the bus is shared: the bound
    /// is baked into every subsequent verdict.
    pub fn set_min_steps(&mut self, steps: Vec<SimTime>) {
        assert_eq!(steps.len(), self.frontiers.len());
        self.min_step = steps;
    }

    fn lock(&self) -> MutexGuard<'_, BusState> {
        self.state
            .lock()
            .expect("fleet bus lock poisoned: an engine thread panicked")
    }

    /// The verdict and announce counts so far.
    pub fn counters(&self) -> BusCounters {
        self.lock().counters
    }

    /// Current wake generation (capture before a stepping round;
    /// compare in [`FleetBus::wait_change`]).
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Blocks until the generation differs from `seen` or `timeout`
    /// elapses (the timeout is a liveness safety net — frontier
    /// publishes are lock-free and do not signal).
    pub fn wait_change(&self, seen: u64, timeout: Duration) {
        let st = self.lock();
        if st.generation != seen {
            return;
        }
        let _unused = self.wake.wait_timeout(st, timeout).unwrap();
    }

    /// A sound lower bound on `u`'s next action: `∞` when done, the
    /// registration's `min(t_next, since)` when blocked (its next
    /// action is its local event or its own serve, which cannot
    /// predate its request), else the published frontier.
    fn action_floor(&self, st: &BusState, u: usize) -> SimTime {
        if st.done[u] {
            return SimTime::MAX;
        }
        if let Some(w) = st.waiting[u] {
            return w.t_next.min(w.since);
        }
        SimTime::from_nanos(self.frontiers[u].load(Ordering::Acquire))
    }

    /// `u`'s minimum push duration, and strictly positive: timed
    /// transfers have positive length (the 1 ns fallback keeps
    /// zero-lookahead buses exact).
    fn gap(&self, u: usize) -> SimTime {
        self.min_step[u].max(SimTime::from_nanos(1))
    }

    /// A certified lower bound on any landing `u` has yet to
    /// announce: the announce happens during an action at or past
    /// `u`'s floor, and the landing follows it by at least `u`'s
    /// [gap](FleetBus::gap).
    fn unannounced_lb(&self, st: &BusState, u: usize) -> SimTime {
        self.action_floor(st, u).saturating_add(self.gap(u))
    }

    /// The verdict of one poll (see the module doc), leaving `vw`
    /// registered exactly when it is `Wait`.
    fn decide(
        &self,
        st: &mut BusState,
        vw: usize,
        target: u64,
        ready_since: SimTime,
        bound: SimTime,
    ) -> ServePoll {
        if st.done_min_announced <= target {
            // A finished VW never pushed the target wave: the pull is
            // permanently unservable, matching the in-process
            // executor idling an unserved request at the horizon.
            st.set_waiting(vw, None);
            return ServePoll::NotBefore {
                at_least: SimTime::MAX,
            };
        }
        // Fold a certified lower bound on the serve over every
        // contribution: announced target-wave landings exactly (their
        // maximum is the aggregate), unannounced ones by
        // floor-plus-lookahead.
        let n = st.announced.len();
        let agg = st
            .waves
            .get(target as usize)
            .copied()
            .unwrap_or(WaveAgg::NONE);
        let all_known = agg.announced == n;
        let mut serve_lb = ready_since.max(agg.max_lands);
        if !all_known {
            for u in 0..n {
                if st.announced[u] <= target {
                    serve_lb = serve_lb.max(self.unannounced_lb(st, u));
                }
            }
        }
        if serve_lb > bound {
            // The certified lower bound already clears the bound: the
            // engine pops every local event strictly before it with
            // no further polls.
            st.set_waiting(vw, None);
            return ServePoll::NotBefore { at_least: serve_lb };
        }
        if all_known {
            // S = serve_lb is exact (every landing announced) and
            // within the bound; the verdict is Ready as soon as the
            // version is final — no VW whose pushes are still
            // unbounded may land one at or before S. (The poller
            // itself is covered by its bound: its next local event is
            // at `bound ≥ S`, so it announces nothing before S.)
            let s = serve_lb;
            let version_final = (0..n).all(|u| {
                u == vw
                    || st.done[u]
                    || self.action_floor(st, u) >= s
                    || self.unannounced_lb(st, u) > s
            });
            if version_final {
                st.set_waiting(vw, None);
                return ServePoll::Ready {
                    at: s,
                    version: st.version_at(s),
                };
            }
        }
        // Undecided: register (a standing sound bound on v's next
        // action) and try the quiescent rule.
        let was_all_blocked = st.unregistered == usize::from(st.waiting[vw].is_none());
        st.set_waiting(
            vw,
            Some(WaitInfo {
                target,
                since: ready_since,
                t_next: bound,
            }),
        );
        if let Some(verdict) = self.quiescent_verdict(st, vw) {
            st.counters.quiescent += 1;
            st.set_waiting(vw, None);
            return verdict;
        }
        if !was_all_blocked {
            // This registration completed the all-blocked set: wake
            // the other drivers so the achieving VW re-polls into the
            // quiescent rule.
            st.generation += 1;
            self.wake.notify_all();
        }
        ServePoll::Wait
    }

    /// The quiescent rule: with every live VW registered, find the
    /// globally earliest candidate action `t*` and let `v` act iff it
    /// achieves it (serve beats its own same-instant local event).
    fn quiescent_verdict(&self, st: &BusState, v: usize) -> Option<ServePoll> {
        if st.unregistered > 0 {
            return None;
        }
        // One pass over the registrations; each crossing is an O(1)
        // aggregate lookup.
        let mut t_star = SimTime::MAX;
        let mut mine = None;
        for (u, w) in st.waiting.iter().enumerate() {
            let Some(w) = w else {
                continue;
            };
            // An inexact serve needs a future announce, which happens
            // at some VW's action ≥ t* with a landing strictly later —
            // it can never achieve t*, so MAX is a sound stand-in.
            let s_u = st
                .crossing(w.target)
                .map_or(SimTime::MAX, |x| x.max(w.since));
            t_star = t_star.min(w.t_next).min(s_u);
            if u == v {
                mine = Some((s_u, w.t_next, w.target));
            }
        }
        let (s_v, t_next_v, target_v) = mine.expect("poller is registered");
        if s_v <= t_next_v && s_v == t_star {
            // All contributions to a t*-earliest serve are announced,
            // and every other VW acts no earlier than t* (landings of
            // anything it still announces fall strictly after) — the
            // version is final.
            return Some(ServePoll::Ready {
                at: s_v,
                version: st.version_at(s_v),
            });
        }
        if t_next_v == t_star && t_star < s_v {
            // v's own local event is the globally earliest action. If
            // the serve is exact it happens at s_v itself; otherwise
            // the missing announce occurs at some action ≥ t* and its
            // landing follows by at least the announcer's lookahead.
            let at_least = if s_v < SimTime::MAX {
                s_v
            } else {
                let gap = (0..st.announced.len())
                    .filter(|&u| !st.done[u] && st.announced[u] <= target_v)
                    .map(|u| self.gap(u))
                    .min()
                    .unwrap_or(SimTime::from_nanos(1));
                t_star.saturating_add(gap)
            };
            return Some(ServePoll::NotBefore { at_least });
        }
        None // Another VW achieves t*; stay registered.
    }
}

impl GateBus for FleetBus {
    fn vws(&self) -> usize {
        self.frontiers.len()
    }

    fn announce_push(&self, vw: usize, wave: u64, lands: SimTime) {
        let mut guard = self.lock();
        let st = &mut *guard;
        debug_assert!(!st.done[vw], "announce after finish");
        assert_eq!(
            wave, st.announced[vw],
            "VW {vw} announced out of order: waves announce contiguously from 0"
        );
        debug_assert!(lands >= st.last_lands[vw], "landings are monotone");
        st.announced[vw] += 1;
        st.last_lands[vw] = lands;
        // Contiguity: this VW announced every earlier wave, so the
        // aggregate exists or is the next one.
        let w = wave as usize;
        if w == st.waves.len() {
            st.waves.push(WaveAgg::NONE);
        }
        let agg = &mut st.waves[w];
        agg.announced += 1;
        agg.max_lands = agg.max_lands.max(lands);
        if agg.announced == st.announced.len() {
            // Every VW that announced `w` announced all earlier waves
            // too, so the prefix now runs through `w`.
            st.full = w + 1;
        }
        st.counters.announces += 1;
        st.generation += 1;
        self.wake.notify_all();
    }

    fn publish_frontier(&self, vw: usize, at: SimTime) {
        // Monotone by construction (the engine's clock only moves
        // forward); Release pairs with the Acquire in `action_floor`.
        self.frontiers[vw].store(at.as_nanos(), Ordering::Release);
    }

    fn poll_serve(
        &self,
        vw: usize,
        target: u64,
        ready_since: SimTime,
        bound: SimTime,
    ) -> ServePoll {
        let mut guard = self.lock();
        let st = &mut *guard;
        let verdict = self.decide(st, vw, target, ready_since, bound);
        match verdict {
            ServePoll::Ready { .. } => st.counters.ready += 1,
            ServePoll::NotBefore { .. } => st.counters.not_before += 1,
            ServePoll::Wait => st.counters.wait += 1,
        }
        verdict
    }

    fn finish(&self, vw: usize) {
        let mut guard = self.lock();
        let st = &mut *guard;
        st.set_waiting(vw, None);
        if !st.done[vw] {
            st.done[vw] = true;
            st.unregistered -= 1;
            st.done_min_announced = st.done_min_announced.min(st.announced[vw]);
        }
        st.generation += 1;
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus_with_step(n: usize, step: u64) -> FleetBus {
        let mut b = FleetBus::new(n);
        b.set_min_steps(vec![SimTime::from_nanos(step); n]);
        b
    }

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn serve_decided_once_all_landings_announced_and_frontiers_pass() {
        let b = FleetBus::new(2);
        b.announce_push(0, 0, ns(100));
        b.announce_push(1, 0, ns(150));
        // VW 1 is past the crossing; VW 0 polls with its next event
        // at 200.
        b.publish_frontier(1, ns(160));
        b.publish_frontier(0, ns(90));
        assert_eq!(
            b.poll_serve(0, 0, ns(90), ns(200)),
            ServePoll::Ready {
                at: ns(150),
                version: 0
            }
        );
    }

    #[test]
    fn unannounced_landing_past_bound_is_not_before() {
        let b = FleetBus::new(2);
        b.announce_push(0, 0, ns(100));
        // VW 1 has announced nothing but is provably past the bound;
        // with zero lookahead its landing falls strictly after its
        // floor, so the certified horizon is floor + 1 ns.
        b.publish_frontier(1, ns(500));
        assert_eq!(
            b.poll_serve(0, 0, ns(90), ns(400)),
            ServePoll::NotBefore { at_least: ns(501) }
        );
    }

    #[test]
    fn lookahead_excludes_a_lagging_pusher_within_its_min_step() {
        let b = bus_with_step(2, 100);
        b.announce_push(0, 0, ns(150));
        // VW 1's floor is only 50, but its next push cannot land
        // before 50 + 100 > bound — a zero-lookahead bus would Wait
        // here.
        b.publish_frontier(1, ns(50));
        assert_eq!(
            b.poll_serve(0, 0, ns(90), ns(140)),
            ServePoll::NotBefore { at_least: ns(150) }
        );
    }

    #[test]
    fn lookahead_finalizes_the_version_past_lagging_frontiers() {
        let b = bus_with_step(2, 100);
        b.announce_push(0, 0, ns(100));
        b.announce_push(1, 0, ns(150));
        // Both landings are known (S = 150) but VW 1's frontier is
        // still 60: zero lookahead cannot close the version, while
        // 60 + 100 > 150 proves no further landing reaches S.
        b.publish_frontier(0, ns(90));
        b.publish_frontier(1, ns(60));
        assert_eq!(
            b.poll_serve(0, 0, ns(90), ns(200)),
            ServePoll::Ready {
                at: ns(150),
                version: 0
            }
        );
        let zero = FleetBus::new(2);
        zero.announce_push(0, 0, ns(100));
        zero.announce_push(1, 0, ns(150));
        zero.publish_frontier(0, ns(90));
        zero.publish_frontier(1, ns(60));
        assert_eq!(zero.poll_serve(0, 0, ns(90), ns(200)), ServePoll::Wait);
    }

    #[test]
    fn lagging_frontier_blocks_and_registers() {
        let b = FleetBus::new(2);
        b.announce_push(0, 0, ns(100));
        b.publish_frontier(1, ns(50)); // Could still announce ≤ bound.
        assert_eq!(b.poll_serve(0, 0, ns(90), ns(400)), ServePoll::Wait);
        // The late announce resolves it.
        b.announce_push(1, 0, ns(120));
        b.publish_frontier(1, ns(130));
        assert_eq!(
            b.poll_serve(0, 0, ns(90), ns(400)),
            ServePoll::Ready {
                at: ns(120),
                version: 0
            }
        );
    }

    #[test]
    fn version_counts_every_wave_landed_by_the_serve() {
        let b = FleetBus::new(2);
        b.announce_push(0, 0, ns(100));
        b.announce_push(0, 1, ns(110));
        b.announce_push(1, 0, ns(105));
        b.announce_push(1, 1, ns(115));
        b.publish_frontier(0, ns(120));
        b.publish_frontier(1, ns(120));
        // Target wave 0 serves at its crossing (105), but wave-1
        // landings at 110/115 have not landed by then.
        assert_eq!(
            b.poll_serve(0, 0, ns(90), ns(200)),
            ServePoll::Ready {
                at: ns(105),
                version: 0
            }
        );
        // A later-ready request sees both waves in (VW 1 must be
        // provably past the serve instant for the version to close).
        b.publish_frontier(1, ns(160));
        assert_eq!(
            b.poll_serve(0, 0, ns(150), ns(200)),
            ServePoll::Ready {
                at: ns(150),
                version: 1
            }
        );
    }

    #[test]
    fn done_vw_without_target_wave_makes_pull_unservable() {
        let b = FleetBus::new(2);
        b.announce_push(0, 0, ns(100));
        b.finish(1);
        assert_eq!(
            b.poll_serve(0, 0, ns(90), ns(400)),
            ServePoll::NotBefore {
                at_least: SimTime::MAX
            }
        );
    }

    #[test]
    fn version_is_capped_by_the_fully_announced_prefix() {
        let b = FleetBus::new(2);
        // VW 0 runs two waves ahead of VW 1: the fully announced
        // prefix is one wave long while VW 0 has announced three.
        b.announce_push(0, 0, ns(100));
        b.announce_push(0, 1, ns(110));
        b.announce_push(0, 2, ns(120));
        b.announce_push(1, 0, ns(105));
        b.publish_frontier(0, ns(300));
        // Every VW-0 landing precedes the serve, but VW 1's clock is
        // still 1, so the version is 0.
        assert_eq!(
            b.poll_serve(1, 0, ns(130), ns(200)),
            ServePoll::Ready {
                at: ns(130),
                version: 0
            }
        );
        // VW 1's wave 1 extends the prefix; its crossing (125) bounds
        // which serves see it.
        b.announce_push(1, 1, ns(125));
        assert_eq!(
            b.poll_serve(1, 0, ns(112), ns(200)),
            ServePoll::Ready {
                at: ns(112),
                version: 0
            }
        );
        assert_eq!(
            b.poll_serve(1, 0, ns(130), ns(200)),
            ServePoll::Ready {
                at: ns(130),
                version: 1
            }
        );
    }

    #[test]
    fn finished_vw_blocks_only_targets_past_its_last_wave() {
        let b = FleetBus::new(2);
        b.announce_push(0, 0, ns(100));
        b.announce_push(0, 1, ns(150));
        b.announce_push(1, 0, ns(120));
        b.finish(1);
        // VW 1 pushed wave 0 before finishing: its landing counts
        // and its finish proves the version final.
        assert_eq!(
            b.poll_serve(0, 0, ns(90), ns(200)),
            ServePoll::Ready {
                at: ns(120),
                version: 0
            }
        );
        // Wave 1 is past VW 1's last wave: never servable.
        assert_eq!(
            b.poll_serve(0, 1, ns(130), ns(200)),
            ServePoll::NotBefore {
                at_least: SimTime::MAX
            }
        );
        assert_eq!(
            b.counters(),
            BusCounters {
                ready: 1,
                not_before: 1,
                wait: 0,
                quiescent: 0,
                announces: 3,
            }
        );
    }

    #[test]
    #[should_panic(expected = "announced out of order")]
    fn non_contiguous_announce_panics() {
        let b = FleetBus::new(2);
        b.announce_push(0, 0, ns(100));
        b.announce_push(0, 2, ns(120));
    }

    #[test]
    fn quiescent_rule_decides_the_earliest_serve() {
        let b = FleetBus::new(2);
        b.announce_push(0, 0, ns(100));
        b.announce_push(1, 0, ns(150));
        // Both registered: VW 1's frontier lags so the opportunistic
        // path cannot finalize VW 0's version, but once both are
        // blocked the earliest action is decidable.
        b.publish_frontier(0, ns(90));
        b.publish_frontier(1, ns(60));
        assert_eq!(b.poll_serve(1, 0, ns(60), ns(600)), ServePoll::Wait);
        // VW 0's poll: S_0 = 150, t_next = 500; VW 1: S_1 = 150,
        // t_next = 600. t* = 150 achieved by VW 0's serve (and VW
        // 1's, on its own re-poll).
        assert_eq!(
            b.poll_serve(0, 0, ns(90), ns(500)),
            ServePoll::Ready {
                at: ns(150),
                version: 0
            }
        );
        // VW 0 advances to its serve and publishes; VW 1's re-poll
        // now closes through the opportunistic path.
        b.publish_frontier(0, ns(150));
        assert_eq!(
            b.poll_serve(1, 0, ns(60), ns(600)),
            ServePoll::Ready {
                at: ns(150),
                version: 0
            }
        );
        let c = b.counters();
        assert_eq!((c.polls(), c.ready, c.wait, c.quiescent), (3, 2, 1, 1));
    }

    #[test]
    fn quiescent_rule_lets_the_earliest_local_event_proceed() {
        let b = FleetBus::new(2);
        // No landings at all; both block. VW 0's next event at 80 is
        // the globally earliest action; any serve needs an announce at
        // an action ≥ 80 landing strictly later.
        assert_eq!(b.poll_serve(1, 0, ns(10), ns(300)), ServePoll::Wait);
        assert_eq!(
            b.poll_serve(0, 0, ns(20), ns(80)),
            ServePoll::NotBefore { at_least: ns(81) }
        );
    }

    #[test]
    fn generation_bumps_wake_waiters() {
        let b = FleetBus::new(2);
        let g0 = b.generation();
        b.announce_push(0, 0, ns(10));
        assert_ne!(b.generation(), g0);
        // wait_change returns immediately on a stale generation.
        b.wait_change(g0, Duration::from_secs(5));
    }
}
