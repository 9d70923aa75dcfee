//! Model-checking the WSP gate rule.
//!
//! Virtual workers meet the parameter server only at pushes and pull
//! gates ([`crate::lookahead`] certifies *where* each committed stream
//! places them; this module certifies *what happens at them* under
//! every interleaving of the workers' steps). The executor evaluates
//! the rule on one event queue (`min_clock` over the push clocks);
//! [`ShadowGateProtocol`] is its pure shadow, one atomic step per
//! worker action:
//!
//! - `Advance`: the worker injects its next minibatch — but only if
//!   the minibatch's required wave ([`WspParams::required_wave`]) has
//!   been pushed by **every** worker (the gate is open). A closed
//!   gate makes the step a no-op: the worker spins.
//! - `Push`: the worker publishes its next wave — a no-op until the
//!   wave's minibatches have all been injected locally.
//!
//! The invariant is the WSP safety contract the paper's Section 5
//! argues informally: **no VW ever computes a minibatch whose
//! required wave some worker has not pushed** (no stale read through
//! the gate), and push clocks never spread further than `D + 1`
//! (derivation: when any clock reaches `c + 1`, the injected
//! minibatch `(c + 1)·Nm` required wave `c − D` from everyone, so
//! every clock is ≥ `c − D`).
//!
//! Exhaustive interleaving exploration over 3 workers ("engines" in
//! the scenario names) is pinned to the unreduced multinomial; the
//! 4-worker scenario is what the sleep-set POR
//! ([`crate::checker::explore_por`]) buys — `Advance` ops commute
//! across workers (they write only their own injection clock) and so
//! do `Push`es, while `Advance` vs `Push` stay dependent (the gate
//! reads what the push writes). The deliberately broken
//! [`check_broken_gate_protocol`] variant — a worker that advances
//! *past* a closed gate — must be refuted under the same reduction,
//! keeping the green run non-vacuous.

use crate::checker::{explore, explore_por, interleaving_count, Explored, ShadowSpec, Violation};
use hetpipe_schedule::WspParams;

/// Most workers the shadow state tracks (arrays stay `Copy`).
pub const MAX_VWS: usize = 4;

/// The shadow state: per-worker injection clocks (highest minibatch
/// injected) and push clocks (waves published).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateState {
    /// Highest minibatch injected per worker (0 = none yet).
    pub injected: [u64; MAX_VWS],
    /// Waves pushed per worker (0 = none yet).
    pub pushed: [u64; MAX_VWS],
}

/// One worker step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOp {
    /// Inject the next minibatch if its gate is open (else spin).
    Advance,
    /// Publish the next wave if locally complete (else spin).
    Push,
}

/// The pure shadow of the WSP gate rule. `skip_gate` is the
/// negative control: a worker advances whether or not the gate is
/// open — the bug the checker must catch.
pub struct ShadowGateProtocol {
    /// WSP parameters (the gate algebra).
    pub wsp: WspParams,
    /// Virtual workers in the scenario, ≤ [`MAX_VWS`].
    pub vws: usize,
    /// Deliberately broken variant: advance past closed gates.
    pub skip_gate: bool,
}

impl ShadowSpec for ShadowGateProtocol {
    type State = GateState;
    type Op = GateOp;

    fn init(&self) -> GateState {
        assert!(
            self.vws <= MAX_VWS,
            "shadow state holds at most {MAX_VWS} engines"
        );
        GateState {
            injected: [0; MAX_VWS],
            pushed: [0; MAX_VWS],
        }
    }

    fn apply(&self, state: &mut GateState, vw: usize, op: GateOp) {
        match op {
            GateOp::Advance => {
                let p = state.injected[vw] + 1;
                let open = match self.wsp.required_wave(p) {
                    None => true,
                    Some(w) => (0..self.vws).all(|u| state.pushed[u] > w),
                };
                if open || self.skip_gate {
                    state.injected[vw] = p;
                }
            }
            GateOp::Push => {
                let next_wave = state.pushed[vw];
                if state.injected[vw] >= self.wsp.last_of_wave(next_wave) {
                    state.pushed[vw] += 1;
                }
            }
        }
    }

    fn check(&self, state: &GateState) -> Result<(), String> {
        // No stale read: every injected minibatch's required wave has
        // been pushed by every engine.
        for vw in 0..self.vws {
            let p = state.injected[vw];
            if p == 0 {
                continue;
            }
            if let Some(w) = self.wsp.required_wave(p) {
                for u in 0..self.vws {
                    if state.pushed[u] <= w {
                        return Err(format!(
                            "stale read through the gate: VW{vw} injected minibatch {p}, \
                             which requires wave {w} from every worker, but VW{u} has \
                             pushed only {} wave(s)",
                            state.pushed[u]
                        ));
                    }
                }
            }
        }
        // Push clocks within the WSP distance bound.
        let max = (0..self.vws).map(|u| state.pushed[u]).max().unwrap_or(0);
        let min = (0..self.vws).map(|u| state.pushed[u]).min().unwrap_or(0);
        let bound = self.wsp.d as u64 + 1;
        if max - min > bound {
            return Err(format!(
                "push-clock spread {} exceeds D + 1 = {bound} (clocks {:?})",
                max - min,
                &state.pushed[..self.vws]
            ));
        }
        Ok(())
    }

    /// `Advance` writes only its own engine's injection clock and
    /// `Push` only its own push clock, so same-op pairs on different
    /// engines commute in every state. `Advance` *reads* every push
    /// clock (the gate) while `Push` writes one, so cross-kind pairs
    /// are dependent — their order is a genuinely different trace.
    /// This holds for the broken variant too (`skip_gate` changes
    /// which states are reached, not which cells ops touch), so the
    /// negative control is refuted under the same reduction.
    fn independent(&self, a_thread: usize, a: GateOp, b_thread: usize, b: GateOp) -> bool {
        a_thread != b_thread && a == b
    }
}

/// One verified gate scenario: its shape and exploration counts.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Engines in the scenario.
    pub vws: usize,
    /// Total ops across engines.
    pub ops: usize,
    /// The unreduced multinomial (what a full enumeration would
    /// visit).
    pub unreduced: u64,
    /// Interleavings actually explored (equals `unreduced` for the
    /// full-enumeration scenarios; the POR trace count otherwise).
    pub explored: u64,
    /// True when the scenario ran under sleep-set POR.
    pub por: bool,
}

/// The program every engine runs in the standing scenarios: inject,
/// publish, inject, publish — two full `Nm = 1` waves, enough to
/// drive each engine through a closed gate (`required_wave(2) = 0`
/// at `D = 0`) and a second push that unlocks only behind it.
fn two_wave_program() -> Vec<GateOp> {
    vec![GateOp::Advance, GateOp::Push, GateOp::Advance, GateOp::Push]
}

/// The standing scenarios proving the gate protocol safe. The
/// 3-engine scenarios are enumerated in full and pinned to their
/// multinomials (the exhaustiveness check); the 4-engine scenario is
/// what POR scales to — its unreduced multinomial (63,063,000) is
/// reported alongside the explored trace count so the reduction
/// factor stays visible.
pub fn check_gate_protocol() -> Result<Vec<GateReport>, String> {
    let mut reports = Vec::new();

    // 3 engines, full enumeration + POR cross-check.
    let spec3 = ShadowGateProtocol {
        wsp: WspParams::new(1, 0),
        vws: 3,
        skip_gate: false,
    };
    let programs3 = vec![two_wave_program(); 3];
    let lens: Vec<usize> = programs3.iter().map(Vec::len).collect();
    let expected = interleaving_count(&lens);
    let scenario = "3 engines x (advance, push)^2, Nm=1 D=0, full enumeration";
    let Explored { interleavings, .. } =
        explore(&spec3, &programs3).map_err(|v| format!("{scenario}: {v}"))?;
    if interleavings != expected {
        return Err(format!(
            "{scenario}: enumerated {interleavings} interleavings but the multinomial \
             of {lens:?} is {expected} — the exploration was not exhaustive"
        ));
    }
    reports.push(GateReport {
        scenario,
        vws: 3,
        ops: lens.iter().sum(),
        unreduced: expected,
        explored: interleavings,
        por: false,
    });

    let scenario = "3 engines x (advance, push)^2, sleep-set POR";
    let por3 = explore_por(&spec3, &programs3).map_err(|v| format!("{scenario}: {v}"))?;
    if por3.interleavings >= expected {
        return Err(format!(
            "{scenario}: POR explored {} traces, no fewer than the full {expected} — \
             the reduction is not reducing",
            por3.interleavings
        ));
    }
    reports.push(GateReport {
        scenario,
        vws: 3,
        ops: lens.iter().sum(),
        unreduced: expected,
        explored: por3.interleavings,
        por: true,
    });

    // 4 engines: the scale POR buys. 16!/(4!)^4 = 63,063,000
    // interleavings unreduced — out of reach for the full enumeration
    // in CI — checked exhaustively over traces via POR.
    let spec4 = ShadowGateProtocol {
        wsp: WspParams::new(1, 0),
        vws: 4,
        skip_gate: false,
    };
    let programs4 = vec![two_wave_program(); 4];
    let lens4: Vec<usize> = programs4.iter().map(Vec::len).collect();
    let unreduced4 = interleaving_count(&lens4);
    let scenario = "4 engines x (advance, push)^2, sleep-set POR";
    let por4 = explore_por(&spec4, &programs4).map_err(|v| format!("{scenario}: {v}"))?;
    if por4.interleavings >= unreduced4 {
        return Err(format!(
            "{scenario}: POR explored {} traces out of {unreduced4} — not reducing",
            por4.interleavings
        ));
    }
    reports.push(GateReport {
        scenario,
        vws: 4,
        ops: lens4.iter().sum(),
        unreduced: unreduced4,
        explored: por4.interleavings,
        por: true,
    });

    Ok(reports)
}

/// Negative control: the advance-past-gate engine under the same
/// 4-engine POR exploration. Returns the counterexample — callers
/// assert `Some` (a checker that passed this would be vacuous).
pub fn check_broken_gate_protocol() -> Option<Violation<GateOp>> {
    let spec = ShadowGateProtocol {
        wsp: WspParams::new(1, 0),
        vws: 4,
        skip_gate: true,
    };
    explore_por(&spec, &vec![two_wave_program(); 4]).err()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standing_scenarios_prove_gate_safety() {
        let reports = check_gate_protocol().expect("gate protocol must hold");
        assert_eq!(reports.len(), 3);
        // Full 3-engine enumeration pinned to the multinomial.
        assert_eq!(reports[0].unreduced, 34_650);
        assert_eq!(reports[0].explored, 34_650);
        assert!(!reports[0].por);
        // POR over the same scenario: pinned trace count, same
        // verdict (34,650 → 2,083, a ~16× reduction).
        assert!(reports[1].por);
        assert_eq!(reports[1].explored, 2_083);
        // 4 engines: unreduced multinomial on record, POR-explored
        // trace count pinned (63,063,000 → 763,615, ~82×). A change
        // in either pin means the reduction — or the protocol —
        // changed.
        assert_eq!(reports[2].unreduced, 63_063_000);
        assert!(reports[2].por);
        assert_eq!(reports[2].explored, 763_615);
    }

    #[test]
    fn broken_gate_is_refuted_under_por() {
        let v = check_broken_gate_protocol().expect("advance-past-gate must be caught");
        assert!(
            v.message.contains("stale read") || v.message.contains("spread"),
            "{v}"
        );
        // The counterexample ends in the illegal advance.
        assert!(matches!(v.schedule.last(), Some((_, GateOp::Advance))));
    }

    #[test]
    fn spread_bound_is_judged() {
        // A hand-built state with clocks 2 apart at D = 0 violates the
        // spread half of the invariant even with no stale reads.
        let spec = ShadowGateProtocol {
            wsp: WspParams::new(1, 0),
            vws: 2,
            skip_gate: false,
        };
        let state = GateState {
            injected: [0, 0, 0, 0],
            pushed: [2, 0, 0, 0],
        };
        let err = spec.check(&state).unwrap_err();
        assert!(err.contains("spread"), "{err}");
    }
}
