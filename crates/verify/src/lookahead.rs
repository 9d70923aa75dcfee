//! Lookahead-window certificates: the closed-form gate cadence the
//! per-VW engines will synchronize on.
//!
//! Conservative parallel DES needs a *lookahead*: how far one engine
//! may advance before it must observe the others. For the WSP
//! decomposition that window is the gate-to-gate segment of the
//! stage-0 stream, and it has a closed form in `(Nm, D)` alone:
//!
//! - **warmup**: `s_global + 1 = (D + 2)·Nm − 1` stage-0 forwards run
//!   before the first gate (wave 0) — minibatch `p` needs no global
//!   wave while `p ≤ s_global + 1` ([`WspParams::required_wave`]);
//! - **steady state**: exactly `Nm` stage-0 forwards between
//!   consecutive gates — gate `w` precedes forward
//!   `w·Nm + s_global + 2`, the first that requires wave `w`.
//!
//! [`verify_lookahead`] proves a configuration's committed queues
//! place every gate and push exactly where the closed form says
//! ([`hetpipe_schedule::ps_interaction_points`] extracts the committed
//! positions), emitting a [`LookaheadWitness`] the engine refactor can
//! golden-pin per schedule. A schedule whose stream drifted from the
//! cadence — gating late (stale reads) or early (lost lookahead) —
//! fails here with the offending gate named, before any engine is
//! built on the assumption.

use hetpipe_schedule::{
    committed_queues, ps_interaction_points, PipelineSchedule, RecomputePolicy, Schedule, WspParams,
};

/// The certified lookahead constants of one `(Nm, D)` configuration:
/// `(warmup, steady)` — stage-0 forwards before the first gate, and
/// between consecutive gates.
pub fn lookahead_bound(wsp: WspParams) -> (u64, u64) {
    (wsp.s_global() as u64 + 1, wsp.nm as u64)
}

/// A proven lookahead witness for one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookaheadWitness {
    /// Stage-0 forwards before the first gate (`s_global + 1`).
    pub warmup: u64,
    /// Stage-0 forwards per steady gate-to-gate segment (`Nm`).
    pub steady_segment: u64,
    /// Gates checked against the closed form.
    pub gates: usize,
    /// Pushes checked against their wave's last backward.
    pub pushes: usize,
}

/// Proves `sched`'s committed gate/push placement matches the
/// closed-form lookahead bound over minibatches `1..=max_mb`.
pub fn verify_lookahead(
    sched: Schedule,
    k_gpus: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
    max_mb: u64,
) -> Result<LookaheadWitness, String> {
    let queues = committed_queues(sched, k_gpus, wsp, recompute, max_mb);
    let pts = ps_interaction_points(&queues);
    let (warmup, steady) = lookahead_bound(wsp);
    if pts.gates.is_empty() {
        return Err(format!(
            "{}: no gates within horizon {max_mb} (Nm={}, D={}) — nothing to certify; \
             widen the horizon",
            sched.name(),
            wsp.nm,
            wsp.d
        ));
    }
    for (i, g) in pts.gates.iter().enumerate() {
        if g.wave != i as u64 {
            return Err(format!(
                "{}: gate #{i} is for wave {} — gates must cover consecutive waves \
                 from 0 (a skipped wave would deadlock the coupled workers)",
                sched.name(),
                g.wave
            ));
        }
        let expect = g.wave * steady + warmup;
        if g.forwards_before != expect {
            return Err(format!(
                "{}: gate(w{}) placed after {} stage-0 forwards, closed form says {} \
                 (warmup {} + {}·Nm) — the stream {} the certified lookahead",
                sched.name(),
                g.wave,
                g.forwards_before,
                expect,
                warmup,
                g.wave,
                if g.forwards_before > expect {
                    "overruns"
                } else {
                    "undershoots"
                }
            ));
        }
    }
    for (i, p) in pts.pushes.iter().enumerate() {
        if p.wave != i as u64 {
            return Err(format!(
                "{}: push #{i} is for wave {} — pushes must cover consecutive waves from 0",
                sched.name(),
                p.wave
            ));
        }
        let expect = wsp.last_of_wave(p.wave);
        if p.backwards_before != expect {
            return Err(format!(
                "{}: push(w{}) placed after {} stage-0 backwards, but the wave's update \
                 is complete exactly after backward {} — a push must publish the whole \
                 wave, no more, no less",
                sched.name(),
                p.wave,
                p.backwards_before,
                expect
            ));
        }
    }
    Ok(LookaheadWitness {
        warmup,
        steady_segment: steady,
        gates: pts.gates.len(),
        pushes: pts.pushes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_wsp_algebra() {
        // warmup = (D+2)·Nm − 1 in closed form.
        for nm in [1usize, 2, 4, 8] {
            for d in [0usize, 1, 3] {
                let wsp = WspParams::new(nm, d);
                let (warmup, steady) = lookahead_bound(wsp);
                assert_eq!(warmup, ((d + 2) * nm - 1) as u64);
                assert_eq!(steady, nm as u64);
            }
        }
    }

    #[test]
    fn every_schedule_matches_the_closed_form() {
        for sched in Schedule::ALL {
            for (nm, d) in [(2usize, 0usize), (4, 0), (4, 1)] {
                let wsp = WspParams::new(nm, d);
                for recompute in RecomputePolicy::ALL {
                    let w = verify_lookahead(sched, 4, wsp, recompute, (nm * 8) as u64)
                        .unwrap_or_else(|e| panic!("{e}"));
                    assert_eq!(w.warmup, ((d + 2) * nm - 1) as u64, "{}", sched.name());
                    assert_eq!(w.steady_segment, nm as u64);
                    assert!(w.gates >= 2, "{}: need a steady segment", sched.name());
                    assert!(w.pushes >= w.gates, "{}", sched.name());
                }
            }
        }
    }

    #[test]
    fn tiny_horizon_is_a_proof_gap_not_a_pass() {
        // A horizon too small to contain a single gate must refuse to
        // certify rather than vacuously succeed.
        let wsp = WspParams::new(4, 1);
        let err =
            verify_lookahead(Schedule::OneFOneB, 4, wsp, RecomputePolicy::None, 4).unwrap_err();
        assert!(err.contains("nothing to certify"), "{err}");
    }
}
