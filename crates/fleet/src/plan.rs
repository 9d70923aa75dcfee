//! The fleet's synchronization-point constants, *derived from* the
//! certified lookahead closed form.
//!
//! `hetpipe_verify::lookahead_bound` is the proven closed form for
//! where parameter-server interactions sit in every committed op
//! stream: the first gate opens after `warmup = s_global + 1` stage-0
//! forwards and gates recur every `steady = Nm` forwards; the push of
//! wave `w` starts at the wave's last backward. [`SyncPlan::derive`]
//! obtains its constants by *calling* that closed form (not by
//! restating it), so a change to the certificate changes the runtime
//! constants with it — `verify_all`'s `fleet-sync` section pins this
//! derivation, including a named off-by-one negative control.

use hetpipe_core::WspParams;
use hetpipe_verify::lookahead_bound;

/// The certified gate/push positions the fleet synchronizes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPlan {
    /// Stage-0 forwards before the first gate (`s_global + 1`).
    pub warmup: u64,
    /// Stage-0 forwards between consecutive gates (`Nm`).
    pub steady: u64,
    /// The WSP parameters the plan was derived for.
    pub wsp: WspParams,
}

impl SyncPlan {
    /// Derives the plan from the certified lookahead closed form.
    pub fn derive(wsp: WspParams) -> SyncPlan {
        let (warmup, steady) = lookahead_bound(wsp);
        SyncPlan {
            warmup,
            steady,
            wsp,
        }
    }

    /// Stage-0 forwards committed before gate(`wave`) may open.
    pub fn gate_point(&self, wave: u64) -> u64 {
        self.warmup + wave * self.steady
    }

    /// Stage-0 backwards committed before push(`wave`) starts (the
    /// wave's last backward).
    pub fn push_point(&self, wave: u64) -> u64 {
        self.wsp.last_of_wave(wave)
    }

    /// Checks an observed gate position against the certificate,
    /// naming the wave and both positions on mismatch.
    pub fn check_gate(&self, wave: u64, forwards_before: u64) -> Result<(), String> {
        let expect = self.gate_point(wave);
        if forwards_before == expect {
            Ok(())
        } else {
            Err(format!(
                "fleet-sync: gate(wave {wave}) observed after {forwards_before} \
                 stage-0 forwards, certified lookahead places it at {expect}"
            ))
        }
    }

    /// Checks an observed push position against the certificate,
    /// naming the wave and both positions on mismatch.
    pub fn check_push(&self, wave: u64, backwards_before: u64) -> Result<(), String> {
        let expect = self.push_point(wave);
        if backwards_before == expect {
            Ok(())
        } else {
            Err(format!(
                "fleet-sync: push(wave {wave}) observed after {backwards_before} \
                 stage-0 backwards, certified lookahead places it at {expect}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_schedule::{committed_queues, ps_interaction_points, RecomputePolicy, Schedule};

    /// The runtime constants must match the PS interaction points
    /// extracted from real committed op streams — the same material
    /// the lookahead certificate is proven over.
    #[test]
    fn plan_matches_extracted_interaction_points() {
        let wsp = WspParams::new(4, 1);
        let plan = SyncPlan::derive(wsp);
        for schedule in Schedule::ALL {
            let queues = committed_queues(schedule, 4, wsp, RecomputePolicy::None, 40);
            let pts = ps_interaction_points(&queues);
            assert!(!pts.gates.is_empty(), "{schedule:?} has gates");
            for g in &pts.gates {
                plan.check_gate(g.wave, g.forwards_before)
                    .unwrap_or_else(|e| panic!("{schedule:?}: {e}"));
            }
            for p in &pts.pushes {
                plan.check_push(p.wave, p.backwards_before)
                    .unwrap_or_else(|e| panic!("{schedule:?}: {e}"));
            }
        }
    }

    #[test]
    fn off_by_one_gate_is_caught_and_named() {
        let plan = SyncPlan::derive(WspParams::new(4, 0));
        let err = plan
            .check_gate(2, plan.gate_point(2) + 1)
            .expect_err("off-by-one must be rejected");
        assert!(err.contains("gate(wave 2)"), "names the wave: {err}");
        assert!(
            err.contains(&plan.gate_point(2).to_string()),
            "names the certified position: {err}"
        );
    }
}
