//! Exhaustive staleness verification of the WSP algebra.
//!
//! `tests/staleness_props.rs` (tier 1) *samples* the staleness
//! properties at a handful of minibatches. This module upgrades that
//! to a proof for small configurations: the WSP algebra
//! ([`hetpipe_schedule::WspParams`]) is checked at **every** minibatch
//! of a horizon that covers the full warmup plus several steady-state
//! waves, and the affine structure of the formulas is then used as an
//! induction step — [`StalenessProof::shift_invariant`] certifies
//! `f(p + Nm) = f(p) + 1` across the whole horizon, so the exhaustive
//! window extends to all minibatches: every later minibatch is a
//! wave-shift of one already checked.
//!
//! Three verifiers:
//!
//! - [`verify_wsp_bound`] — `required_wave` really is the paper's
//!   Section-5 start condition: checked against its *defining*
//!   properties (coverage and minimality of the required wave, and the
//!   `s_global` miss-count bound), not against its own formula.
//! - [`verify_version_rule`] — a generic freshness judgment: any
//!   "which weight version does minibatch `p` read" rule is checked
//!   against `required_wave` at every horizon minibatch. The 2BW
//!   double-buffering rule passes; tests feed it a deliberately
//!   broken rule (one wave staler) and watch it fail.
//! - [`interleaved_chunk_versions`] — groundwork for the ROADMAP's
//!   "extra weight versions for interleaved" item: under per-chunk 2BW
//!   double buffering, every virtual stage of an interleaved schedule
//!   pins at most one extra version, and the rule stays
//!   staleness-sound; the report quantifies the savings against the
//!   current per-in-flight-minibatch `w_p` stashing.

use hetpipe_schedule::{PipelineSchedule, Schedule, WspParams};

/// A staleness certificate: the exhaustively checked window plus the
/// shift-induction witness extending it to all minibatches.
#[derive(Debug, Clone, Copy)]
pub struct StalenessProof {
    /// `Nm` of the checked configuration.
    pub nm: usize,
    /// `D` of the checked configuration.
    pub d: usize,
    /// Every minibatch `1..=horizon` was checked.
    pub horizon: u64,
    /// `f(p + Nm) = f(p) + 1` held across the horizon — the induction
    /// step that extends the finite check to all minibatches.
    pub shift_invariant: bool,
}

/// The horizon that makes the finite check complete: full warmup
/// (`s_global + 1` ungated minibatches) plus `D + 3` further waves, so
/// every phase of the `Nm`-periodic steady state and every boundary
/// case is visited.
fn horizon(wsp: WspParams) -> u64 {
    wsp.s_global() as u64 + ((wsp.d + 3) * wsp.nm) as u64 + 2
}

/// Proves `required_wave` is the Section-5 start condition on the
/// exhaustive horizon: for every minibatch `p`,
///
/// 1. **coverage** — the required wave covers all global updates
///    through `q = p − (s_global + 1)`;
/// 2. **minimality** — no earlier wave does (the gate never demands
///    more synchronization than the bound needs);
/// 3. **bound** — the updates `p` may miss when gated exactly at the
///    required wave number at most `s_global`;
/// 4. **shift invariance** — `required_wave(p + Nm)` is one wave
///    later, the induction step.
pub fn verify_wsp_bound(wsp: WspParams) -> Result<StalenessProof, String> {
    let sg = wsp.s_global() as u64;
    let h = horizon(wsp);
    let mut shift_invariant = true;
    for p in 1..=h {
        match wsp.required_wave(p) {
            None => {
                // Ungated: sound only while missing every prior update
                // still respects the bound.
                if p > sg + 1 {
                    return Err(format!(
                        "required_wave({p}) is None but p > s_global + 1 = {} — \
                         the start condition is unenforced",
                        sg + 1
                    ));
                }
            }
            Some(w) => {
                let q = p - sg - 1;
                if wsp.last_of_wave(w) < q {
                    return Err(format!(
                        "required_wave({p}) = {w} does not cover minibatch {q} \
                         (wave ends at {})",
                        wsp.last_of_wave(w)
                    ));
                }
                if w > 0 && wsp.last_of_wave(w - 1) >= q {
                    return Err(format!(
                        "required_wave({p}) = {w} is not minimal: wave {} already \
                         covers minibatch {q}",
                        w - 1
                    ));
                }
                // Gated exactly at wave w, p misses the updates of
                // minibatches last_of_wave(w)+1 ..= p−1.
                let missed = (p - 1).saturating_sub(wsp.last_of_wave(w));
                if missed > sg {
                    return Err(format!(
                        "minibatch {p} gated at wave {w} misses {missed} updates, \
                         exceeding s_global = {sg}"
                    ));
                }
            }
        }
        // Induction step: one wave later, one wave staler.
        let shifted = wsp.required_wave(p + wsp.nm as u64);
        let expect = match wsp.required_wave(p) {
            Some(w) => Some(w + 1),
            // Crossing the warmup boundary is the one place the +1
            // pattern starts rather than continues.
            None => wsp.required_wave(p + wsp.nm as u64),
        };
        if shifted != expect {
            shift_invariant = false;
        }
    }
    Ok(StalenessProof {
        nm: wsp.nm,
        d: wsp.d,
        horizon: h,
        shift_invariant,
    })
}

/// Checks an arbitrary weight-version rule — `rule(p)` = the wave
/// index whose updates minibatch `p` computes on (−1 = the initial
/// weights) — against the WSP start condition on the exhaustive
/// horizon:
///
/// 1. **freshness** — `rule(p)` is at least `required_wave(p)`: the
///    version is never staler than the bound permits;
/// 2. **causality** — `rule(p)` is a wave that has *closed* before `p`
///    starts (`rule(p) < wave_of(p)`): a minibatch cannot read updates
///    that include itself;
/// 3. **shift invariance** — `rule(p + Nm) = rule(p) + 1`.
pub fn verify_version_rule(
    wsp: WspParams,
    rule: impl Fn(u64) -> i64,
) -> Result<StalenessProof, String> {
    let h = horizon(wsp);
    let mut shift_invariant = true;
    for p in 1..=h {
        let v = rule(p);
        if let Some(required) = wsp.required_wave(p) {
            if v < required as i64 {
                return Err(format!(
                    "version rule reads wave {v} at minibatch {p}, staler than \
                     required wave {required}"
                ));
            }
        }
        if v >= wsp.wave_of(p) as i64 {
            return Err(format!(
                "version rule reads wave {v} at minibatch {p}, but only waves \
                 before {} have closed",
                wsp.wave_of(p)
            ));
        }
        if rule(p + wsp.nm as u64) != v + 1 {
            shift_invariant = false;
        }
    }
    Ok(StalenessProof {
        nm: wsp.nm,
        d: wsp.d,
        horizon: h,
        shift_invariant,
    })
}

/// Per-stage weight-version demand of an interleaved configuration
/// under per-chunk 2BW double buffering, with the staleness-soundness
/// verdict (groundwork for extending `extra_weight_versions` to the
/// interleaved schedules).
#[derive(Debug, Clone)]
pub struct ChunkVersionDemand {
    /// Chunks per GPU.
    pub chunks: usize,
    /// Extra weight versions per virtual stage under per-chunk 2BW
    /// (at most 1 each: the previous buffer).
    pub per_stage_two_bw: Vec<u64>,
    /// Extra versions per virtual stage under the schedule's current
    /// `w_p` stashing contract (one per extra in-flight minibatch).
    pub per_stage_wp: Vec<u64>,
    /// Summed savings of 2BW over `w_p` stashing, in weight copies.
    pub versions_saved: u64,
    /// The 2BW version rule passed [`verify_version_rule`] for this
    /// configuration (exhaustive + shift-invariant).
    pub proof: StalenessProof,
}

/// Computes the interleaved per-stage version demand under per-chunk
/// 2BW and proves the rule staleness-sound. The 2BW version rule is
/// chunk-independent — every chunk of wave `c` reads the buffer wave
/// `c − 1` closed — so one exhaustive check covers all virtual
/// stages; what varies per stage is only how many *extra* copies are
/// pinned (1 where the stage's 1F1B window exceeds 1, else 0).
pub fn interleaved_chunk_versions(
    sched: Schedule,
    k_gpus: usize,
    wsp: WspParams,
) -> Result<ChunkVersionDemand, String> {
    let k = sched.virtual_stages(k_gpus);
    let chunks = sched.colocated_stages();
    let per_stage_two_bw: Vec<u64> = (0..k)
        .map(|s| (sched.max_in_flight(s, k, wsp.nm) > 1) as u64)
        .collect();
    // The historical `w_p` baseline: one stashed injection-time copy
    // per extra in-flight minibatch. Computed explicitly (not via
    // `extra_weight_versions`) because the interleaved schedules'
    // *declared* accounting now uses the per-chunk 2BW rule this very
    // analysis proved sound — the demand report keeps quantifying the
    // saving against what HetPipe's Section-4 stashing would charge.
    let per_stage_wp: Vec<u64> = (0..k)
        .map(|s| sched.max_in_flight(s, k, wsp.nm).saturating_sub(1) as u64)
        .collect();
    let versions_saved = per_stage_wp
        .iter()
        .zip(&per_stage_two_bw)
        .map(|(wp, bw)| wp.saturating_sub(*bw))
        .sum();
    let proof = verify_version_rule(wsp, |p| wsp.two_bw_version(p))?;
    Ok(ChunkVersionDemand {
        chunks,
        per_stage_two_bw,
        per_stage_wp,
        versions_saved,
        proof,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs() -> Vec<WspParams> {
        let mut v = Vec::new();
        for nm in [1usize, 2, 3, 4, 8] {
            for d in [0usize, 1, 2, 4] {
                v.push(WspParams::new(nm, d));
            }
        }
        v
    }

    #[test]
    fn wsp_bound_proven_on_all_small_configs() {
        for wsp in configs() {
            let proof =
                verify_wsp_bound(wsp).unwrap_or_else(|e| panic!("nm={}, d={}: {e}", wsp.nm, wsp.d));
            assert!(
                proof.shift_invariant,
                "nm={}, d={}: required_wave must be wave-shift invariant",
                wsp.nm, wsp.d
            );
            assert!(proof.horizon > wsp.s_global() as u64 + wsp.nm as u64);
        }
    }

    #[test]
    fn two_bw_rule_is_staleness_sound() {
        for wsp in configs() {
            let proof = verify_version_rule(wsp, |p| wsp.two_bw_version(p))
                .unwrap_or_else(|e| panic!("nm={}, d={}: {e}", wsp.nm, wsp.d));
            assert!(proof.shift_invariant, "nm={}, d={}", wsp.nm, wsp.d);
        }
    }

    #[test]
    fn broken_version_rules_are_rejected() {
        let wsp = WspParams::new(4, 0);
        // One wave staler than 2BW: violates freshness once gates
        // start demanding waves.
        let err = verify_version_rule(wsp, |p| wsp.two_bw_version(p) - 1).unwrap_err();
        assert!(err.contains("staler than required wave"), "{err}");
        // Reading the own (still-open) wave: violates causality.
        let err = verify_version_rule(wsp, |p| wsp.wave_of(p) as i64).unwrap_err();
        assert!(err.contains("have closed"), "{err}");
    }

    #[test]
    fn interleaved_two_bw_demand_is_one_version_per_busy_stage() {
        let sched = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let wsp = WspParams::new(4, 0);
        let demand = interleaved_chunk_versions(sched, 4, wsp).unwrap();
        assert_eq!(demand.chunks, 2);
        assert_eq!(demand.per_stage_two_bw.len(), 8);
        // Every stage with window > 1 pins exactly one extra version;
        // the deepest stage (window 1) pins none.
        assert!(demand.per_stage_two_bw.iter().all(|&v| v <= 1));
        assert_eq!(*demand.per_stage_two_bw.last().unwrap(), 0);
        // w_p stashing pins window−1 versions — strictly more wherever
        // the window exceeds 2.
        assert!(
            demand.versions_saved > 0,
            "2BW must save versions on an 8-deep interleaved pipeline"
        );
        assert!(demand.proof.shift_invariant);
    }
}
