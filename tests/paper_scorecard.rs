//! The paper scorecard's deterministic claims (simulator and Theorem 1)
//! at reduced horizons: every qualitative ordering must hold. The
//! trainer claims stay out of tier 1; `tests/convergence.rs`
//! covers the trainer there. `tests/end_to_end.rs` pins the end-to-end
//! claims one by one with their thresholds.

use hetpipe_bench::scorecard::{deterministic_claims, failures, Claim, Horizons};
use std::sync::OnceLock;

fn claims() -> &'static [Claim] {
    static CLAIMS: OnceLock<Vec<Claim>> = OnceLock::new();
    CLAIMS.get_or_init(|| deterministic_claims(&Horizons::REDUCED))
}

#[test]
fn every_deterministic_ordering_holds() {
    let failed = failures(claims());
    assert!(failed.is_empty(), "failed orderings: {failed:#?}");
}

#[test]
fn ids_are_unique_and_every_row_is_sourced() {
    let mut ids: Vec<&str> = claims().iter().map(|c| c.id.as_str()).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicate claim ids");
    assert!(claims()
        .iter()
        .all(|c| !c.source.is_empty() && c.trainer.is_none()));
}
