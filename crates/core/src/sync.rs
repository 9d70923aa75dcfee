//! Synchronization models and the WSP staleness algebra.
//!
//! The clock/staleness algebra itself ([`WspParams`]) lives in
//! `hetpipe-schedule` — schedule op streams compile the start gate into
//! explicit `PullGate` ops — and is re-exported here for backwards
//! compatibility. This module keeps the taxonomy of synchronization
//! models the reproduction covers. The executor models the parameter
//! server's WSP gate itself (`min_clock` over every VW's push clock),
//! the only cross-VW coupling in a run.

use std::fmt;

pub use hetpipe_schedule::WspParams;

/// Parameter-synchronization models supported by the reproduction.
///
/// The core simulator executes WSP (of which `D = 0` is the paper's
/// "BSP-like" configuration); the real threaded trainer in
/// `hetpipe-train` additionally implements classic BSP, SSP, and ASP
/// for convergence baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncModel {
    /// Bulk Synchronous Parallel: barrier after every minibatch.
    Bsp,
    /// Asynchronous Parallel: no coordination (no convergence bound).
    Asp,
    /// Stale Synchronous Parallel with the given staleness threshold.
    Ssp(usize),
    /// Wave Synchronous Parallel with clock-distance bound `D`.
    Wsp(usize),
}

impl fmt::Display for SyncModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncModel::Bsp => write!(f, "BSP"),
            SyncModel::Asp => write!(f, "ASP"),
            SyncModel::Ssp(s) => write!(f, "SSP(s={s})"),
            SyncModel::Wsp(d) => write!(f, "WSP(D={d})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_model_display() {
        assert_eq!(SyncModel::Wsp(4).to_string(), "WSP(D=4)");
        assert_eq!(SyncModel::Ssp(3).to_string(), "SSP(s=3)");
        assert_eq!(SyncModel::Bsp.to_string(), "BSP");
        assert_eq!(SyncModel::Asp.to_string(), "ASP");
    }

    #[test]
    fn wsp_params_reexported() {
        // The algebra moved to hetpipe-schedule; the old path keeps
        // working.
        let w = WspParams::new(4, 0);
        assert_eq!(w.s_global(), 6);
    }
}
