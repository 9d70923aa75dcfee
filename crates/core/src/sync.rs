//! The WSP staleness algebra.
//!
//! The clock/staleness algebra itself ([`WspParams`]) lives in
//! `hetpipe-schedule` — schedule op streams compile the start gate into
//! explicit `PullGate` ops — and is re-exported here for backwards
//! compatibility. The executor models the parameter server's WSP gate
//! itself (`min_clock` over every VW's push clock), the only cross-VW
//! coupling in a run.

pub use hetpipe_schedule::WspParams;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wsp_params_reexported() {
        // The algebra moved to hetpipe-schedule; the old path keeps
        // working.
        let w = WspParams::new(4, 0);
        assert_eq!(w.s_global(), 6);
    }
}
