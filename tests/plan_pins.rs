//! Plan pins: a committed digest of every plan the system builder
//! chooses on the plan-sweep matrix.
//!
//! The matrix is the `plan-sweep` benchmark workload's 128
//! configurations ([`plan_sweep_matrix`]): the Table-4 GPU sets `4[V]`,
//! `8[VR]`, `12[VRQ]` and `16[VRQG]` × {VGG-19, ResNet-152} × {ED, NP} × the
//! four schedules it names (wave, fill-drain, 1F1B, composite
//! interleaved with 2 chunks) × recompute {none, boundary-only}, all
//! with the default shard placement and order search on.
//!
//! Each cell's [`HetPipeSystem::build`] result feeds one FNV-1a digest:
//! the common `Nm`, then per virtual worker its stage devices, layer
//! ranges, `stage_secs` bits and `bottleneck_secs` bits (a failed build
//! feeds its error message). A planner refactor must leave the digest
//! unchanged; update [`MATRIX_DIGEST`] only for a deliberate change of
//! the chosen plans.
//!
//! Tier: dynamically audited (it pins the outcome of these 128 builds).

use hetpipe::core::{Fnv, HetPipeSystem};
use hetpipe_bench::plan_sweep_matrix;

/// The digest of the 128 builds (see the module docs).
const MATRIX_DIGEST: u64 = 0x85d6_4be7_6b97_c400;

/// Feeds `v` to `h` as eight little-endian bytes.
fn word(h: &mut Fnv, v: u64) {
    h.mix_bytes(&v.to_le_bytes());
}

#[test]
fn plan_sweep_matrix_plans_are_pinned() {
    let cells = plan_sweep_matrix();
    assert_eq!(cells.len(), 128);
    let mut h = Fnv::default();
    let mut built = 0;
    for (cluster, graph, config) in &cells {
        match HetPipeSystem::build(cluster, graph, config) {
            Ok(sys) => {
                built += 1;
                word(&mut h, sys.nm() as u64);
                for vw in sys.virtual_workers() {
                    word(&mut h, vw.devices.len() as u64);
                    for d in &vw.devices {
                        word(&mut h, d.0 as u64);
                    }
                    for r in &vw.plan.ranges {
                        word(&mut h, r.start as u64);
                        word(&mut h, r.end as u64);
                    }
                    for s in &vw.plan.stage_secs {
                        word(&mut h, s.to_bits());
                    }
                    word(&mut h, vw.plan.bottleneck_secs.to_bits());
                }
            }
            Err(e) => h.mix_bytes(format!("{e}\n").as_bytes()),
        }
    }
    assert!(built > 0, "an all-failed matrix proves nothing");
    assert_eq!(
        h.0, MATRIX_DIGEST,
        "plan-sweep matrix digest moved ({built} of 128 cells built): 0x{:016x}",
        h.0
    );
}
