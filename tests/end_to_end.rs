//! End-to-end integration tests: the paper's qualitative results must
//! hold on the assembled system (cluster -> allocation -> partitioning
//! -> pipelined simulation -> report). Each assertion is a paper
//! scorecard claim, pinned here with its threshold and evaluated at
//! [`Horizons::REDUCED`] (25 s policy runs, 20 s report runs) with the
//! paper's fixed GPU-to-stage assignment.

use hetpipe_bench::scorecard::{deterministic_claims, Claim, Cmp, Horizons, Kind};
use std::sync::OnceLock;
use Cmp::{Ge, Gt, Le, Lt};

fn claims() -> &'static [Claim] {
    static CLAIMS: OnceLock<Vec<Claim>> = OnceLock::new();
    CLAIMS.get_or_init(|| deterministic_claims(&Horizons::REDUCED))
}

/// Each claim `id` must exist, be the ordering `simulated cmp bound`
/// and hold.
fn check(expected: &[(&str, Cmp, f64)]) {
    for &(id, cmp, bound) in expected {
        let claim = claims()
            .iter()
            .find(|c| c.id == id)
            .unwrap_or_else(|| panic!("no claim {id}"));
        assert_eq!(claim.kind, Kind::Ordering(cmp, bound), "{id}");
        assert!(claim.holds(), "{claim:?}");
    }
}

/// At the paper's `Nm`: only ED-local beats Horovod for VGG-19, local
/// placement helps, and NP is the slowest policy.
#[test]
fn figure4_vgg_orderings() {
    check(&[
        ("fig4.vgg19.ed_local_over_horovod", Gt, 1.0),
        ("fig4.vgg19.ed_over_horovod", Lt, 1.0),
        ("fig4.vgg19.np_over_horovod", Lt, 1.0),
        ("fig4.vgg19.hd_over_horovod", Lt, 1.0),
        ("fig4.vgg19.ed_local_over_ed", Gt, 1.0),
        ("fig4.vgg19.np_over_ed_local", Lt, 1.0),
    ]);
}

/// NP is straggler-bound and loses to Horovod; ED-local wins, and local
/// placement helps ResNet-152 too.
#[test]
fn figure4_resnet_orderings() {
    check(&[
        ("fig4.resnet152.np_over_horovod", Lt, 1.0),
        ("fig4.resnet152.ed_local_over_horovod", Gt, 1.0),
        ("fig4.resnet152.ed_local_over_ed", Gt, 1.0),
    ]);
}

#[test]
fn table4_hetpipe_beats_horovod_at_every_rung() {
    check(&[
        ("table4.vgg19.8gpu.hetpipe_over_horovod", Gt, 1.0),
        ("table4.vgg19.12gpu.hetpipe_over_horovod", Gt, 1.0),
        ("table4.vgg19.16gpu.hetpipe_over_horovod", Gt, 1.0),
    ]);
}

/// The headline capability: PMP fits what DP cannot.
#[test]
fn resnet_on_g_only_cluster_needs_hetpipe() {
    check(&[
        ("table4.resnet152.g_only.horovod_gpus", Le, 0.0),
        ("table4.resnet152.g_only.hetpipe_ips", Gt, 0.0),
    ]);
}

#[test]
fn larger_d_never_hurts_throughput() {
    check(&[("s8_4.vgg19.np.ips_d4_over_d0", Ge, 0.98)]);
}

/// ED-local keeps sync traffic inside nodes; its activations still
/// cross them.
#[test]
fn ed_local_eliminates_cross_node_sync_traffic() {
    check(&[
        ("report.vgg19.ed_local.sync_bytes_inter", Le, 0.0),
        ("report.vgg19.ed_local.sync_bytes_intra", Gt, 0.0),
        ("report.vgg19.ed_local.act_bytes_inter", Gt, 0.0),
    ]);
}

/// Utilizations lie in `[0, 1.01]` and the bottleneck stage is busy
/// most of the time.
#[test]
fn report_utilizations_are_sane() {
    check(&[
        ("report.resnet152.ed_local.max_gpu_util_busy", Gt, 0.5),
        ("report.resnet152.ed_local.max_gpu_util_in_range", Le, 1.01),
        ("report.resnet152.ed_local.min_gpu_util_in_range", Ge, 0.0),
    ]);
}
