//! The paper's headline scenario: training a model that is *too large*
//! for your GPUs, by aggregating whimpy GPUs into virtual workers.
//!
//! ResNet-152 at batch 32 does not fit a 6 GB GeForce RTX 2060, so
//! data-parallel training on a G-only cluster is impossible. HetPipe
//! partitions the model across four G GPUs per virtual worker and
//! trains anyway — and adding those whimpy GPUs to a bigger cluster
//! increases throughput (Table 4).
//!
//! Run with: `cargo run --release --example whimpy_cluster`

use hetpipe::cluster::{Cluster, GpuKind};
use hetpipe::prelude::*;

fn main() {
    let model = resnet152(32);

    // 1. A cluster of nothing but 6 GB RTX 2060s.
    let whimpy = Cluster::testbed_subset(&[GpuKind::Rtx2060]);
    println!("== G-only cluster (4x GeForce RTX 2060, 6 GB each) ==");
    match HorovodBaseline::evaluate_all(&whimpy, &model) {
        Ok(_) => println!("Horovod: unexpectedly feasible?!"),
        Err(e) => println!("Horovod: IMPOSSIBLE ({e})"),
    }
    let config = SystemConfig {
        policy: AllocationPolicy::Custom(vec![whimpy.devices().collect()]),
        placement: Placement::Local,
        staleness_bound: 0,
        ..SystemConfig::default()
    };
    let sys = HetPipeSystem::build(&whimpy, &model, &config)
        .expect("pipelined model parallelism fits where data parallelism cannot");
    let report = sys.run_with_stats(SimTime::from_secs(60.0)).0;
    println!(
        "HetPipe (1 virtual worker, 4-stage pipeline, Nm = {}): {:.0} images/s",
        sys.nm(),
        report.throughput_images_per_sec()
    );

    // 2. Incrementally adding the old nodes to the new TITAN V node
    //    (the Table-4 sweep).
    println!("\n== Adding whimpy GPUs to a TITAN V node (ED-local) ==");
    use GpuKind::*;
    let sets: [(&str, Vec<GpuKind>); 4] = [
        ("4[V]", vec![TitanV]),
        ("8[VR]", vec![TitanV, TitanRtx]),
        ("12[VRQ]", vec![TitanV, TitanRtx, QuadroP4000]),
        ("16[VRQG]", vec![TitanV, TitanRtx, QuadroP4000, Rtx2060]),
    ];
    let mut first = None;
    for (label, kinds) in sets {
        let cluster = Cluster::testbed_subset(&kinds);
        let policy = if cluster.node_count() == 1 {
            AllocationPolicy::Custom(vec![cluster.devices().collect()])
        } else {
            AllocationPolicy::EqualDistribution
        };
        let config = SystemConfig {
            policy,
            placement: Placement::Local,
            staleness_bound: 0,
            ..SystemConfig::default()
        };
        let sys = HetPipeSystem::build(&cluster, &model, &config).expect("builds");
        let ips = sys
            .run_with_stats(SimTime::from_secs(60.0))
            .0
            .throughput_images_per_sec();
        let base = *first.get_or_insert(ips);
        println!(
            "  {label:9} -> {ips:5.0} images/s ({:.2}x vs 4[V])",
            ips / base
        );
    }
    println!("\nOld GPUs that cannot train alone still buy real throughput when aggregated.");
}
