//! Quickstart: train VGG-19 on the paper's 16-GPU heterogeneous
//! testbed with HetPipe (ED-local, D = 0) and compare against the
//! Horovod baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use hetpipe::prelude::*;

fn main() {
    // The paper's testbed: 4 nodes x 4 GPUs (TITAN V / TITAN RTX /
    // GeForce RTX 2060 / Quadro P4000), PCIe inside nodes, InfiniBand
    // between them.
    let cluster = Cluster::paper_testbed();
    let model = vgg19(32);
    println!(
        "model: {} ({:.0} MiB parameters, {} partitionable units)",
        model.name,
        model.total_param_bytes() as f64 / (1024.0 * 1024.0),
        model.len()
    );

    // Assemble HetPipe: Equal-Distribution allocation (one GPU of each
    // kind per virtual worker), local parameter placement, BSP-like
    // synchronization (D = 0).
    let config = SystemConfig {
        policy: AllocationPolicy::EqualDistribution,
        placement: Placement::Local,
        staleness_bound: 0,
        ..SystemConfig::default()
    };
    let system = HetPipeSystem::build(&cluster, &model, &config).expect("feasible configuration");
    println!("virtual workers: {}", system.virtual_workers().len());
    println!("pipeline concurrency Nm = {}", system.nm());
    for vw in system.virtual_workers() {
        println!(
            "  VW{} [{}]: stages {:?}, bottleneck {:.1} ms",
            vw.index,
            vw.label(&cluster),
            vw.plan.ranges,
            vw.plan.bottleneck_secs * 1e3
        );
    }

    // Simulate one minute of training.
    let report = system.run_with_stats(SimTime::from_secs(60.0)).0;
    println!(
        "\nHetPipe ED-local: {:.0} images/s ({:.2} minibatches/s)",
        report.throughput_images_per_sec(),
        report.throughput_minibatches_per_sec()
    );

    // The baseline every figure compares against.
    let horovod = HorovodBaseline::evaluate_all(&cluster, &model).expect("VGG-19 fits every GPU");
    println!(
        "Horovod ({} GPUs):  {:.0} images/s",
        horovod.devices.len(),
        horovod.images_per_sec
    );
    println!(
        "speedup: {:.2}x",
        report.throughput_images_per_sec() / horovod.images_per_sec
    );
}
