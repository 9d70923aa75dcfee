//! Explore the heterogeneity- and memory-aware partitioner.
//!
//! Shows, for a mixed VRGQ virtual worker, how the min-max partitioner
//! assigns layers to GPUs of different speeds, how per-stage memory
//! limits bite as the pipeline concurrency `Nm` grows (`Max_m`), and
//! how stage order matters for heterogeneous GPUs.
//!
//! Run with: `cargo run --release --example partition_explorer`

use hetpipe::cluster::{GpuKind, LinkKind};
use hetpipe::model::memory::nm_saturation_limit;
use hetpipe::partition::{max_feasible_nm_with, PartitionProblem, PartitionSolver};
use hetpipe::prelude::*;
use hetpipe::schedule::RecomputePolicy;

fn main() {
    let graph = resnet152(32);
    println!(
        "{}: {} partitionable units, {:.0} MiB parameters\n",
        graph.name,
        graph.len(),
        graph.total_param_bytes() as f64 / (1024.0 * 1024.0)
    );

    // A mixed virtual worker: one GPU of each kind, fastest first.
    let gpus: Vec<_> = GpuKind::ALL.iter().map(|k| k.spec()).collect();
    let links = vec![LinkKind::Pcie; 3];

    println!("== Min-max partition for [V, R, G, Q], Nm = 1 ==");
    let problem = PartitionProblem::new(&graph, gpus.clone(), links.clone(), 1);
    let plan = PartitionSolver::solve(&problem).expect("feasible");
    for (q, (range, secs)) in plan.ranges.iter().zip(&plan.stage_secs).enumerate() {
        println!(
            "  stage {q} on {:<16}: units {:>2}..{:<2} ({:>2} units) -> {:.1} ms",
            gpus[q].name,
            range.start,
            range.end,
            range.len(),
            secs * 1e3
        );
    }
    println!(
        "  bottleneck {:.1} ms -> pipeline upper bound {:.1} minibatches/s",
        plan.bottleneck_secs * 1e3,
        plan.minibatches_per_sec()
    );

    println!("\n== Max_m: memory caps pipeline depth ==");
    for kinds in [[GpuKind::Rtx2060; 4], [GpuKind::TitanRtx; 4]] {
        let gpus: Vec<_> = kinds.iter().map(|k| k.spec()).collect();
        let limit = nm_saturation_limit(4);
        let (wave, none) = (Schedule::HetPipeWave, RecomputePolicy::None);
        match max_feasible_nm_with(&graph, &gpus, &links, limit, wave, none) {
            Some((maxm, _)) => println!(
                "  4x {:<16}: Max_m = {maxm} (pipeline saturates at {limit})",
                gpus[0].name
            ),
            None => println!("  4x {:<16}: infeasible even at Nm = 1", gpus[0].name),
        }
    }

    println!("\n== Stage order matters for heterogeneous VWs ==");
    let natural = PartitionSolver::solve(&PartitionProblem::new(
        &graph,
        gpus.clone(),
        links.clone(),
        4,
    ));
    let reversed: Vec<_> = gpus.iter().rev().cloned().collect();
    let rev = PartitionSolver::solve(&PartitionProblem::new(&graph, reversed, links, 4));
    match (natural, rev) {
        (Ok(a), Ok(b)) => println!(
            "  V,R,G,Q order: {:.1} ms bottleneck;  Q,G,R,V order: {:.1} ms",
            a.bottleneck_secs * 1e3,
            b.bottleneck_secs * 1e3
        ),
        (a, b) => println!(
            "  feasibility differs by order: {:?} vs {:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}
