//! Planner/executor cost agreement over the plan-sweep matrix.
//!
//! The planner charges a stage its compute, its incoming transfers and
//! its task overheads ([`StageCostModel`]); the executor reserves the
//! same work as forward, backward and recompute tasks
//! ([`exec::planned_stage_secs`]) and activation sends
//! ([`exec::send_secs`]). Two pieces of code compute one cost model, so
//! for every stage of every plan [`HetPipeSystem::build`] chooses on the
//! 128-cell matrix ([`plan_sweep_matrix`]):
//!
//! - the planner's comm charge equals, bit for bit, the executor's
//!   nominal seconds of the forward send into the stage plus those of
//!   the gradient send into it (what the executor rounds to `SimTime`);
//! - its compute-plus-overhead charge lies within 1e-12 relative of the
//!   executor's planned forward + backward (+ recompute) seconds, before
//!   rounding: the planner sums prefix rows of forward + backward
//!   times, the executor sums each pass on its own;
//! - the plan's `stage_secs` equals a one-off cost model's stage time,
//!   bit for bit, so the build's shared layer table and a fresh one
//!   agree.
//!
//! Tier: dynamically audited (the plans of these 128 builds).

use hetpipe::core::exec;
use hetpipe::core::{HetPipeSystem, PipelineSchedule, VirtualWorker};
use hetpipe::model::profile::STAGE_TASK_OVERHEAD_SECS;
use hetpipe::partition::{PartitionProblem, StageCostModel};
use hetpipe_bench::plan_sweep_matrix;

#[test]
fn planner_and_executor_charge_every_stage_alike() {
    let (mut stages, mut worst) = (0, 0.0_f64);
    for (cluster, graph, config) in &plan_sweep_matrix() {
        let Ok(sys) = HetPipeSystem::build(cluster, graph, config) else {
            continue;
        };
        let (nm, vws) = (sys.nm(), sys.virtual_workers());
        let (fwd, bwd) = exec::planned_stage_secs(cluster, graph, vws);
        for (v, vw) in vws.iter().enumerate() {
            let cell = format!(
                "{} GPUs {} {} {} {} vw{v}",
                cluster.device_count(),
                graph.name,
                config.policy.name(),
                config.schedule,
                config.recompute
            );
            let gpus = vw.devices.iter().map(|&d| cluster.spec_of(d)).collect();
            let links = VirtualWorker::links(cluster, &vw.devices);
            let problem = PartitionProblem::with_schedule(graph, gpus, links, nm, config.schedule)
                .with_recompute(config.recompute);
            let model = StageCostModel::new(&problem);
            let k = vw.stages();
            for (q, range) in vw.plan.ranges.iter().enumerate() {
                let at = format!("{cell} stage {q} {range:?}");
                assert_eq!(
                    vw.plan.stage_secs[q].to_bits(),
                    model.stage_secs(q, range.clone()).to_bits(),
                    "{at}: plan vs a one-off cost model"
                );
                let sent_in = if q > 0 {
                    exec::send_secs(cluster, graph, vw, q - 1, false)
                } else {
                    0.0
                };
                let sent_back = if q + 1 < k {
                    exec::send_secs(cluster, graph, vw, q + 1, true)
                } else {
                    0.0
                };
                assert_eq!(
                    model.comm_secs(q, range.clone()).to_bits(),
                    (sent_in + sent_back).to_bits(),
                    "{at}: comm"
                );
                let recomputes = config.schedule.recomputes_at(q, k, nm, config.recompute);
                let mut planned =
                    model.compute_secs(q, range.clone()) + 2.0 * STAGE_TASK_OVERHEAD_SECS;
                let mut executed = fwd[v][q] + bwd[v][q];
                if recomputes {
                    planned += model.forward_secs(q, range.clone()) + STAGE_TASK_OVERHEAD_SECS;
                    executed += fwd[v][q];
                }
                let deviation = ((planned - executed) / executed).abs();
                assert!(
                    deviation <= 1e-12,
                    "{at}: compute {planned:e} vs {executed:e} ({deviation:e})"
                );
                worst = worst.max(deviation);
                stages += 1;
            }
        }
    }
    eprintln!("{stages} stages; largest relative compute deviation {worst:e}");
    assert!(stages > 1_000, "only {stages} stages checked");
}
