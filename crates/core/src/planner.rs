//! The virtual-worker planner, and the two rules that choose `Nm` from
//! what it plans.
//!
//! A [`Planner`] keeps one [`NmSweep`] per planning instance (stage
//! GPU kinds, links and derates) with the plans it has produced, so a
//! repeated request sweeps nothing and a larger limit continues the
//! sweep where it stopped. [`HetPipeSystem::build`](crate::HetPipeSystem::build)
//! holds one per build with nominal derates, and the runtime controller
//! one per run, so kind- and derate-identical virtual workers share one
//! sweep and a recovery reads the prefixes earlier splices swept.
//!
//! The planner owns one [`LayerTable`], and every sweep it starts reads
//! its rows there: a GPU kind's prefix rows (one pair per derate) and a
//! link kind's comm rows are built once per planner, whatever the
//! instance, `Nm` or memory mode. The table lives and dies with the
//! planner.

use crate::vw::VirtualWorker;
use hetpipe_cluster::network::LinkKind;
use hetpipe_cluster::{Cluster, DeviceId, GpuKind};
use hetpipe_model::ModelGraph;
use hetpipe_partition::{LayerTable, NmSweep, PartitionPlan};
use hetpipe_schedule::{PipelineSchedule, RecomputePolicy, Schedule};
use std::collections::hash_map::{Entry, HashMap};

#[cfg(test)]
thread_local! {
    /// This thread's (instances created, `Nm` solves) — test
    /// instrumentation only: tests run in parallel, so each reads its
    /// own thread's counts.
    pub(crate) static SWEEPS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// One planning instance: the stage GPU kinds, the inter-stage links
/// and the bits of each stage's derate (clamped to at least 1). Graph,
/// schedule and recompute policy are fixed for one planner.
type InstanceKey = (Vec<GpuKind>, Vec<LinkKind>, Vec<u64>);

/// A memo of [`NmSweep`] prefixes over one cluster, model, schedule and
/// recompute policy (see the module docs).
#[derive(Debug)]
pub struct Planner<'a> {
    cluster: &'a Cluster,
    schedule: Schedule,
    recompute: RecomputePolicy,
    /// The rows every sweep of this planner reads.
    table: LayerTable<'a>,
    /// Each instance's plans at `Nm = 1, 2, …`, and its sweep until
    /// that meets its first infeasible `Nm`.
    instances: HashMap<InstanceKey, (Vec<PartitionPlan>, Option<NmSweep<'a>>)>,
}

impl<'a> Planner<'a> {
    /// An empty planner.
    pub fn new(
        cluster: &'a Cluster,
        graph: &'a ModelGraph,
        schedule: Schedule,
        recompute: RecomputePolicy,
    ) -> Self {
        Planner {
            cluster,
            schedule,
            recompute,
            table: LayerTable::new(graph),
            instances: HashMap::new(),
        }
    }

    /// The stage devices of a pipeline over the physical `gpus`: an
    /// interleaved schedule's virtual stages repeat them round-robin
    /// (virtual stage `s` runs on `gpus[s % gpus.len()]`).
    pub fn stages(&self, gpus: &[DeviceId]) -> Vec<DeviceId> {
        let k = self.schedule.virtual_stages(gpus.len());
        (0..k).map(|s| gpus[s % gpus.len()]).collect()
    }

    /// The plans of the stage `devices` with stage `q`'s GPU derated by
    /// `derate[q]` ([`hetpipe_cluster::gpu::GpuSpec::derated`]; ratios
    /// below 1 count as 1) at `Nm = 1, 2, …` up to the first infeasible
    /// `Nm` or `limit`. Entry `m − 1` is [`NmSweep::feasible_prefix`]'s,
    /// the cold [`hetpipe_partition::PartitionSolver::solve`] plan at
    /// `Nm = m`; empty when even `Nm = 1` is infeasible.
    pub fn prefix(
        &mut self,
        devices: &[DeviceId],
        derate: &[f64],
        limit: usize,
    ) -> &[PartitionPlan] {
        assert_eq!(devices.len(), derate.len(), "one derate per stage device");
        let (schedule, recompute) = (self.schedule, self.recompute);
        let kinds = devices.iter().map(|&d| self.cluster.kind_of(d)).collect();
        let bits = derate.iter().map(|r| r.max(1.0).to_bits()).collect();
        let key = (kinds, VirtualWorker::links(self.cluster, devices), bits);
        let (plans, sweep) = match self.instances.entry(key) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(new) => {
                #[cfg(test)]
                SWEEPS.with(|s| s.set((s.get().0 + 1, s.get().1)));
                let (kinds, links, bits) = new.key();
                let gpus: Vec<_> = (kinds.iter().zip(bits))
                    .map(|(kind, &r)| kind.spec().derated(f64::from_bits(r)))
                    .collect();
                let sweep = NmSweep::with_table(&mut self.table, &gpus, links, schedule, recompute);
                new.insert((Vec::new(), Some(sweep)))
            }
        };
        while plans.len() < limit {
            let Some(active) = sweep else { break };
            #[cfg(test)]
            SWEEPS.with(|s| s.set((s.get().0, s.get().1 + 1)));
            match active.solve(plans.len() + 1) {
                Ok(plan) => plans.push(plan),
                Err(_) => *sweep = None,
            }
        }
        &plans[..limit.min(plans.len())]
    }

    /// The row pairs this planner's [`LayerTable`] has built
    /// ([`LayerTable::row_builds`]).
    pub(crate) fn row_builds(&self) -> (usize, usize) {
        self.table.row_builds()
    }

    /// Virtual worker `index` over the physical `gpus` at nominal speed
    /// and `nm`, its stage devices from [`Planner::stages`] and its plan
    /// from [`Planner::prefix`]; `None` when that prefix stops short of
    /// `nm`.
    pub fn worker(&mut self, index: usize, gpus: &[DeviceId], nm: usize) -> Option<VirtualWorker> {
        let devices = self.stages(gpus);
        let plan = self
            .prefix(&devices, &vec![1.0; devices.len()], nm)
            .get(nm.checked_sub(1)?)?;
        Some(VirtualWorker {
            index,
            plan: plan.clone(),
            devices,
            nm,
        })
    }
}

/// The analytic pipeline rate of `plan` at `nm`,
/// min(1/bottleneck, Nm/latency) minibatches per second. It is the
/// build's order-scan proxy score and its `Nm` objective.
pub(crate) fn pipeline_rate(plan: &PartitionPlan, nm: usize) -> f64 {
    let latency: f64 = plan.stage_secs.iter().sum();
    (1.0 / plan.bottleneck_secs).min(nm as f64 / latency)
}

/// The build's `Nm` over the virtual workers' prefixes: `Nm` is common
/// to all VWs (Section 4) and "set such that performance is maximized"
/// (Section 8.3). Every `Nm` up to the shortest prefix is a candidate;
/// under the distance-D bound the slowest VW paces the system, so the
/// estimate is `N` × the slowest VW's `pipeline_rate`, and the first
/// best `Nm` wins (1 when a prefix is empty).
pub fn build_nm(prefixes: &[Vec<PartitionPlan>]) -> usize {
    let mut best = (1usize, 0.0f64);
    for nm in 1..=replan_nm(prefixes) {
        let slowest = (prefixes.iter())
            .map(|p| pipeline_rate(&p[nm - 1], nm))
            .fold(f64::INFINITY, f64::min);
        if slowest > best.1 {
            best = (nm, slowest);
        }
    }
    best.0
}

/// A runtime replan's `Nm` over the virtual workers' prefixes, each
/// read up to the replan's ceiling: the highest `Nm` every VW holds,
/// the shortest prefix's length. A running pipeline stays as deep as
/// its memory and the ceiling allow; 0 (some VW holds no `Nm`) keeps
/// the old configuration.
pub fn replan_nm(prefixes: &[Vec<PartitionPlan>]) -> usize {
    prefixes.iter().map(Vec::len).min().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every answer equals a fresh sweep, a repeated request sweeps
    /// nothing, each `Nm` is solved once, and distinct derates are
    /// distinct instances: four and three RTX 2060s (memory-bound)
    /// under interleaved 1F1B, nominal and with the first GPU slowed,
    /// asked in an order that grows, shrinks and repeats the limit.
    #[test]
    fn every_answer_is_a_fresh_sweep_and_repeats_sweep_nothing() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let schedule = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let recompute = RecomputePolicy::None;
        let mut planner = Planner::new(&cluster, &graph, schedule, recompute);
        let gggg = planner.stages(&[8, 9, 10, 11].map(DeviceId));
        let ggg = planner.stages(&[8, 9, 10].map(DeviceId));
        let slowed = |n| {
            (0..n)
                .map(|s| if s == 0 { 1.5 } else { 1.0 })
                .collect::<Vec<_>>()
        };
        let requests = [
            (&gggg, vec![1.0; 8]),
            (&gggg, slowed(8)),
            (&ggg, vec![1.0; 6]),
            (&ggg, slowed(6)),
        ];
        let (mut solves, mut max_m) = ([0; 4], [None; 4]);
        for (step, limit) in [3, 1, 6, 6, 20, 2, 20, 9].into_iter().enumerate() {
            for i in [step % 4, (step + 1) % 4] {
                let (devices, derate) = &requests[i];
                let gpus: Vec<_> = (devices.iter().zip(derate))
                    .map(|(&d, &r)| cluster.spec_of(d).derated(r))
                    .collect();
                let links = VirtualWorker::links(&cluster, devices);
                let fresh =
                    NmSweep::new(&graph, &gpus, &links, schedule, recompute).feasible_prefix(limit);
                if fresh.len() < limit {
                    max_m[i] = Some(fresh.len());
                }
                SWEEPS.with(|s| s.set((0, 0)));
                assert_eq!(
                    planner.prefix(devices, derate, limit),
                    fresh,
                    "request {i}, limit {limit}"
                );
                let (created, solved) = SWEEPS.with(|s| s.replace((0, 0)));
                assert_eq!(created, (solves[i] == 0) as u64, "request {i}");
                solves[i] += solved;
                assert!(planner.prefix(devices, derate, limit) == fresh);
                assert_eq!(SWEEPS.get(), (0, 0), "a repeated request sweeps nothing");
            }
        }
        assert_eq!(planner.instances.len(), 4);
        for i in 0..4 {
            // Each Nm up to the first infeasible one, solved once.
            assert_eq!(
                max_m[i].map(|m| m as u64 + 1),
                Some(solves[i]),
                "request {i}"
            );
        }
    }

    /// A derated GPU gets a prefix-row pair of its own, keyed by the
    /// derate's bits, and nothing else is rebuilt: after the nominal
    /// prefix of an ED group (one GPU of each kind, InfiniBand links),
    /// a request with one stage ×1.5 adds exactly one row pair, and
    /// repeating it, or derating that GPU's other virtual stage by the
    /// same factor, adds none.
    #[test]
    fn a_derate_adds_one_prefix_row_pair() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::resnet152(32);
        let schedule = Schedule::Interleaved1F1B {
            chunks: 2,
            composite: true,
        };
        let mut planner = Planner::new(&cluster, &graph, schedule, RecomputePolicy::None);
        let devices = planner.stages(&[0, 4, 8, 12].map(DeviceId));
        assert!(!planner.prefix(&devices, &[1.0; 8], 3).is_empty());
        assert_eq!(planner.row_builds(), (4, 1));
        let slowed = |stages: &[usize]| {
            (0..8)
                .map(|s| if stages.contains(&s) { 1.5 } else { 1.0 })
                .collect::<Vec<_>>()
        };
        planner.prefix(&devices, &slowed(&[0]), 3);
        assert_eq!(planner.row_builds(), (5, 1));
        planner.prefix(&devices, &slowed(&[0]), 3);
        planner.prefix(&devices, &slowed(&[0, 4]), 3);
        assert_eq!(planner.row_builds(), (5, 1));
    }
}
