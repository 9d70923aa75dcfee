//! VW-isolation certificates: the footprint pass that proves virtual
//! workers interact *only* through parameter-server push/gate.
//!
//! Splitting a simulation into one DES engine per virtual worker is
//! sound iff no dependency edge carries information between VWs except
//! the WSP push→gate coupling — a claim this pass proves per
//! configuration instead of assuming. No engine is split that way: the
//! executor runs every VW on one event queue, and the certificate is a
//! static property of the schedules.
//!
//! Every node of the dependency graph ([`crate::graph::dependency_graph`])
//! gets a declared footprint in the [`hetpipe_des::footprint`]
//! vocabulary from a [`FootprintModel`]; then every edge is judged:
//!
//! 1. **Explained**: the endpoints' footprints must conflict (flow,
//!    output, or anti dependence on some shared resource). An edge the
//!    footprints cannot explain means an event class *under-declares*
//!    what it touches — the exact bug that would let a per-VW engine
//!    reorder two ops the executor serializes.
//! 2. **Isolated**: when the endpoints belong to different VWs, the
//!    edge must be the WSP [`EdgeKind::Wsp`] push→gate coupling and
//!    every shared resource must be owned by the parameter server.
//!    Anything else is a *cross-VW leak* — a dependence the per-VW
//!    engines would not synchronize on.
//!
//! A green run emits an [`IsolationCertificate`] (edge counts by
//! class); a violation names both endpoint ops and the violation
//! class, so broken fixtures read like counterexamples, not booleans.
//! [`verify_script_isolation`] extends the certificate over a fault
//! script's rate edges: they must be environment-owned writes, which
//! is what makes replicating a script onto every fleet cell sound.

use crate::graph::{dependency_graph, DepGraphData, DepNode, EdgeKind};
use hetpipe_des::footprint::{Footprint, FootprintResource, Owner};
use hetpipe_schedule::{
    committed_queues, CommittedQueue, PipelineSchedule, RecomputePolicy, Schedule, WspParams,
};

/// The two ways an edge can refute the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationViolationClass {
    /// A dependence between different VWs that is not the PS
    /// push→gate coupling (or that shares a non-PS-owned resource).
    CrossVwLeak,
    /// An edge the declared footprints cannot explain: some event
    /// class under-declares the state it touches.
    UnderDeclaredFootprint,
}

impl std::fmt::Display for IsolationViolationClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsolationViolationClass::CrossVwLeak => write!(f, "cross-VW leak"),
            IsolationViolationClass::UnderDeclaredFootprint => {
                write!(f, "under-declared footprint")
            }
        }
    }
}

/// A named counterexample: the offending edge, by op label.
#[derive(Debug, Clone)]
pub struct IsolationViolation {
    /// Which rule the edge broke.
    pub class: IsolationViolationClass,
    /// Source op label.
    pub from: String,
    /// Target op label.
    pub to: String,
    /// What went wrong, in terms of the shared resources.
    pub detail: String,
}

impl std::fmt::Display for IsolationViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: edge {} → {}: {}",
            self.class, self.from, self.to, self.detail
        )
    }
}

impl std::error::Error for IsolationViolation {}

/// A machine-checked isolation certificate for one configuration:
/// every dependency edge is footprint-explained, and every cross-VW
/// edge is PS push→gate.
#[derive(Debug, Clone)]
pub struct IsolationCertificate {
    /// Ops judged (all virtual workers).
    pub nodes: usize,
    /// Edges judged.
    pub edges: usize,
    /// Edges crossing VWs — all proven to be PS push→gate couplings.
    pub cross_vw_edges: usize,
    /// Virtual workers in the mirrored graph.
    pub vws: usize,
    /// Fault-script rate edges composed into the certificate by
    /// [`verify_script_isolation`] (0 for the fault-free certificate).
    pub fault_edges: usize,
}

/// Assigns declared footprints to dependency-graph nodes for one
/// schedule shape.
#[derive(Debug, Clone, Copy)]
pub struct FootprintModel {
    /// Virtual stages.
    pub k: usize,
    /// `Some(k_gpus)` for composite schedules, whose program order
    /// serializes on physical GPUs (co-located chunks share one
    /// execution unit); `None` for per-stage execution units.
    pub gpus: Option<usize>,
}

impl FootprintModel {
    /// The execution unit hosting `stage` — what program-order edges
    /// serialize on.
    fn unit(&self, stage: usize) -> usize {
        match self.gpus {
            Some(g) => stage % g,
            None => stage,
        }
    }

    fn fwd(&self, vw: usize, stage: usize) -> Footprint {
        let mut reads = vec![FootprintResource::Weights { vw, stage }];
        if stage > 0 {
            reads.push(FootprintResource::Boundary {
                vw,
                stage: stage - 1,
            });
        }
        let mut writes = vec![
            FootprintResource::ExecUnit {
                vw,
                unit: self.unit(stage),
            },
            FootprintResource::Activations { vw, stage },
        ];
        if stage + 1 < self.k {
            writes.push(FootprintResource::Boundary { vw, stage });
        }
        Footprint { reads, writes }
    }

    fn bwd(&self, vw: usize, stage: usize) -> Footprint {
        let mut reads = vec![
            FootprintResource::Activations { vw, stage },
            FootprintResource::Weights { vw, stage },
        ];
        if stage + 1 < self.k {
            reads.push(FootprintResource::Boundary { vw, stage });
        }
        let mut writes = vec![
            FootprintResource::ExecUnit {
                vw,
                unit: self.unit(stage),
            },
            FootprintResource::Activations { vw, stage },
            FootprintResource::Weights { vw, stage },
        ];
        if stage > 0 {
            writes.push(FootprintResource::Boundary {
                vw,
                stage: stage - 1,
            });
        }
        Footprint { reads, writes }
    }

    /// The declared footprint of one dependency-graph node.
    pub fn footprint_of(&self, node: DepNode) -> Footprint {
        match node {
            // Forward: consumes the boundary activations from below,
            // reads the stage weights, fills the stash, produces the
            // boundary output.
            DepNode::Fwd { vw, stage, .. } => self.fwd(vw, stage),
            // Backward: drains the stash, consumes the boundary
            // gradient from above, accumulates into the weights,
            // produces the boundary gradient below.
            DepNode::Bwd { vw, stage, .. } => self.bwd(vw, stage),
            // Fused forward+backward: the union of both roles.
            DepNode::Fused { vw, stage, .. } => {
                let f = self.fwd(vw, stage);
                let b = self.bwd(vw, stage);
                let mut reads = f.reads;
                for r in b.reads {
                    if !reads.contains(&r) {
                        reads.push(r);
                    }
                }
                let mut writes = f.writes;
                for w in b.writes {
                    if !writes.contains(&w) {
                        writes.push(w);
                    }
                }
                Footprint { reads, writes }
            }
            // Recompute: re-runs the stage forward off the (stashed)
            // boundary input to rebuild the activation stash.
            DepNode::Rec { vw, stage, .. } => {
                let mut reads = vec![FootprintResource::Weights { vw, stage }];
                if stage > 0 {
                    reads.push(FootprintResource::Boundary {
                        vw,
                        stage: stage - 1,
                    });
                }
                Footprint {
                    reads,
                    writes: vec![
                        FootprintResource::ExecUnit {
                            vw,
                            unit: self.unit(stage),
                        },
                        FootprintResource::Activations { vw, stage },
                    ],
                }
            }
            // Push: publishes the wave's aggregated update — built
            // from every stage's accumulated gradients — to the PS
            // wave cell. Runs on the stage-0 unit's timeline.
            DepNode::Push { vw, wave } => Footprint {
                reads: (0..self.k)
                    .map(|stage| FootprintResource::Weights { vw, stage })
                    .collect(),
                writes: vec![
                    FootprintResource::PsWave { wave },
                    FootprintResource::ExecUnit {
                        vw,
                        unit: self.unit(0),
                    },
                ],
            },
            // Gate: blocks on the PS wave cell, then refreshes every
            // stage's weights with the pulled global version.
            DepNode::Gate { vw, wave } => Footprint {
                reads: vec![FootprintResource::PsWave { wave }],
                writes: (0..self.k)
                    .map(|stage| FootprintResource::Weights { vw, stage })
                    .chain(std::iter::once(FootprintResource::ExecUnit {
                        vw,
                        unit: self.unit(0),
                    }))
                    .collect(),
            },
        }
    }
}

/// Judges every edge of `graph` against footprints from `footprint_of`
/// — the raw layer under [`verify_isolation`], parameterized over the
/// footprint assignment so tests can feed it deliberately
/// under-declared models and watch the missing dependence get named.
pub fn verify_isolation_with(
    graph: &DepGraphData,
    footprint_of: impl Fn(DepNode) -> Footprint,
) -> Result<IsolationCertificate, IsolationViolation> {
    let vws = graph
        .nodes
        .iter()
        .map(|n| n.vw() + 1)
        .max()
        .unwrap_or(0)
        .max(1);
    let footprints: Vec<Footprint> = graph.nodes.iter().map(|&n| footprint_of(n)).collect();
    let mut cross = 0usize;
    for edge in &graph.edges {
        let (from, to) = (graph.nodes[edge.from], graph.nodes[edge.to]);
        let shared = footprints[edge.from].conflicts_with(&footprints[edge.to]);
        if shared.is_empty() {
            return Err(IsolationViolation {
                class: IsolationViolationClass::UnderDeclaredFootprint,
                from: graph.labels[edge.from].clone(),
                to: graph.labels[edge.to].clone(),
                detail: format!(
                    "the committed structure orders these ops ({:?} edge) but their \
                     declared footprints share no resource — some event class \
                     under-declares what it touches",
                    edge.kind
                ),
            });
        }
        if from.vw() != to.vw() {
            cross += 1;
            let shape_ok = edge.kind == EdgeKind::Wsp
                && matches!(from, DepNode::Push { .. })
                && matches!(to, DepNode::Gate { .. });
            let ps_only = shared.iter().all(|r| r.owner() == Owner::ParameterServer);
            if !shape_ok || !ps_only {
                let named: Vec<String> = shared.iter().map(|r| r.to_string()).collect();
                return Err(IsolationViolation {
                    class: IsolationViolationClass::CrossVwLeak,
                    from: graph.labels[edge.from].clone(),
                    to: graph.labels[edge.to].clone(),
                    detail: format!(
                        "a {:?} dependence crosses VW{} → VW{} outside the PS push→gate \
                         coupling (shared: {})",
                        edge.kind,
                        from.vw(),
                        to.vw(),
                        named.join(", ")
                    ),
                });
            }
        }
    }
    Ok(IsolationCertificate {
        nodes: graph.nodes.len(),
        edges: graph.edges.len(),
        cross_vw_edges: cross,
        vws,
        fault_edges: 0,
    })
}

/// Judges every edge of `graph` against the standard [`FootprintModel`].
pub fn verify_isolation(
    graph: &DepGraphData,
    model: FootprintModel,
) -> Result<IsolationCertificate, IsolationViolation> {
    verify_isolation_with(graph, |n| model.footprint_of(n))
}

/// End-to-end VW-isolation certificate for one configuration: extracts
/// `sched`'s committed queues, mirrors them across `vws` WSP-coupled
/// virtual workers, builds the dependency graph, and proves every edge
/// footprint-explained with cross-VW traffic confined to PS push→gate.
pub fn verify_vw_isolation(
    sched: Schedule,
    k_gpus: usize,
    wsp: WspParams,
    recompute: RecomputePolicy,
    max_mb: u64,
    vws: usize,
) -> Result<IsolationCertificate, IsolationViolation> {
    let k = sched.virtual_stages(k_gpus);
    let queues = committed_queues(sched, k_gpus, wsp, recompute, max_mb);
    let queue_sets: Vec<Vec<CommittedQueue>> = vec![queues; vws.max(1)];
    let graph = dependency_graph(&queue_sets, k, wsp);
    let model = FootprintModel {
        k,
        gpus: sched
            .gpu_streams_with(k_gpus, wsp, recompute)
            .is_some()
            .then_some(k_gpus),
    };
    verify_isolation(&graph, model)
}

/// Composes a fault script's rate-edge footprints into `cert`: every
/// edge must be a write to an environment-owned rate register (and
/// read nothing), which proves the script is disjoint from all VW and
/// PS state — replicating it onto every VW's resources leaves the
/// dependency DAG untouched. Returns the certificate with
/// `fault_edges` counted.
pub fn verify_script_isolation(
    cert: IsolationCertificate,
    script_name: &str,
    edge_footprints: &[Footprint],
) -> Result<IsolationCertificate, IsolationViolation> {
    for (i, fp) in edge_footprints.iter().enumerate() {
        let offending = fp
            .touches()
            .find(|r| r.owner() != Owner::External)
            .map(|r| r.to_string());
        let reads = !fp.reads.is_empty();
        if offending.is_some() || reads {
            return Err(IsolationViolation {
                class: IsolationViolationClass::CrossVwLeak,
                from: format!("fault script '{script_name}' edge {i}"),
                to: "VW/PS state".into(),
                detail: match offending {
                    Some(r) => format!("a rate edge touches non-environment state ({r})"),
                    None => "a rate edge declares reads — rate edges must be \
                             write-only retunes"
                        .into(),
                },
            });
        }
    }
    Ok(IsolationCertificate {
        fault_edges: cert.fault_edges + edge_footprints.len(),
        ..cert
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepEdge;
    use hetpipe_schedule::Schedule;

    fn graph_for(sched: Schedule, vws: usize) -> (DepGraphData, FootprintModel) {
        let k_gpus = 4;
        let wsp = WspParams::new(4, 0);
        let recompute = RecomputePolicy::None;
        let k = sched.virtual_stages(k_gpus);
        let queues = committed_queues(sched, k_gpus, wsp, recompute, 24);
        let sets: Vec<Vec<CommittedQueue>> = vec![queues; vws];
        let model = FootprintModel {
            k,
            gpus: sched
                .gpu_streams_with(k_gpus, wsp, recompute)
                .is_some()
                .then_some(k_gpus),
        };
        (dependency_graph(&sets, k, wsp), model)
    }

    #[test]
    fn every_schedule_is_isolated() {
        for sched in Schedule::ALL {
            for recompute in RecomputePolicy::ALL {
                let cert = verify_vw_isolation(sched, 4, WspParams::new(4, 1), recompute, 24, 3)
                    .unwrap_or_else(|v| panic!("{}: {v}", sched.name()));
                assert!(cert.nodes > 0);
                assert!(cert.edges > 0);
                assert_eq!(cert.vws, 3);
                assert!(
                    cert.cross_vw_edges > 0,
                    "{}: WSP coupling must appear",
                    sched.name()
                );
                assert_eq!(cert.fault_edges, 0);
            }
        }
    }

    #[test]
    fn cross_vw_edges_scale_with_worker_count() {
        // Each gate has one push edge per *other* VW (its own push is
        // same-VW): cross edges = gates × (vws − 1).
        let (g2, m) = graph_for(Schedule::OneFOneB, 2);
        let (g3, _) = graph_for(Schedule::OneFOneB, 3);
        let c2 = verify_isolation(&g2, m).unwrap();
        let c3 = verify_isolation(&g3, m).unwrap();
        let gates2 = g2
            .nodes
            .iter()
            .filter(|n| matches!(n, DepNode::Gate { .. }))
            .count();
        let gates3 = g3
            .nodes
            .iter()
            .filter(|n| matches!(n, DepNode::Gate { .. }))
            .count();
        assert_eq!(c2.cross_vw_edges, gates2);
        assert_eq!(c3.cross_vw_edges, gates3 * 2);
    }

    #[test]
    fn smuggled_cross_vw_data_edge_is_named() {
        let (mut graph, model) = graph_for(Schedule::OneFOneB, 2);
        // Smuggle a direct dependence from vw0's forward to vw1's
        // backward of the same (stage, mb) — the kind of edge a buggy
        // shared-buffer optimization would introduce.
        let from = graph
            .nodes
            .iter()
            .position(|n| {
                matches!(
                    n,
                    DepNode::Fwd {
                        vw: 0,
                        stage: 1,
                        mb: 3
                    }
                )
            })
            .unwrap();
        let to = graph
            .nodes
            .iter()
            .position(|n| {
                matches!(
                    n,
                    DepNode::Bwd {
                        vw: 1,
                        stage: 1,
                        mb: 3
                    }
                )
            })
            .unwrap();
        graph.edges.push(DepEdge {
            from,
            to,
            kind: EdgeKind::Data,
        });
        // With honest footprints the endpoints share nothing (VW-keyed
        // resources differ), so the edge is unexplained…
        let err = verify_isolation(&graph, model).unwrap_err();
        assert_eq!(err.class, IsolationViolationClass::UnderDeclaredFootprint);
        // …and if a footprint model *did* declare the shared buffer
        // (vw0's activations readable by vw1), the leak is caught by
        // the cross-VW rule and named.
        let err = verify_isolation_with(&graph, |n| {
            let mut fp = model.footprint_of(n);
            if matches!(
                n,
                DepNode::Bwd {
                    vw: 1,
                    stage: 1,
                    mb: 3
                }
            ) {
                fp.reads
                    .push(FootprintResource::Activations { vw: 0, stage: 1 });
            }
            fp
        })
        .unwrap_err();
        assert_eq!(err.class, IsolationViolationClass::CrossVwLeak);
        assert!(err.from.contains("vw0 s1 fwd mb3"), "{err}");
        assert!(err.to.contains("vw1 s1 bwd mb3"), "{err}");
        assert!(err.detail.contains("vw0 activations s1"), "{err}");
    }

    #[test]
    fn under_declared_footprint_is_named() {
        let (graph, model) = graph_for(Schedule::OneFOneB, 1);
        // Forget that forwards produce their boundary output: the
        // Fwd(s−1) → Fwd(s) data edge loses its explanation.
        let err = verify_isolation_with(&graph, |n| {
            let mut fp = model.footprint_of(n);
            if matches!(n, DepNode::Fwd { .. }) {
                fp.writes
                    .retain(|r| !matches!(r, FootprintResource::Boundary { .. }));
                fp.reads
                    .retain(|r| !matches!(r, FootprintResource::Boundary { .. }));
            }
            fp
        })
        .unwrap_err();
        assert_eq!(err.class, IsolationViolationClass::UnderDeclaredFootprint);
        assert!(err.detail.contains("under-declares"), "{err}");
        assert!(err.from.contains("fwd"), "{err}");
    }

    #[test]
    fn script_isolation_composes_and_refutes() {
        let (graph, model) = graph_for(Schedule::OneFOneB, 2);
        let cert = verify_isolation(&graph, model).unwrap();
        // Honest rate edges compose.
        let rate = Footprint {
            reads: vec![],
            writes: vec![FootprintResource::Rate {
                kind: hetpipe_des::footprint::RateKind::Gpu,
                index: 1,
            }],
        };
        let cert = verify_script_isolation(cert, "straggler", &[rate.clone(), rate]).unwrap();
        assert_eq!(cert.fault_edges, 2);
        // A "fault" that writes a VW's weights is refuted by name.
        let evil = Footprint {
            reads: vec![],
            writes: vec![FootprintResource::Weights { vw: 0, stage: 0 }],
        };
        let err = verify_script_isolation(cert, "evil", &[evil]).unwrap_err();
        assert_eq!(err.class, IsolationViolationClass::CrossVwLeak);
        assert!(err.detail.contains("vw0 weights s0"), "{err}");
    }
}
