//! The scenario model: faults, leases, and preemptions in one
//! replayable script.
//!
//! A [`ScenarioScript`] is a deterministic description of the hardware
//! misbehaviour HetPipe's whimpy clusters actually exhibit. It mixes
//! two kinds of [`ScenarioEvent`]:
//!
//! - **Faults** ([`ScenarioEvent::Fault`]): GPUs that throttle for a
//!   while ([`Fault::GpuSlowdown`]), links that degrade
//!   ([`Fault::LinkDegrade`]), GPUs that die mid-epoch
//!   ([`Fault::GpuLoss`]) and come back ([`Fault::GpuRecovery`]).
//! - **Leases** ([`ScenarioEvent::GpuGranted`] /
//!   [`ScenarioEvent::GpuPreempted`]): spot-instance GPUs that are
//!   handed to the job, taken back, and handed out again.
//!
//! Both compile to the same substrate: per-resource rate windows,
//! min-composed into service-rate edges
//! ([`hetpipe_core::exec::RateEvent`]) that the executor fires as
//! first-class DES events — a task reserved after an edge is scaled by
//! the new rate. A GPU is *unavailable* while its lease is revoked,
//! and unavailable intervals become rate-0 windows, so a preempted GPU
//! looks exactly like a lost one until its re-grant. What leases add
//! is the **control plane**: [`ScenarioScript::lease_transitions`]
//! exposes the grant/preempt schedule as typed transitions the
//! controller can react to (dropping a preempted GPU at a wave
//! boundary, re-admitting it on re-grant), which pure fault windows —
//! observable only through the trace — cannot express.
//!
//! Scripts are data: canonical instances
//! ([`ScenarioScript::canonical_straggler`],
//! [`ScenarioScript::canonical_gpu_loss`],
//! [`ScenarioScript::canonical_lease`]) anchor the acceptance
//! measurements and CI gates, seeded generators
//! ([`ScenarioScript::seeded`], [`ScenarioScript::chaos`]) cover the
//! space deterministically (same seed ⇒ same script ⇒ same
//! simulation), and JSON round-tripping ([`ScenarioScript::to_json`] /
//! [`ScenarioScript::from_json`]) lets `schedule_compare --faults` and
//! the CI bins load them from files.

use hetpipe_cluster::Cluster;
use hetpipe_core::exec::{RateEvent, RateTarget};
use hetpipe_des::SimTime;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One scripted perturbation, in *global* simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// GPU `gpu` (cluster device index) runs `factor`× slower over
    /// `[from_secs, until_secs)`; `None` means "for the rest of the
    /// run".
    GpuSlowdown {
        /// Cluster device index.
        gpu: usize,
        /// Slowdown factor (≥ 1; 1.3 = 30% slower).
        factor: f64,
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds (`None` = permanent).
        until_secs: Option<f64>,
    },
    /// Node `node`'s NIC serves transfers `factor`× slower over the
    /// window (inter-node traffic only: intra-node PCIe lanes carry no
    /// shared timeline).
    LinkDegrade {
        /// Node index.
        node: usize,
        /// Degradation factor (≥ 1).
        factor: f64,
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds (`None` = permanent).
        until_secs: Option<f64>,
    },
    /// GPU `gpu` dies at `at_secs`: work reserved on it never
    /// completes until a [`Fault::GpuRecovery`] restores it.
    GpuLoss {
        /// Cluster device index.
        gpu: usize,
        /// Failure instant, seconds.
        at_secs: f64,
    },
    /// GPU `gpu` returns to nominal speed at `at_secs`.
    GpuRecovery {
        /// Cluster device index.
        gpu: usize,
        /// Recovery instant, seconds.
        at_secs: f64,
    },
}

impl Fault {
    /// A short human-readable label for trace markers.
    pub fn label(&self) -> String {
        match *self {
            Fault::GpuSlowdown { gpu, factor, .. } => format!("fault: gpu{gpu} x{factor:.2}"),
            Fault::LinkDegrade { node, factor, .. } => format!("fault: nic{node} x{factor:.2}"),
            Fault::GpuLoss { gpu, .. } => format!("fault: gpu{gpu} lost"),
            Fault::GpuRecovery { gpu, .. } => format!("fault: gpu{gpu} recovered"),
        }
    }
}

/// One scripted scenario event, in *global* simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// A perturbation (slowdown, link degrade, loss, recovery) — see
    /// [`Fault`].
    Fault(Fault),
    /// GPU `gpu` (cluster device index) is leased to the job at
    /// `at_secs`. A grant at time 0 states the GPU is part of the
    /// initial lease; a later first grant means the GPU joins a
    /// running job (it is unavailable before it).
    GpuGranted {
        /// Cluster device index.
        gpu: usize,
        /// Grant instant, seconds.
        at_secs: f64,
    },
    /// GPU `gpu`'s lease is revoked at `at_secs`: the device is
    /// unavailable (rate 0) until a later [`ScenarioEvent::GpuGranted`]
    /// returns it.
    GpuPreempted {
        /// Cluster device index.
        gpu: usize,
        /// Preemption instant, seconds.
        at_secs: f64,
    },
}

impl ScenarioEvent {
    /// A short human-readable label for trace markers.
    pub fn label(&self) -> String {
        match self {
            ScenarioEvent::Fault(f) => f.label(),
            ScenarioEvent::GpuGranted { gpu, .. } => format!("lease: gpu{gpu} granted"),
            ScenarioEvent::GpuPreempted { gpu, .. } => format!("lease: gpu{gpu} preempted"),
        }
    }
}

/// One lease-state change: at `at`, GPU `gpu` became available
/// (`true`) or unavailable (`false`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaseTransition {
    /// Global transition instant.
    pub at: SimTime,
    /// Cluster device index.
    pub gpu: usize,
    /// The availability the transition switches *to*.
    pub available: bool,
}

/// One event's effect compiled to a resource key (`(0, i)` = GPU `i`,
/// `(1, i)` = NIC `i`), a closed-open time window (`None` end =
/// open-ended), and the service rate it imposes while active.
type RateWindow = ((u8, usize), SimTime, Option<SimTime>, f64);

/// A named, deterministic sequence of [`ScenarioEvent`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioScript {
    /// Script name (reports, trace markers, CI artifacts).
    pub name: String,
    /// The events, in any order (edges are sorted at compile time).
    pub events: Vec<ScenarioEvent>,
}

impl ScenarioScript {
    /// The empty (zero-scenario) script: running under it must leave
    /// every trace bit-identical to a fault-free run.
    pub fn none() -> ScenarioScript {
        ScenarioScript {
            name: "none".into(),
            events: Vec::new(),
        }
    }

    /// True when the script perturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The canonical straggler: `gpu` throttles to 30% slower
    /// (`×1.3`) from `from_secs` for the rest of the run — the
    /// acceptance scenario of the fault-aware runtime and the
    /// `schedule_compare --faults` perturbation column.
    pub fn canonical_straggler(gpu: usize, from_secs: f64) -> ScenarioScript {
        ScenarioScript {
            name: "canonical-straggler".into(),
            events: vec![ScenarioEvent::Fault(Fault::GpuSlowdown {
                gpu,
                factor: 1.3,
                from_secs,
                until_secs: None,
            })],
        }
    }

    /// The canonical GPU loss: `gpu` dies at `at_secs` and stays dead.
    pub fn canonical_gpu_loss(gpu: usize, at_secs: f64) -> ScenarioScript {
        ScenarioScript {
            name: "canonical-gpu-loss".into(),
            events: vec![ScenarioEvent::Fault(Fault::GpuLoss { gpu, at_secs })],
        }
    }

    /// The canonical lease trace: `gpu` is part of the initial lease,
    /// is preempted at `preempt_secs`, and re-granted at
    /// `regrant_secs` — the acceptance scenario of the elastic
    /// controller (drop at a wave boundary, re-admit on re-grant).
    pub fn canonical_lease(gpu: usize, preempt_secs: f64, regrant_secs: f64) -> ScenarioScript {
        assert!(
            preempt_secs < regrant_secs,
            "re-grant must follow the preemption"
        );
        ScenarioScript {
            name: "canonical-lease".into(),
            events: vec![
                ScenarioEvent::GpuGranted { gpu, at_secs: 0.0 },
                ScenarioEvent::GpuPreempted {
                    gpu,
                    at_secs: preempt_secs,
                },
                ScenarioEvent::GpuGranted {
                    gpu,
                    at_secs: regrant_secs,
                },
            ],
        }
    }

    /// A deterministic seeded fault script: `count` slowdown /
    /// link-degradation windows drawn over `[0, horizon_secs)` across
    /// `gpus` devices and `nodes` NICs. Same seed ⇒ same script ⇒
    /// same simulation, which is what makes perturbed runs replayable.
    pub fn seeded(seed: u64, horizon_secs: f64, gpus: usize, nodes: usize, count: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let from = rng.unit() * horizon_secs * 0.8;
            let len = 0.1 * horizon_secs + rng.unit() * 0.4 * horizon_secs;
            let factor = 1.1 + rng.unit() * 0.9; // ×1.1 .. ×2.0
            let until_secs = Some((from + len).min(horizon_secs));
            let fault = if nodes > 0 && rng.next().is_multiple_of(4) {
                Fault::LinkDegrade {
                    node: (rng.next() % nodes as u64) as usize,
                    factor,
                    from_secs: from,
                    until_secs,
                }
            } else {
                Fault::GpuSlowdown {
                    gpu: (rng.next() % gpus.max(1) as u64) as usize,
                    factor,
                    from_secs: from,
                    until_secs,
                }
            };
            events.push(ScenarioEvent::Fault(fault));
        }
        ScenarioScript {
            name: format!("seeded-{seed}"),
            events,
        }
    }

    /// A deterministic seeded chaos script: `count` events drawn over
    /// `[0, horizon_secs)` mixing slowdown windows, link degradation,
    /// and preempt/re-grant lease pairs across `gpus` devices and
    /// `nodes` NICs. Two liveness invariants are enforced by
    /// construction so every chaos run can be gated on progress:
    /// GPU 0 is never preempted, and preemption windows never leave
    /// fewer than two GPUs available at any instant (a candidate
    /// window that would is skipped). Same seed ⇒ same script.
    pub fn chaos(seed: u64, horizon_secs: f64, gpus: usize, nodes: usize, count: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::with_capacity(count);
        // Closed preemption windows already committed, for the
        // ≥2-available invariant (every preemption here is paired
        // with a re-grant, so intervals are closed).
        let mut outages: Vec<(usize, f64, f64)> = Vec::new();
        for _ in 0..count {
            let from = rng.unit() * horizon_secs * 0.8;
            let len = 0.05 * horizon_secs + rng.unit() * 0.3 * horizon_secs;
            let until = (from + len).min(horizon_secs * 0.95);
            match rng.next() % 4 {
                0 if nodes > 0 => events.push(ScenarioEvent::Fault(Fault::LinkDegrade {
                    node: (rng.next() % nodes as u64) as usize,
                    factor: 1.1 + rng.unit() * 0.9,
                    from_secs: from,
                    until_secs: Some(until),
                })),
                1 if gpus > 1 => {
                    // gpu 0 is exempt: a preemption target in 1..gpus.
                    let gpu = 1 + (rng.next() % (gpus as u64 - 1)) as usize;
                    let overlap =
                        |&(g, f, u): &(usize, f64, f64)| g != gpu && f < until && from < u;
                    let concurrent = outages.iter().filter(|o| overlap(o)).count();
                    // Including this window, `concurrent + 1` GPUs can
                    // be down at once; keep at least 2 of `gpus` up.
                    if gpus >= concurrent + 3 {
                        outages.push((gpu, from, until));
                        events.push(ScenarioEvent::GpuPreempted { gpu, at_secs: from });
                        events.push(ScenarioEvent::GpuGranted {
                            gpu,
                            at_secs: until,
                        });
                    }
                }
                _ => events.push(ScenarioEvent::Fault(Fault::GpuSlowdown {
                    gpu: (rng.next() % gpus.max(1) as u64) as usize,
                    factor: 1.1 + rng.unit() * 0.9,
                    from_secs: from,
                    until_secs: Some(until),
                })),
            }
        }
        ScenarioScript {
            name: format!("chaos-{seed}"),
            events,
        }
    }

    /// Checks every `gpu` and `node` index of the script against
    /// `cluster`: the executor indexes its resources by them, so an
    /// out-of-range device must be rejected before a run.
    pub fn check_devices(&self, cluster: &Cluster) -> Result<(), String> {
        let (gpus, nodes) = (cluster.device_count(), cluster.node_count());
        for e in &self.events {
            let (what, index, count) = match *e {
                ScenarioEvent::Fault(Fault::LinkDegrade { node, .. }) => ("node", node, nodes),
                ScenarioEvent::Fault(
                    Fault::GpuSlowdown { gpu, .. }
                    | Fault::GpuLoss { gpu, .. }
                    | Fault::GpuRecovery { gpu, .. },
                )
                | ScenarioEvent::GpuGranted { gpu, .. }
                | ScenarioEvent::GpuPreempted { gpu, .. } => ("gpu", gpu, gpus),
            };
            if index >= count {
                return Err(format!(
                    "'{}' names {what} {index}, but the cluster has {count} {what}s",
                    e.label()
                ));
            }
        }
        Ok(())
    }

    /// Every lease event of one GPU, sorted by time (preemptions
    /// before grants at the same instant, so a zero-length flap
    /// resolves to "available").
    fn lease_events(&self) -> Vec<(usize, f64, bool)> {
        let mut lease: Vec<(usize, f64, bool)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                ScenarioEvent::GpuGranted { gpu, at_secs } => Some((gpu, at_secs, true)),
                ScenarioEvent::GpuPreempted { gpu, at_secs } => Some((gpu, at_secs, false)),
                ScenarioEvent::Fault(_) => None,
            })
            .collect();
        lease.sort_by(|a, b| {
            (a.0, a.1, a.2)
                .partial_cmp(&(b.0, b.1, b.2))
                .expect("lease times are finite")
        });
        lease
    }

    /// The lease-state changes of the script, sorted by time: GPUs
    /// with no lease events never appear (they are plain cluster
    /// devices, always available). A GPU whose first lease event is a
    /// grant is unavailable before it — so an initial grant at time 0
    /// produces a (vacuous) transition to available at 0, and a GPU
    /// that joins mid-run transitions when it arrives. Duplicate
    /// same-state events collapse: only actual changes are reported.
    pub fn lease_transitions(&self) -> Vec<LeaseTransition> {
        let mut out = Vec::new();
        let mut cur: Option<(usize, bool)> = None; // (gpu, available)
        for (gpu, at, avail) in self.lease_events() {
            let changed = match cur {
                Some((g, a)) if g == gpu => a != avail,
                // First event of this GPU: it was unavailable before a
                // first grant, available before a first preemption.
                _ => true,
            };
            cur = Some((gpu, avail));
            if changed {
                out.push(LeaseTransition {
                    at: SimTime::from_secs(at),
                    gpu,
                    available: avail,
                });
            }
        }
        out.sort_by_key(|t| t.at);
        out
    }

    /// All rate windows of the script. Each slowdown or link fault is
    /// one window at rate `1/factor`; a [`Fault::GpuLoss`] is a
    /// rate-0 window closed by the earliest later
    /// [`Fault::GpuRecovery`] on the same GPU (which itself
    /// contributes no window). Each unavailable lease interval is one
    /// more rate-0 window (a preempted GPU is indistinguishable from
    /// a lost one until its re-grant, and a late-joining GPU is dead
    /// until its first grant).
    fn windows(&self) -> Vec<RateWindow> {
        let slowdown = |key, factor: f64, from_secs, until_secs: Option<f64>| {
            (
                key,
                SimTime::from_secs(from_secs),
                until_secs.map(SimTime::from_secs),
                1.0 / factor.max(1.0),
            )
        };
        let mut windows = Vec::with_capacity(self.events.len());
        for e in &self.events {
            let ScenarioEvent::Fault(fault) = e else {
                continue;
            };
            match *fault {
                Fault::GpuSlowdown {
                    gpu,
                    factor,
                    from_secs,
                    until_secs,
                } => windows.push(slowdown((0u8, gpu), factor, from_secs, until_secs)),
                Fault::LinkDegrade {
                    node,
                    factor,
                    from_secs,
                    until_secs,
                } => windows.push(slowdown((1u8, node), factor, from_secs, until_secs)),
                Fault::GpuLoss { gpu, at_secs } => {
                    let until = self
                        .events
                        .iter()
                        .filter_map(|e| match *e {
                            ScenarioEvent::Fault(Fault::GpuRecovery { gpu: g, at_secs: r })
                                if g == gpu && r > at_secs =>
                            {
                                Some(r)
                            }
                            _ => None,
                        })
                        .reduce(f64::min);
                    windows.push((
                        (0u8, gpu),
                        SimTime::from_secs(at_secs),
                        until.map(SimTime::from_secs),
                        0.0,
                    ));
                }
                Fault::GpuRecovery { .. } => {}
            }
        }
        let mut open: Option<f64> = None; // unavailable since
        let mut cur: Option<(usize, bool)> = None;
        let mut flush = |gpu: usize, open: &mut Option<f64>, until: Option<f64>| {
            if let Some(from) = open.take() {
                windows.push((
                    (0u8, gpu),
                    SimTime::from_secs(from),
                    until.map(SimTime::from_secs),
                    0.0,
                ));
            }
        };
        for (gpu, at, avail) in self.lease_events() {
            if let Some((g, _)) = cur {
                if g != gpu {
                    // Previous GPU's trailing unavailable interval is
                    // open-ended.
                    flush(g, &mut open, None);
                }
            }
            let first = !matches!(cur, Some((g, _)) if g == gpu);
            match (avail, first) {
                // First grant: unavailable from the start of time.
                (true, true) => {
                    if at > 0.0 {
                        open = Some(0.0);
                    }
                    flush(gpu, &mut open, Some(at));
                }
                (true, false) => flush(gpu, &mut open, Some(at)),
                (false, _) => {
                    if open.is_none() {
                        open = Some(at);
                    }
                }
            }
            cur = Some((gpu, avail));
        }
        if let Some((g, _)) = cur {
            flush(g, &mut open, None);
        }
        windows
    }

    /// All effective rate edges of the script, sorted by time. Windows
    /// *compose*: at any instant a resource runs at the **minimum**
    /// rate over all of its active windows (the worst active window
    /// dominates), so a window closing while another is still open
    /// restores the surviving window's rate — never a blanket 1.0 —
    /// and a lost or preempted GPU stays dead until its own recovery
    /// or re-grant even if a slowdown window on it expires in between.
    pub fn edges(&self) -> Vec<(SimTime, RateTarget, f64)> {
        compile_edges(&self.windows())
    }

    /// Compiles the script for a segment starting at global time
    /// `offset`: the rates already in effect at the splice (latest
    /// edge per resource at or before `offset`) and the future edges
    /// rebased to segment-local time.
    pub fn segment_rates(&self, offset: SimTime) -> (Vec<(RateTarget, f64)>, Vec<RateEvent>) {
        split_segment_rates(self.edges(), offset)
    }

    /// Trace markers (global time + label + category) for every event
    /// onset and window end, for chrome-trace instant events.
    pub fn instants(&self) -> Vec<(SimTime, String, &'static str)> {
        let at = SimTime::from_secs;
        let mut out = Vec::with_capacity(self.events.len());
        for e in &self.events {
            match *e {
                ScenarioEvent::Fault(
                    Fault::GpuSlowdown {
                        from_secs,
                        until_secs,
                        ..
                    }
                    | Fault::LinkDegrade {
                        from_secs,
                        until_secs,
                        ..
                    },
                ) => {
                    out.push((at(from_secs), e.label(), "fault"));
                    if let Some(until) = until_secs {
                        out.push((at(until), format!("{} ends", e.label()), "fault"));
                    }
                }
                ScenarioEvent::Fault(
                    Fault::GpuLoss { at_secs, .. } | Fault::GpuRecovery { at_secs, .. },
                ) => out.push((at(at_secs), e.label(), "fault")),
                ScenarioEvent::GpuGranted { at_secs, .. }
                | ScenarioEvent::GpuPreempted { at_secs, .. } => {
                    out.push((at(at_secs), e.label(), "lease"))
                }
            }
        }
        // Same-instant markers: faults before leases, each in script
        // order (the sort is stable).
        out.sort_by_key(|&(t, _, kind)| (t, kind));
        out
    }

    /// Serializes the script as JSON: a `name` and an `events` array.
    pub fn to_json(&self) -> Value {
        let events: Vec<Value> = self.events.iter().map(event_to_json).collect();
        json!({ "name": self.name.clone(), "events": events })
    }

    /// Parses a script from its JSON form. A fault-only document that
    /// lists its events under `faults` instead of `events` is read
    /// the same way. Returns a description of the first problem on
    /// malformed input.
    pub fn from_json(text: &str) -> Result<ScenarioScript, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Value::Object(map) = &value else {
            return Err("scenario script must be a JSON object".into());
        };
        let name = match map.get("name") {
            Some(Value::String(s)) => s.clone(),
            None => "unnamed".into(),
            _ => return Err("'name' must be a string".into()),
        };
        let key = if map.get("events").is_none() && map.get("faults").is_some() {
            "faults"
        } else {
            "events"
        };
        let Some(Value::Array(items)) = map.get(key) else {
            return Err(format!("'{key}' must be an array"));
        };
        let events = items
            .iter()
            .map(event_from_json)
            .collect::<Result<_, _>>()?;
        Ok(ScenarioScript { name, events })
    }
}

/// SplitMix64: a dependency-free generator, stable across platforms —
/// the source of every seeded script.
struct SplitMix64(u64);

impl SplitMix64 {
    const GAMMA: u64 = 0x9e3779b97f4a7c15;

    fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(Self::GAMMA))
    }

    fn next(&mut self) -> u64 {
        let mut z = self.0;
        self.0 = self.0.wrapping_add(Self::GAMMA);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Compiles rate windows to effective rate edges, sorted by time: at
/// every boundary instant of a resource, its rate is the minimum over
/// the windows active there (1.0 when none is), and an edge is emitted
/// only where that rate changes.
fn compile_edges(windows: &[RateWindow]) -> Vec<(SimTime, RateTarget, f64)> {
    // Boundary instants per resource.
    let mut boundaries: BTreeMap<(u8, usize), Vec<SimTime>> = BTreeMap::new();
    for &(key, from, until, _) in windows {
        let b = boundaries.entry(key).or_default();
        b.push(from);
        if let Some(until) = until {
            b.push(until);
        }
    }
    let mut edges = Vec::new();
    for (key, mut times) in boundaries {
        times.sort();
        times.dedup();
        let target = match key {
            (0, i) => RateTarget::Gpu(i),
            (_, i) => RateTarget::Nic(i),
        };
        let mut prev = 1.0f64;
        for t in times {
            let rate = windows
                .iter()
                .filter(|&&(k, from, until, _)| {
                    k == key && from <= t && until.is_none_or(|u| t < u)
                })
                .map(|&(_, _, _, r)| r)
                .fold(1.0f64, f64::min);
            if rate != prev {
                edges.push((t, target, rate));
                prev = rate;
            }
        }
    }
    edges.sort_by_key(|&(at, _, _)| at);
    edges
}

/// Splits compiled edges for a segment starting at global `offset`
/// (see [`ScenarioScript::segment_rates`]).
fn split_segment_rates(
    edges: Vec<(SimTime, RateTarget, f64)>,
    offset: SimTime,
) -> (Vec<(RateTarget, f64)>, Vec<RateEvent>) {
    let mut initial: BTreeMap<(u8, usize), (RateTarget, f64)> = BTreeMap::new();
    let mut future = Vec::new();
    for (at, target, rate) in edges {
        let key = match target {
            RateTarget::Gpu(i) => (0u8, i),
            RateTarget::Nic(i) => (1u8, i),
        };
        if at <= offset {
            initial.insert(key, (target, rate));
        } else {
            future.push(RateEvent {
                at: at - offset,
                target,
                rate,
            });
        }
    }
    (initial.into_values().collect(), future)
}

/// Serializes one event.
fn event_to_json(e: &ScenarioEvent) -> Value {
    let until = |u: Option<f64>| u.map(Value::Number).unwrap_or(Value::Null);
    let instant = |kind: &str, gpu: usize, at: f64| {
        json!({
            "kind": kind,
            "gpu": gpu as u64,
            "at": at,
        })
    };
    match *e {
        ScenarioEvent::Fault(Fault::GpuSlowdown {
            gpu,
            factor,
            from_secs,
            until_secs,
        }) => json!({
            "kind": "gpu-slowdown",
            "gpu": gpu as u64,
            "factor": factor,
            "from": from_secs,
            "until": until(until_secs),
        }),
        ScenarioEvent::Fault(Fault::LinkDegrade {
            node,
            factor,
            from_secs,
            until_secs,
        }) => json!({
            "kind": "link-degrade",
            "node": node as u64,
            "factor": factor,
            "from": from_secs,
            "until": until(until_secs),
        }),
        ScenarioEvent::Fault(Fault::GpuLoss { gpu, at_secs }) => instant("gpu-loss", gpu, at_secs),
        ScenarioEvent::Fault(Fault::GpuRecovery { gpu, at_secs }) => {
            instant("gpu-recovery", gpu, at_secs)
        }
        ScenarioEvent::GpuGranted { gpu, at_secs } => instant("gpu-granted", gpu, at_secs),
        ScenarioEvent::GpuPreempted { gpu, at_secs } => instant("gpu-preempted", gpu, at_secs),
    }
}

/// Parses one event object.
fn event_from_json(item: &Value) -> Result<ScenarioEvent, String> {
    let Value::Object(m) = item else {
        return Err("each event must be an object".into());
    };
    let num = |key: &str| -> Result<f64, String> {
        match m.get(key) {
            Some(Value::Number(n)) => Ok(*n),
            _ => Err(format!("'{key}' must be a number")),
        }
    };
    // A factor below 1 would compile to a rate above nominal — a
    // mistyped script (0.13 for 1.3) must fail loudly, not run
    // unperturbed.
    let factor = || -> Result<f64, String> {
        let f = num("factor")?;
        if f < 1.0 {
            return Err(format!(
                "'factor' must be >= 1 (a x{f} slowdown is a speedup)"
            ));
        }
        Ok(f)
    };
    let idx = |key: &str| -> Result<usize, String> {
        let n = num(key)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("'{key}' must be a non-negative integer"));
        }
        Ok(n as usize)
    };
    // A window that ends at or before its start never activates, so a
    // mistyped `until` would also run unperturbed.
    let window = |event: String| -> Result<(f64, Option<f64>), String> {
        let from = num("from")?;
        let until = match m.get("until") {
            None | Some(Value::Null) => None,
            Some(Value::Number(n)) => Some(*n),
            _ => return Err("'until' must be a number or null".into()),
        };
        if let Some(until) = until.filter(|&u| u <= from) {
            return Err(format!(
                "{event}: 'until' ({until}) must be later than 'from' ({from})"
            ));
        }
        Ok((from, until))
    };
    let kind = match m.get("kind") {
        Some(Value::String(s)) => s.as_str(),
        _ => return Err("each event needs a string 'kind'".into()),
    };
    Ok(match kind {
        "gpu-slowdown" => {
            let gpu = idx("gpu")?;
            let factor = factor()?;
            let (from_secs, until_secs) = window(format!("gpu-slowdown of gpu {gpu}"))?;
            ScenarioEvent::Fault(Fault::GpuSlowdown {
                gpu,
                factor,
                from_secs,
                until_secs,
            })
        }
        "link-degrade" => {
            let node = idx("node")?;
            let factor = factor()?;
            let (from_secs, until_secs) = window(format!("link-degrade of node {node}"))?;
            ScenarioEvent::Fault(Fault::LinkDegrade {
                node,
                factor,
                from_secs,
                until_secs,
            })
        }
        "gpu-loss" => ScenarioEvent::Fault(Fault::GpuLoss {
            gpu: idx("gpu")?,
            at_secs: num("at")?,
        }),
        "gpu-recovery" => ScenarioEvent::Fault(Fault::GpuRecovery {
            gpu: idx("gpu")?,
            at_secs: num("at")?,
        }),
        "gpu-granted" => ScenarioEvent::GpuGranted {
            gpu: idx("gpu")?,
            at_secs: num("at")?,
        },
        "gpu-preempted" => ScenarioEvent::GpuPreempted {
            gpu: idx("gpu")?,
            at_secs: num("at")?,
        },
        other => return Err(format!("unknown event kind '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A script of plain faults.
    fn faults(name: &str, faults: Vec<Fault>) -> ScenarioScript {
        ScenarioScript {
            name: name.into(),
            events: faults.into_iter().map(ScenarioEvent::Fault).collect(),
        }
    }

    #[test]
    fn windows_compile_to_paired_edges() {
        let s = faults(
            "w",
            vec![Fault::GpuSlowdown {
                gpu: 2,
                factor: 2.0,
                from_secs: 1.0,
                until_secs: Some(3.0),
            }],
        );
        let edges = s.edges();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], (SimTime::from_secs(1.0), RateTarget::Gpu(2), 0.5));
        assert_eq!(edges[1], (SimTime::from_secs(3.0), RateTarget::Gpu(2), 1.0));
    }

    #[test]
    fn segment_rates_split_at_offset() {
        let s = faults(
            "w",
            vec![
                Fault::GpuSlowdown {
                    gpu: 0,
                    factor: 1.3,
                    from_secs: 1.0,
                    until_secs: None,
                },
                Fault::GpuLoss {
                    gpu: 1,
                    at_secs: 10.0,
                },
            ],
        );
        let (initial, future) = s.segment_rates(SimTime::from_secs(5.0));
        assert_eq!(initial.len(), 1, "slowdown already in effect");
        assert_eq!(initial[0].0, RateTarget::Gpu(0));
        assert!((initial[0].1 - 1.0 / 1.3).abs() < 1e-12);
        assert_eq!(future.len(), 1, "loss still ahead");
        assert_eq!(
            future[0].at,
            SimTime::from_secs(5.0),
            "rebased to local time"
        );
        assert_eq!(future[0].rate, 0.0);
    }

    #[test]
    fn overlapping_faults_compose_by_min_rate() {
        // A slowdown window expiring while the GPU is lost must NOT
        // revive it; overlapping slowdowns keep the worst active one.
        let s = faults(
            "overlap",
            vec![
                Fault::GpuSlowdown {
                    gpu: 0,
                    factor: 2.0,
                    from_secs: 1.0,
                    until_secs: Some(5.0),
                },
                Fault::GpuLoss {
                    gpu: 0,
                    at_secs: 3.0,
                },
                Fault::GpuRecovery {
                    gpu: 0,
                    at_secs: 8.0,
                },
                // A second, milder slowdown outlasting the first.
                Fault::GpuSlowdown {
                    gpu: 0,
                    factor: 1.25,
                    from_secs: 2.0,
                    until_secs: Some(10.0),
                },
            ],
        );
        let edges = s.edges();
        let expect = vec![
            (SimTime::from_secs(1.0), 0.5), // x2 window opens
            (SimTime::from_secs(3.0), 0.0), // loss dominates
            // 5.0: x2 window ends — GPU stays LOST, no edge emitted.
            (SimTime::from_secs(8.0), 0.8), // recovery -> surviving x1.25
            (SimTime::from_secs(10.0), 1.0), // last window ends
        ];
        assert_eq!(edges.len(), expect.len(), "{edges:?}");
        for ((at, target, rate), (eat, erate)) in edges.iter().zip(&expect) {
            assert_eq!(*target, RateTarget::Gpu(0));
            assert_eq!(at, eat, "{edges:?}");
            assert!((rate - erate).abs() < 1e-12, "{edges:?}");
        }
        // And a loss with no recovery stays dead past every window end.
        let s = faults(
            "dead",
            vec![
                Fault::GpuLoss {
                    gpu: 1,
                    at_secs: 3.0,
                },
                Fault::GpuSlowdown {
                    gpu: 1,
                    factor: 2.0,
                    from_secs: 1.0,
                    until_secs: Some(5.0),
                },
            ],
        );
        let (initial, future) = s.segment_rates(SimTime::from_secs(6.0));
        assert_eq!(initial, vec![(RateTarget::Gpu(1), 0.0)], "still dead");
        assert!(future.is_empty());
    }

    #[test]
    fn canonical_lease_compiles_to_loss_recovery_edges() {
        let s = ScenarioScript::canonical_lease(2, 8.0, 16.0);
        let edges = s.edges();
        // The initial grant at 0 contributes no edge (the GPU is
        // available from the start); the preempt/re-grant pair is a
        // rate-0 window.
        assert_eq!(
            edges,
            vec![
                (SimTime::from_secs(8.0), RateTarget::Gpu(2), 0.0),
                (SimTime::from_secs(16.0), RateTarget::Gpu(2), 1.0),
            ]
        );
        // ...exactly the edges of the equivalent loss/recovery script.
        let f = faults(
            "x",
            vec![
                Fault::GpuLoss {
                    gpu: 2,
                    at_secs: 8.0,
                },
                Fault::GpuRecovery {
                    gpu: 2,
                    at_secs: 16.0,
                },
            ],
        );
        assert_eq!(edges, f.edges());
    }

    #[test]
    fn lease_transitions_collapse_to_state_changes() {
        let s = ScenarioScript::canonical_lease(2, 8.0, 16.0);
        let tr = s.lease_transitions();
        assert_eq!(
            tr,
            vec![
                LeaseTransition {
                    at: SimTime::ZERO,
                    gpu: 2,
                    available: true
                },
                LeaseTransition {
                    at: SimTime::from_secs(8.0),
                    gpu: 2,
                    available: false
                },
                LeaseTransition {
                    at: SimTime::from_secs(16.0),
                    gpu: 2,
                    available: true
                },
            ]
        );
        // A duplicate grant is not a transition.
        let mut dup = s.clone();
        dup.events.push(ScenarioEvent::GpuGranted {
            gpu: 2,
            at_secs: 20.0,
        });
        assert_eq!(dup.lease_transitions(), tr);
    }

    #[test]
    fn late_join_gpu_is_dead_until_first_grant() {
        let s = ScenarioScript {
            name: "join".into(),
            events: vec![ScenarioEvent::GpuGranted {
                gpu: 3,
                at_secs: 12.0,
            }],
        };
        let edges = s.edges();
        assert_eq!(
            edges,
            vec![
                (SimTime::ZERO, RateTarget::Gpu(3), 0.0),
                (SimTime::from_secs(12.0), RateTarget::Gpu(3), 1.0),
            ]
        );
        // A trailing preemption with no re-grant stays dead.
        let s = ScenarioScript {
            name: "gone".into(),
            events: vec![ScenarioEvent::GpuPreempted {
                gpu: 1,
                at_secs: 5.0,
            }],
        };
        let (initial, future) = s.segment_rates(SimTime::from_secs(9.0));
        assert_eq!(initial, vec![(RateTarget::Gpu(1), 0.0)]);
        assert!(future.is_empty());
    }

    #[test]
    fn lease_and_fault_windows_min_compose() {
        // A slowdown expiring while the GPU is preempted must not
        // revive it.
        let s = ScenarioScript {
            name: "mix".into(),
            events: vec![
                ScenarioEvent::Fault(Fault::GpuSlowdown {
                    gpu: 0,
                    factor: 2.0,
                    from_secs: 1.0,
                    until_secs: Some(6.0),
                }),
                ScenarioEvent::GpuPreempted {
                    gpu: 0,
                    at_secs: 3.0,
                },
                ScenarioEvent::GpuGranted {
                    gpu: 0,
                    at_secs: 9.0,
                },
            ],
        };
        let edges = s.edges();
        assert_eq!(
            edges,
            vec![
                (SimTime::from_secs(1.0), RateTarget::Gpu(0), 0.5),
                (SimTime::from_secs(3.0), RateTarget::Gpu(0), 0.0),
                // 6.0: slowdown ends — still preempted, no edge.
                (SimTime::from_secs(9.0), RateTarget::Gpu(0), 1.0),
            ]
        );
    }

    /// One event of every kind.
    fn every_kind() -> ScenarioScript {
        ScenarioScript {
            name: "mix".into(),
            events: vec![
                ScenarioEvent::Fault(Fault::GpuSlowdown {
                    gpu: 1,
                    factor: 1.3,
                    from_secs: 5.0,
                    until_secs: Some(20.0),
                }),
                ScenarioEvent::Fault(Fault::LinkDegrade {
                    node: 0,
                    factor: 2.0,
                    from_secs: 2.0,
                    until_secs: None,
                }),
                ScenarioEvent::Fault(Fault::GpuLoss {
                    gpu: 3,
                    at_secs: 8.0,
                }),
                ScenarioEvent::Fault(Fault::GpuRecovery {
                    gpu: 3,
                    at_secs: 12.0,
                }),
                ScenarioEvent::GpuPreempted {
                    gpu: 2,
                    at_secs: 8.0,
                },
                ScenarioEvent::GpuGranted {
                    gpu: 2,
                    at_secs: 16.0,
                },
            ],
        }
    }

    #[test]
    fn json_rejects_sub_unit_factors() {
        let text = r#"{"name":"typo","faults":[{"kind":"gpu-slowdown","gpu":1,"factor":0.13,"from":5.0}]}"#;
        let err = ScenarioScript::from_json(text).unwrap_err();
        assert!(err.contains("factor"), "{err}");
    }

    #[test]
    fn json_rejects_empty_windows() {
        for (event, named) in [
            (
                r#"{"kind":"gpu-slowdown","gpu":1,"factor":1.5,"from":5.0,"until":5.0}"#,
                "gpu-slowdown of gpu 1",
            ),
            (
                r#"{"kind":"link-degrade","node":2,"factor":1.5,"from":5.0,"until":3.0}"#,
                "link-degrade of node 2",
            ),
        ] {
            let text = format!(r#"{{"name":"typo","events":[{event}]}}"#);
            let err = ScenarioScript::from_json(&text).unwrap_err();
            assert!(err.contains(named) && err.contains("'until'"), "{err}");
        }
        // A non-empty window and an open one still parse.
        let ok = r#"{"events":[{"kind":"gpu-slowdown","gpu":1,"factor":1.5,"from":5.0,"until":5.5},
            {"kind":"link-degrade","node":0,"factor":1.5,"from":5.0,"until":null}]}"#;
        assert_eq!(ScenarioScript::from_json(ok).unwrap().events.len(), 2);
    }

    #[test]
    fn json_roundtrip() {
        let s = every_kind();
        let text = s.to_json().to_string();
        assert_eq!(ScenarioScript::from_json(&text).unwrap(), s);
        assert!(ScenarioScript::from_json("{\"faults\": 3}").is_err());
        assert!(ScenarioScript::from_json("[]").is_err());
    }

    #[test]
    fn scenario_json_roundtrip_and_legacy_upgrade() {
        let s = ScenarioScript::canonical_straggler(0, 5.0);
        let text = s.to_json().to_string();
        assert_eq!(ScenarioScript::from_json(&text).unwrap(), s);
        // A fault-only document listing its events under `faults`
        // reads the same as its `events` form.
        let legacy = text.replace("\"events\"", "\"faults\"");
        assert_ne!(legacy, text);
        assert_eq!(ScenarioScript::from_json(&legacy).unwrap(), s);
        // Bad inputs still fail loudly, including sub-unit factors in
        // the `events` form.
        assert!(ScenarioScript::from_json("{\"events\": 3}").is_err());
        let typo =
            r#"{"name":"t","events":[{"kind":"gpu-slowdown","gpu":1,"factor":0.13,"from":5.0}]}"#;
        assert!(ScenarioScript::from_json(typo)
            .unwrap_err()
            .contains("factor"));
    }

    #[test]
    fn json_parser_never_panics_on_mutations() {
        // Every prefix, every single-byte replacement from a small
        // JSON alphabet, and every single-byte deletion of a document
        // mixing every event kind must parse to `Ok` or `Err`.
        let doc = every_kind().to_json().to_string();
        let bytes = doc.as_bytes();
        let alphabet = b"{}[]\":,.-+0123456789eEnul \\x";
        let mut inputs: Vec<Vec<u8>> = (0..bytes.len()).map(|i| bytes[..i].to_vec()).collect();
        for i in 0..bytes.len() {
            for &b in alphabet {
                if bytes[i] != b {
                    let mut m = bytes.to_vec();
                    m[i] = b;
                    inputs.push(m);
                }
            }
            let mut m = bytes.to_vec();
            m.remove(i);
            inputs.push(m);
        }
        let mut ok = 0;
        for input in &inputs {
            let text = std::str::from_utf8(input).expect("ASCII stays UTF-8");
            ok += ScenarioScript::from_json(text).is_ok() as usize;
        }
        assert!(
            0 < ok && ok < inputs.len(),
            "{ok} of {} parsed",
            inputs.len()
        );
    }

    #[test]
    fn check_devices_rejects_out_of_range_indices() {
        let cluster = Cluster::testbed_subset(&[hetpipe_cluster::GpuKind::Rtx2060; 2]);
        assert_eq!(cluster.device_count(), 8);
        assert_eq!(every_kind().check_devices(&cluster), Ok(()));
        let gpu = ScenarioScript::canonical_straggler(8, 1.0);
        let err = gpu.check_devices(&cluster).unwrap_err();
        assert!(err.contains("gpu 8") && err.contains("8 gpus"), "{err}");
        let lease = ScenarioScript::canonical_lease(99, 1.0, 2.0);
        assert!(lease.check_devices(&cluster).is_err());
        let node = faults(
            "nic",
            vec![Fault::LinkDegrade {
                node: 2,
                factor: 2.0,
                from_secs: 0.0,
                until_secs: None,
            }],
        );
        let err = node.check_devices(&cluster).unwrap_err();
        assert!(err.contains("node 2") && err.contains("2 nodes"), "{err}");
    }

    #[test]
    fn seeded_scripts_are_deterministic() {
        let a = ScenarioScript::seeded(42, 60.0, 16, 4, 5);
        let b = ScenarioScript::seeded(42, 60.0, 16, 4, 5);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 5);
        let c = ScenarioScript::seeded(43, 60.0, 16, 4, 5);
        assert_ne!(a, c, "different seeds give different scripts");
    }

    #[test]
    fn chaos_scripts_are_deterministic_and_liveness_safe() {
        let a = ScenarioScript::chaos(7, 60.0, 4, 2, 12);
        let b = ScenarioScript::chaos(7, 60.0, 4, 2, 12);
        assert_eq!(a, b);
        assert_ne!(a, ScenarioScript::chaos(8, 60.0, 4, 2, 12));
        let mut saw_lease = false;
        for seed in 0..64u64 {
            let s = ScenarioScript::chaos(seed, 60.0, 4, 2, 12);
            // GPU 0 is never preempted; every preemption is re-granted.
            let mut down: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
            for t in s.lease_transitions() {
                assert_ne!(t.gpu, 0, "gpu0 must stay leased ({})", s.name);
                if t.available {
                    down.remove(&t.gpu);
                } else {
                    down.insert(t.gpu);
                    saw_lease = true;
                }
                assert!(down.len() <= 2, "≥2 of 4 GPUs must stay up ({})", s.name);
            }
            assert!(down.is_empty(), "trailing preemption ({})", s.name);
        }
        assert!(saw_lease, "the sweep must actually exercise leases");
    }
}
