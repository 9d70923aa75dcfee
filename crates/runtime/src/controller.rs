//! The reactive controller: policies, splices, and epochs.
//!
//! The controller turns the one-shot executor into a *dynamic* one by
//! running it in **segments** spliced at wave boundaries:
//!
//! 1. **Probe.** Simulate the remaining horizon under the current
//!    configuration (plans and derates) with the fault script's rate
//!    edges injected as DES events. Every segment hands each span
//!    once, through the controller's segment sink, to the caller's
//!    [`RuntimeSink`] (rebased to global time and to global minibatch
//!    and wave numbering); no segment keeps a trace of its own. The
//!    probe also saves wave checkpoints, clones of its executor state
//!    ([`exec::run_into_checkpointed`]).
//! 2. **Observe.** While the probe runs, the same sink folds each span
//!    into a [`MonitorFold`] (segment-local times, before rebasing),
//!    and the probe's judge reads the fold's typed signals at each
//!    judgement instant (below).
//! 3. **React (policy).** At the first judgement the policy answers,
//!    the probe halts, saving its state as its last checkpoint, and the
//!    epoch the reaction commits is the probe's segment drained at a
//!    wave boundary ([`SegmentOpts::stop_after_mb`]). The judge picks
//!    the stop point:
//!    - for a straggler, a recovery or a lease grant, the first wave
//!      boundary no stop query has passed yet. Up to the halt the probe
//!      was the drain run from the segment start, so the drain resumes
//!      from the halt state and nothing is simulated twice;
//!    - at an outage, for a lost GPU or a lease preemption, the last
//!      wave boundary every VW had completed: the dead GPU's in-flight
//!      tasks end only when the outage lifts. Stop queries may have
//!      passed that boundary, so the drain resumes from the probe's
//!      latest checkpoint that they had not, and the tail past it is
//!      simulated again ([`Epoch::resimulated`]).
//!
//!    Either way the drain resumes from the checkpoint
//!    [`Checkpoints::for_stop`] picks ([`exec::resume_into`], under the
//!    probe's own rates and horizon), and the caller's sink is cut back
//!    to the spans the probe recorded before it
//!    ([`RuntimeSink::cut_back`], the only cut; a no-op at the halt
//!    state).
//!
//!    Then apply the action and probe again from the splice. A probe
//!    the policy never answers runs to the horizon and is the final
//!    epoch, so a zero-fault run under any policy commits exactly the
//!    trace a plain [`hetpipe_core::exec::run`] produces, bit for bit.
//!
//! **Who keeps spans.** The caller chooses. [`run`] keeps the merged
//! trace in [`RuntimeReport::trace`]: the runtime pins, chrome export
//! and the zero-scenario parity check read it. [`run_into`] hands the
//! spans to the caller's [`RuntimeSink`] instead and returns the
//! report with an empty trace; with [`Discard`] nothing is kept or
//! rebased, and the monitor still folds every probe's spans, so every
//! other report field is the same as [`run`]'s. The controller only
//! measures the sink ([`RuntimeSink::kept`]) and cuts it back at an
//! outage splice.
//!
//! **What a probe judges.** The judge (`Judge`) reads the signals as
//! they stand at three kinds of instant: when every VW has completed a
//! new whole wave, when the fold records a new GPU loss, and when a
//! lease detection instant (transition + `lease_hysteresis_secs`)
//! passes, judged at that instant before the next event. At each one it
//! asks `Controller::decide` about [`MonitorFold::signals`] and the
//! lease signals detected by then, and after the first action it judges
//! no more. So a slowdown window is seen while it lasts: a straggler
//! whose EWMA has stayed over the threshold for the monitor's
//! hysteresis window is acted on at the next wave boundary, inside the
//! window, and [`Policy::Replan`] derates the GPU by the EWMA of that
//! instant; when the window closes, the recovery is acted on the same
//! way. A probe that never acts logs its end-of-probe signals as
//! observations of the committed timeline. Link degrades raise no
//! signal: the fold skips transfer spans.
//!
//! **Why wave boundaries?** At a boundary every virtual worker has
//! completed — and pushed — the same whole number of waves and holds
//! no in-flight minibatch. PipeDream-2BW's double buffering (the
//! `two_bw_version` semantics PR 3 pinned) means the only weight state
//! a continuation needs is the version closed by the boundary wave —
//! the shadow copy — so the spliced run starts from a *fully
//! synchronized* state. WSP's staleness gate is monotone in wave
//! distance, and a synchronized start is its most conservative
//! configuration: every bound that held for an uninterrupted run holds
//! (with slack) for the spliced one. Each epoch carries its own
//! [`OccupancyAudit`], so the measured ≤ declared memory invariant is
//! certified per plan segment, not just per run.
//!
//! Policies:
//!
//! - [`Policy::Static`] — today's behaviour: observe, never react.
//! - [`Policy::Replan`] — re-plan through the planner the build uses
//!   ([`hetpipe_core::Planner`], one for the whole run) with every
//!   straggler's GPU derated to its observed speed, and with lost
//!   GPUs dropped from the pipeline; splice the new plan in at the
//!   boundary. Each VW's `Nm`-sweep prefix is read up to a ceiling
//!   (the current `Nm`, or the initial one at a grow-splice), and the
//!   common `Nm` is the shortest prefix's length
//!   ([`hetpipe_core::planner::replan_nm`]), so a smaller pipeline
//!   shrinks `Nm` only when its memory demands it.
//!
//! # Elastic leases
//!
//! Under a [`ScenarioScript`], lease transitions are a *control
//! plane*: the lease manager tells the controller when a GPU is
//! preempted or (re-)granted, so reacting to them reads the script —
//! unlike fault detection, which stays purely observational. A
//! transition is actionable only when it is **stable** (no opposite
//! transition on the same GPU within the lease hysteresis window —
//! a flapping lease produces zero splices) and its detection instant
//! is the end of that window. A stable preemption marks the device
//! dead (converging with the monitor's observational `GpuLost`, which
//! the executor's rate-timeline integration keeps flap-safe); a
//! stable grant revives it — or admits a brand-new device — and the
//! replan runs over the *grown* roster, re-raising `Nm` up to its
//! initial value when the widened pipeline allows it. Both reshapes
//! splice at a drained wave boundary, so the WSP soundness argument
//! is direction-independent (see the crate docs).

use crate::monitor::{MonitorConfig, MonitorFold, Signal};
use crate::scenario::ScenarioScript;
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_core::exec::{self, Checkpoints, ExecParams, Progress, RunStats, SegmentOpts, SpanTag};
use hetpipe_core::planner::{replan_nm, Planner};
use hetpipe_core::pserver::{Placement, ShardMap};
use hetpipe_core::{OccupancyAudit, VirtualWorker, WspParams};
use hetpipe_des::{Discard, ResourceId, SimTime, SpanSink, Trace};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::{RecomputePolicy, Schedule};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

/// A reactive policy: what the controller does with monitor signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Never react (today's static behaviour; the baseline).
    Static,
    /// Re-plan with observed costs / surviving GPUs and splice at the
    /// next wave boundary.
    Replan,
}

impl Policy {
    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::Replan => "replan",
        }
    }
}

/// Inputs of a fault-aware run.
#[derive(Debug, Clone)]
pub struct RuntimeParams<'a> {
    /// The cluster.
    pub cluster: &'a Cluster,
    /// The model.
    pub graph: &'a ModelGraph,
    /// Initial virtual workers (plans resolved, as for the executor).
    pub vws: Vec<VirtualWorker>,
    /// WSP parameters of the initial configuration.
    pub wsp: WspParams,
    /// Parameter-server shard placement (rebuilt after a re-plan).
    pub placement: Placement,
    /// Model sync transfers (see `ExecParams::sync_transfers`).
    pub sync_transfers: bool,
    /// The pipeline schedule.
    pub schedule: Schedule,
    /// Activation recomputation policy.
    pub recompute: RecomputePolicy,
    /// The scenario script to inject.
    pub script: ScenarioScript,
    /// The reactive policy.
    pub policy: Policy,
    /// Runtime tuning: the lease hysteresis.
    pub monitor: MonitorConfig,
    /// Reaction budget (backstop against pathological oscillation).
    pub max_reactions: usize,
    /// Ignored: every `Replan` reaction solves in process. Only the
    /// standalone benchmark package still sets it.
    pub planner: Option<hetpipe_plansvc::PlanClient>,
}

/// One committed plan segment.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Epoch index (0-based).
    pub index: usize,
    /// Global start time.
    pub start: SimTime,
    /// Global end time (the splice point, or the horizon).
    pub end: SimTime,
    /// The `Nm` this epoch ran with.
    pub nm: usize,
    /// Minibatches completed per VW within the epoch.
    pub completed: Vec<u64>,
    /// The epoch's own measured ≤ declared occupancy audit.
    pub audit: OccupancyAudit,
    /// The action that ended this epoch (`None` for the final epoch).
    pub action: Option<String>,
    /// The epoch's logical DES events: what a run of its segment from
    /// the segment start processes.
    pub events: u64,
    /// The events its commit simulated again: 0 for the final epoch,
    /// a probe committed as it ran, and for a drain resumed from its
    /// probe's halt state; for a drain resumed from an earlier
    /// checkpoint, the tail simulated from there.
    pub resimulated: u64,
}

/// The merged result of a fault-aware run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Requested horizon.
    pub horizon: SimTime,
    /// Batch size (throughput conversions).
    pub batch_size: usize,
    /// Committed epochs, in order.
    pub epochs: Vec<Epoch>,
    /// Per-VW minibatch completion times, global, across all epochs.
    pub completions: Vec<Vec<SimTime>>,
    /// The merged span trace (tags rebased to global minibatch/wave
    /// numbering, times rebased to global time), kept by [`run`];
    /// empty from [`run_into`], which hands the spans to its sink.
    pub trace: Trace<SpanTag>,
    /// Resource names by `ResourceId` index (chrome-trace tracks).
    pub resource_names: Vec<String>,
    /// Instant markers: fault edges, monitor signals, splices.
    pub instants: Vec<(SimTime, String, &'static str)>,
    /// Every signal observed (global detection time + label).
    pub signals: Vec<(SimTime, String)>,
    /// The virtual workers in effect at the end of the run (after any
    /// re-planning; what the last epoch executed).
    pub final_vws: Vec<VirtualWorker>,
    /// The common `Nm` in effect at the end of the run.
    pub final_nm: usize,
    /// DES events the run simulated: every probe's processed events
    /// (a halted one counts up to the halt) plus every drain's tail past
    /// the checkpoint it resumed from. A drain from the halt state
    /// simulates only its own events past the halt; one from an earlier
    /// checkpoint simulates [`Epoch::resimulated`] events again.
    pub simulated_events: u64,
}

impl RuntimeReport {
    /// Total minibatches completed across VWs.
    pub fn total_completed(&self) -> usize {
        self.completions.iter().map(Vec::len).sum()
    }

    /// System throughput in minibatches per second, excluding the
    /// leading `warmup_fraction` of the horizon.
    pub fn throughput_minibatches_per_sec(&self, warmup_fraction: f64) -> f64 {
        let warmup = SimTime::from_secs(self.horizon.as_secs() * warmup_fraction);
        let window = (self.horizon - warmup).as_secs();
        if window <= 0.0 {
            return 0.0;
        }
        let counted: usize = self
            .completions
            .iter()
            .map(|c| c.iter().filter(|&&t| t >= warmup).count())
            .sum();
        counted as f64 / window
    }

    /// System throughput in images per second (minibatch rate × batch
    /// size).
    pub fn throughput_images_per_sec(&self, warmup_fraction: f64) -> f64 {
        self.throughput_minibatches_per_sec(warmup_fraction) * self.batch_size as f64
    }

    /// True when every epoch's occupancy audit is sound.
    pub fn audits_sound(&self) -> bool {
        self.epochs.iter().all(|e| e.audit.is_sound())
    }

    /// Writes the merged trace as a `chrome://tracing` JSON file with
    /// fault edges, monitor signals, and plan-splice epochs as
    /// instant markers.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.trace.write_chrome_trace_with_instants(
            file,
            |rid| {
                self.resource_names
                    .get(rid.index())
                    .cloned()
                    .unwrap_or_else(|| format!("res{}", rid.0))
            },
            |tag| tag.label(),
            |tag| tag.category(),
            &self.instants,
        )
    }
}

/// A stable, actionable lease transition — the control-plane side of
/// the feedback loop (the lease manager tells us; the monitor only
/// observes).
#[derive(Debug, Clone, PartialEq)]
enum LeaseSignal {
    /// `device` is leased to the job (a revival or a new admission).
    Granted { device: DeviceId, at: SimTime },
    /// `device`'s lease was revoked.
    Preempted { device: DeviceId, at: SimTime },
}

impl LeaseSignal {
    /// Segment-local detection time (transition + hysteresis).
    fn at(&self) -> SimTime {
        match self {
            LeaseSignal::Granted { at, .. } | LeaseSignal::Preempted { at, .. } => *at,
        }
    }

    fn label(&self) -> String {
        match self {
            LeaseSignal::Granted { device, .. } => format!("lease granted: gpu{}", device.0),
            LeaseSignal::Preempted { device, .. } => format!("lease preempted: gpu{}", device.0),
        }
    }
}

/// The replan a policy chose for one probe: the signals and lease
/// transitions it answers, which is what the reaction commits to the
/// report (the rest of the probe's observations belong to a discarded
/// timeline).
struct Action {
    signals: Vec<Signal>,
    lease: Vec<LeaseSignal>,
}

impl Action {
    /// The signals and lease transitions answered, as (segment-local
    /// detection instant, label) pairs.
    fn answered(&self) -> impl Iterator<Item = (SimTime, String)> + '_ {
        (self.signals.iter().map(|s| (s.at(), s.label())))
            .chain(self.lease.iter().map(|l| (l.at(), l.label())))
    }

    fn label(&self) -> String {
        let parts: Vec<String> = self.answered().map(|(_, label)| label).collect();
        format!("replan on [{}]", parts.join(", "))
    }

    /// Whether the action answers an outage (a lost GPU or a lease
    /// preemption): the dead GPU's in-flight tasks end only when the
    /// outage lifts, so the epoch drains at the last wave boundary every
    /// VW has completed.
    fn outage(&self) -> bool {
        let lost = |s: &Signal| matches!(s, Signal::GpuLost { .. });
        let preempted = |l: &LeaseSignal| matches!(l, LeaseSignal::Preempted { .. });
        self.signals.iter().any(lost) || self.lease.iter().any(preempted)
    }
}

/// The reaction a probe's judge decided on when it halted the probe,
/// and where its epoch ends: the epoch is the probe's segment drained
/// there, resumed from one of its checkpoints.
struct Reaction {
    action: Action,
    /// The epoch's stop point (segment-local minibatches).
    stop: u64,
}

/// A probe's judge: at each judgement instant (see the module docs) it
/// asks [`Controller::decide`] about the monitor's signals and the
/// lease transitions as they stand, and stops judging at the first
/// action.
struct Judge<'c, 'a, S> {
    ctl: &'c Controller<'a, S>,
    /// The stable lease transitions, for [`Controller::lease_signals`].
    leases: Vec<StableLease>,
    /// Lease detection instants still ahead (segment-local), latest
    /// first.
    detections: Vec<SimTime>,
    /// Whole waves and fold losses at the last judgement.
    waves: u64,
    losses: usize,
    reaction: Option<Reaction>,
    /// The kept span count and the signals judged, at each
    /// judgement, for the monitor fold's parity test.
    #[cfg(test)]
    judged: Vec<(usize, Vec<Signal>)>,
}

impl<'c, 'a, S: RuntimeSink> Judge<'c, 'a, S> {
    fn new(ctl: &'c Controller<'a, S>, remaining: SimTime) -> Self {
        let leases = ctl.stable_leases();
        let (from, to) = (ctl.offset, ctl.offset + remaining);
        let mut detections: Vec<SimTime> = (leases.iter())
            .filter(|l| l.detect > from && l.detect <= to)
            .map(|l| l.detect - from)
            .collect();
        detections.sort_by(|a, b| b.cmp(a));
        Judge {
            ctl,
            leases,
            detections,
            waves: 0,
            losses: 0,
            reaction: None,
            #[cfg(test)]
            judged: Vec::new(),
        }
    }

    /// Judges the probe after an event when a judgement instant has
    /// come: every VW has completed a new whole wave, the fold has
    /// recorded a new GPU loss, or a lease detection instant has
    /// passed (judged at that instant, before the next event).
    fn judge(&mut self, at: Progress, sink: &SegmentSink<S>) -> ControlFlow<()> {
        let fold = sink.monitor.as_ref().expect("a probe folds the monitor");
        let mut instant = None;
        if at.waves > self.waves || fold.losses() > self.losses {
            (self.waves, self.losses) = (at.waves, fold.losses());
            instant = Some(at.now);
        }
        while self.detections.last().is_some_and(|&d| d < at.until) {
            instant = self.detections.pop();
        }
        let Some(now) = instant else {
            return ControlFlow::Continue(());
        };
        let signals = fold.signals();
        let lease = self.ctl.lease_signals(&self.leases, now);
        let action = self.ctl.decide(&signals, &lease);
        #[cfg(test)]
        self.judged.push((sink.kept.kept(), signals));
        let Some(action) = action else {
            return ControlFlow::Continue(());
        };
        let nm = self.ctl.nm as u64;
        // An outage splices at the last boundary every VW has completed,
        // any other reaction at the first boundary no stop query has
        // passed, whose latest valid checkpoint is the halt state.
        let stop = if action.outage() {
            at.waves * nm
        } else {
            at.queried.div_ceil(nm) * nm
        };
        self.reaction = Some(Reaction { action, stop });
        ControlFlow::Break(())
    }
}

/// A stable lease transition and its global detection instant (see
/// [`Controller::stable_leases`]).
#[derive(Debug, Clone, Copy)]
struct StableLease {
    device: DeviceId,
    available: bool,
    detect: SimTime,
}

/// A span sink a runtime run records into, which the controller can
/// measure and cut back: a drain resumed from a checkpoint before its
/// probe's halt cuts the spans the probe recorded past it and records
/// them again. A [`Trace`] keeps the merged trace; [`Discard`] keeps
/// nothing and has nothing to cut.
pub trait RuntimeSink: SpanSink<SpanTag> + Default {
    /// The number of spans kept so far.
    fn kept(&self) -> usize;

    /// Drops every kept span past the first `len`.
    fn cut_back(&mut self, len: usize);
}

impl RuntimeSink for Trace<SpanTag> {
    fn kept(&self) -> usize {
        self.len()
    }

    fn cut_back(&mut self, len: usize) {
        self.truncate(len);
    }
}

impl RuntimeSink for Discard {
    fn kept(&self) -> usize {
        0
    }

    fn cut_back(&mut self, _: usize) {}
}

/// The sink every segment records into, wrapped around the run's
/// [`RuntimeSink`]: it hands each span on rebased to global time and to
/// global minibatch and wave numbering, and — while probing — folds it
/// into the monitor in segment-local time. So a segment's spans are
/// recorded once, where the caller keeps them, and a sink that keeps
/// none costs no rebasing.
struct SegmentSink<S> {
    /// The run's sink, moved in for the segment.
    kept: S,
    offset: SimTime,
    mb_offset: u64,
    wave_offset: u64,
    /// The monitor's fold, on probes only.
    monitor: Option<MonitorFold>,
}

impl<S: RuntimeSink> SpanSink<SpanTag> for SegmentSink<S> {
    const KEEPS_SPANS: bool = S::KEEPS_SPANS;

    fn record(&mut self, resource: ResourceId, start: SimTime, end: SimTime, tag: SpanTag) {
        if let Some(monitor) = &mut self.monitor {
            monitor.observe(tag, start, end);
        }
        if !S::KEEPS_SPANS {
            return;
        }
        let mb = |mb: u32| SpanTag::index(u64::from(mb) + self.mb_offset);
        let tag = match tag {
            SpanTag::Forward { vw, stage, mb: m } => SpanTag::Forward {
                vw,
                stage,
                mb: mb(m),
            },
            SpanTag::Backward { vw, stage, mb: m } => SpanTag::Backward {
                vw,
                stage,
                mb: mb(m),
            },
            SpanTag::Recompute { vw, stage, mb: m } => SpanTag::Recompute {
                vw,
                stage,
                mb: mb(m),
            },
            SpanTag::SyncTransfer { vw, wave, pull } => SpanTag::SyncTransfer {
                vw,
                wave: SpanTag::index(u64::from(wave) + self.wave_offset),
                pull,
            },
            other => other,
        };
        self.kept
            .record(resource, start + self.offset, end + self.offset, tag);
    }
}

/// Mutable controller state across epochs.
struct Controller<'a, S> {
    p: RuntimeParams<'a>,
    vws: Vec<VirtualWorker>,
    nm: usize,
    /// Derates already reacted to, keyed by stage (what the monitor
    /// compares against) and by device (survives re-planning, which
    /// renumbers stages).
    applied: BTreeMap<(usize, usize), f64>,
    applied_dev: BTreeMap<(usize, DeviceId), f64>,
    dead: BTreeSet<DeviceId>,
    /// The initial common `Nm` — the ceiling a grow-splice may
    /// re-raise to after a shrink lowered `self.nm`.
    initial_nm: usize,
    /// Per-VW device roster: every physical device that has ever been
    /// part of (or granted to) the VW, in pipeline order. Replans
    /// draw survivors from here rather than from the current plan, so
    /// a dropped GPU keeps its position and can be re-admitted.
    roster: Vec<Vec<DeviceId>>,
    /// The run's planner: every replan reads it, so kind- and
    /// derate-identical VWs share one sweep and a later splice reuses
    /// the prefixes of earlier ones.
    planner: Planner<'a>,
    // Global accumulators.
    offset: SimTime,
    mb_offset: u64,
    wave_offset: u64,
    reactions: usize,
    report: RuntimeReport,
    /// The caller's sink, which every segment records into; moved into
    /// each segment's [`SegmentSink`] and back.
    kept: S,
    /// Every probe's inputs and in-run signals, for the monitor fold's
    /// parity test.
    #[cfg(test)]
    probes: Vec<tests::Probe>,
}

impl<'a, S: RuntimeSink> Controller<'a, S> {
    fn new(p: RuntimeParams<'a>, horizon: SimTime, kept: S) -> Self {
        let vws = p.vws.clone();
        let nm = p.wsp.nm;
        let mut instants: Vec<(SimTime, String, &'static str)> = p
            .script
            .instants()
            .into_iter()
            .filter(|(at, _, _)| *at <= horizon)
            .collect();
        instants.sort_by_key(|i| i.0);
        let report = RuntimeReport {
            horizon,
            batch_size: p.graph.batch_size,
            epochs: Vec::new(),
            completions: vec![Vec::new(); vws.len()],
            trace: Trace::new(),
            resource_names: Vec::new(),
            instants,
            signals: Vec::new(),
            final_vws: Vec::new(),
            final_nm: nm,
            simulated_events: 0,
        };
        let roster = vws
            .iter()
            .map(|vw| {
                let mut phys: Vec<DeviceId> = Vec::new();
                for &d in &vw.devices {
                    if !phys.contains(&d) {
                        phys.push(d);
                    }
                }
                phys
            })
            .collect();
        Controller {
            vws,
            nm,
            applied: BTreeMap::new(),
            applied_dev: BTreeMap::new(),
            dead: BTreeSet::new(),
            initial_nm: nm,
            roster,
            planner: Planner::new(p.cluster, p.graph, p.schedule, p.recompute),
            offset: SimTime::ZERO,
            mb_offset: 0,
            wave_offset: 0,
            reactions: 0,
            report,
            kept,
            p,
            #[cfg(test)]
            probes: Vec::new(),
        }
    }

    /// A probe's executor options under the current config.
    fn segment_opts(&self) -> SegmentOpts {
        let (initial_rates, rate_events) = self.p.script.segment_rates(self.offset);
        SegmentOpts {
            stop_after_mb: None,
            initial_rates,
            rate_events,
        }
    }

    /// A sink that records into the run's sink (moved out until the
    /// segment hands it back) under the current offsets.
    fn sink(&mut self, monitor: Option<MonitorFold>) -> SegmentSink<S> {
        SegmentSink {
            kept: std::mem::take(&mut self.kept),
            offset: self.offset,
            mb_offset: self.mb_offset,
            wave_offset: self.wave_offset,
            monitor,
        }
    }

    /// The executor's inputs under the current configuration.
    fn exec_params<'s>(&'s self, shards: &'s ShardMap) -> ExecParams<'s> {
        ExecParams {
            cluster: self.p.cluster,
            graph: self.p.graph,
            vws: &self.vws,
            wsp: WspParams::new(self.nm, self.p.wsp.d),
            shards,
            sync_transfers: self.p.sync_transfers,
            schedule: self.p.schedule,
            recompute: self.p.recompute,
        }
    }

    fn shards(&self) -> ShardMap {
        ShardMap::build(self.p.placement, self.p.graph, self.p.cluster, &self.vws[0])
    }

    /// The probe: simulates `remaining` under the current
    /// configuration with no stop point, folding the monitor, judging
    /// it as it runs ([`Judge`]) and saving the wave checkpoints its
    /// drain resumes from. Returns the run (halted or to the horizon),
    /// its fold, its checkpoints and the reaction, if any.
    fn probe(
        &mut self,
        remaining: SimTime,
    ) -> (RunStats, MonitorFold, Checkpoints, Option<Reaction>) {
        let (fwd, bwd) = exec::planned_stage_times(self.p.cluster, self.p.graph, &self.vws);
        let monitor = MonitorFold::new(&self.vws, self.p.schedule, &self.applied, &fwd, &bwd);
        #[cfg(test)]
        let mark = self.kept.kept();
        let sink = self.sink(Some(monitor));
        let shards = self.shards();
        let mut judge = Judge::new(self, remaining);
        let (stats, sink, checkpoints) = exec::run_into_checkpointed(
            self.exec_params(&shards),
            self.segment_opts(),
            remaining,
            sink,
            |at, sink| judge.judge(at, sink),
        );
        let reaction = judge.reaction;
        #[cfg(test)]
        let judged = judge.judged;
        self.kept = sink.kept;
        #[cfg(test)]
        self.probes.push(tests::Probe {
            vws: self.vws.clone(),
            nm: self.nm,
            opts: self.segment_opts(),
            remaining,
            applied: self.applied.clone(),
            offsets: (self.offset, self.mb_offset, self.wave_offset),
            mark,
            judged,
            drained: None,
        });
        let monitor = sink.monitor.expect("a probe folds the monitor");
        (stats, monitor, checkpoints, reaction)
    }

    /// The drained epoch of a reaction: the probe's segment drained at
    /// `stop`, resumed from the probe's latest checkpoint before it (the
    /// halt state, unless stop queries had passed `stop` by the halt).
    /// The report's trace keeps the probe's spans up to that checkpoint
    /// (the probe recorded them from `mark` on) and the resumed run
    /// records the rest; the run's simulated events grow by that tail.
    /// Returns the drain and the events it simulated again.
    fn drain(
        &mut self,
        stop: u64,
        mark: usize,
        probe: &RunStats,
        checkpoints: &Checkpoints,
    ) -> (RunStats, u64) {
        let from = checkpoints.for_stop(stop);
        self.kept.cut_back(mark + from.spans());
        let (sink, shards) = (self.sink(None), self.shards());
        let (stats, sink) = exec::resume_into(self.exec_params(&shards), stop, sink, from, probe);
        self.kept = sink.kept;
        let tail = stats.events - from.events();
        self.report.simulated_events += tail;
        #[cfg(test)]
        if let Some(p) = self.probes.last_mut() {
            p.drained = Some((stop, stats.clone(), mark..self.kept.kept()));
        }
        let halted = from.events() == probe.events;
        (stats, if halted { 0 } else { tail })
    }

    /// Folds a committed segment into the global report. Its spans are
    /// already there: the segment recorded them as it ran.
    fn commit(&mut self, stats: &RunStats, action: Option<String>, resimulated: u64) {
        let off = self.offset;
        if self.report.resource_names.is_empty() {
            self.report.resource_names = stats.resource_names();
        }
        let mut completed = Vec::with_capacity(stats.vws.len());
        for (i, vw) in stats.vws.iter().enumerate() {
            completed.push(vw.completions.len() as u64);
            self.report.completions[i].extend(vw.completions.iter().map(|&t| t + off));
        }
        let audit = OccupancyAudit::measure(stats, &self.vws, &self.p.schedule, self.nm);
        let end = off + stats.end;
        if let Some(action) = &action {
            self.report
                .instants
                .push((end, format!("splice: {action}"), "epoch"));
        }
        self.report.epochs.push(Epoch {
            index: self.report.epochs.len(),
            start: off,
            end,
            nm: self.nm,
            completed,
            audit,
            action,
            events: stats.events,
            resimulated,
        });
    }

    /// Logs signals, as (segment-local instant, label) pairs, into the
    /// report at global times.
    fn log(&mut self, signals: impl IntoIterator<Item = (SimTime, String)>) {
        for (at, label) in signals {
            let at = at + self.offset;
            self.report.signals.push((at, label.clone()));
            self.report.instants.push((at, label, "signal"));
        }
    }

    /// Every stable lease transition of a device of this cluster, with
    /// its global detection instant.
    ///
    /// A transition at global `t` is **stable** iff no opposite
    /// transition of the same GPU falls within `(t, t + hysteresis]`;
    /// its detection instant is `t + hysteresis` (the controller
    /// waits the window out before believing the lease manager), so
    /// a flapping lease is never acted on at all.
    fn stable_leases(&self) -> Vec<StableLease> {
        let transitions = self.p.script.lease_transitions();
        let hysteresis = SimTime::from_secs(self.p.monitor.lease_hysteresis_secs);
        let devices = self.p.cluster.devices().count();
        (transitions.iter())
            .filter(|t| t.gpu < devices)
            .filter(|t| {
                !transitions.iter().any(|o| {
                    o.gpu == t.gpu
                        && o.available != t.available
                        && o.at > t.at
                        && o.at - t.at <= hysteresis
                })
            })
            .map(|t| StableLease {
                device: DeviceId(t.gpu),
                available: t.available,
                detect: t.at + hysteresis,
            })
            .collect()
    }

    /// The actionable lease transitions among `leases` detected by the
    /// segment-local instant `now`, in segment-local detection time.
    ///
    /// Only transitions whose detection instant falls *after* the
    /// current segment started are considered: older ones were either
    /// acted on or deliberately suppressed by an earlier segment's
    /// decision, and re-arming them once the device state flips back
    /// would ping-pong the controller between a stale grant and a
    /// stale preemption forever. On top of that, conditions
    /// self-suppress: a preemption is actionable only while the
    /// device is active, a grant only while the device is dead or not
    /// yet admitted.
    fn lease_signals(&self, leases: &[StableLease], now: SimTime) -> Vec<LeaseSignal> {
        let active: BTreeSet<DeviceId> = self
            .vws
            .iter()
            .flat_map(|vw| vw.devices.iter().copied())
            .collect();
        let mut out = Vec::new();
        for l in leases {
            if l.detect > self.offset + now || l.detect <= self.offset {
                // Not yet detected, or settled by an earlier segment
                // (acted on or suppressed; never re-armed).
                continue;
            }
            let (device, at) = (l.device, l.detect - self.offset);
            if l.available {
                if self.dead.contains(&device) || !active.contains(&device) {
                    out.push(LeaseSignal::Granted { device, at });
                }
            } else if active.contains(&device) && !self.dead.contains(&device) {
                out.push(LeaseSignal::Preempted { device, at });
            }
        }
        out.sort_by_key(LeaseSignal::at);
        out
    }

    /// What, if anything, the policy does with the signals and lease
    /// transitions judged at one instant. Only [`Policy::Replan`]
    /// reacts: [`Policy::Static`] keeps today's behaviour, which is
    /// what makes it an honest baseline under lease scenarios.
    fn decide(&self, signals: &[Signal], lease: &[LeaseSignal]) -> Option<Action> {
        if self.reactions >= self.p.max_reactions
            || self.p.policy == Policy::Static
            || (signals.is_empty() && lease.is_empty())
        {
            return None;
        }
        Some(Action {
            signals: signals.to_vec(),
            lease: lease.to_vec(),
        })
    }

    /// Applies a decided action at a committed splice.
    fn apply(&mut self, action: Action) {
        let Action { signals, lease } = action;
        for s in &signals {
            let (vw, stage) = s.stage_key();
            let device = self.vws[vw].devices[stage];
            match s {
                Signal::Straggler { severity, .. } => {
                    self.applied_dev.insert((vw, device), *severity);
                }
                Signal::Recovered { .. } => {
                    self.applied_dev.remove(&(vw, device));
                }
                Signal::GpuLost { .. } => {
                    self.dead.insert(device);
                }
            }
        }
        let mut grew = false;
        for s in &lease {
            match *s {
                LeaseSignal::Preempted { device, .. } => {
                    // Converges with the monitor's observational
                    // GpuLost (idempotent).
                    self.dead.insert(device);
                }
                LeaseSignal::Granted { device, .. } => {
                    grew = true;
                    self.dead.remove(&device);
                    // A re-admitted GPU starts at nominal: stale
                    // derates belong to its old lease.
                    for i in 0..self.vws.len() {
                        self.applied_dev.remove(&(i, device));
                    }
                    if !self.roster.iter().any(|r| r.contains(&device)) {
                        // A brand-new grant joins the narrowest
                        // pipeline.
                        if let Some(r) = self.roster.iter_mut().min_by_key(|r| r.len()) {
                            r.push(device);
                        }
                    }
                }
            }
        }
        // A grow-splice may re-raise Nm up to the initial value: the
        // widened pipeline restored the memory headroom the shrink had
        // taken away.
        let ceiling = if grew {
            self.initial_nm.max(self.nm)
        } else {
            self.nm
        };
        self.replan(ceiling);
    }

    /// Rebuilds every VW's plan from observed costs and surviving
    /// GPUs through the run's [`Planner`]: each VW's prefix up to
    /// `ceiling` (which exceeds the current `Nm` only for a
    /// grow-splice), with every stage's GPU derated by the straggler
    /// severity applied to it, and the common `Nm` by [`replan_nm`].
    /// Survivors come from the *roster*, not the current plan, so a GPU
    /// dropped by an earlier shrink keeps its pipeline position and is
    /// re-admitted the moment it leaves the dead set. When some VW holds
    /// no `Nm` the old configuration is kept (the reaction budget stops
    /// the loop).
    fn replan(&mut self, ceiling: usize) {
        let mut devices = Vec::with_capacity(self.vws.len());
        let mut prefixes = Vec::with_capacity(self.vws.len());
        for (i, roster) in self.roster.iter().enumerate() {
            // Surviving physical devices, roster order preserved.
            let phys: Vec<DeviceId> = (roster.iter().copied())
                .filter(|d| !self.dead.contains(d))
                .collect();
            if phys.is_empty() {
                return; // Nothing left to run on; keep the old config.
            }
            let expanded = self.planner.stages(&phys);
            let derate: Vec<f64> = (expanded.iter())
                .map(|d| self.applied_dev.get(&(i, *d)).copied().unwrap_or(1.0))
                .collect();
            prefixes.push(self.planner.prefix(&expanded, &derate, ceiling).to_vec());
            devices.push(expanded);
        }
        let nm = replan_nm(&prefixes);
        if nm == 0 {
            return; // No common Nm: keep the old configuration.
        }
        self.vws = (devices.into_iter().zip(prefixes).enumerate())
            .map(|(index, (devices, mut prefix))| VirtualWorker {
                index,
                devices,
                plan: prefix.swap_remove(nm - 1),
                nm,
            })
            .collect();
        self.nm = nm;
        // Re-key the monitor baseline to the (possibly renumbered)
        // stages of the new pipelines.
        let mut applied = BTreeMap::new();
        for (i, vw) in self.vws.iter().enumerate() {
            for (s, d) in vw.devices.iter().enumerate() {
                if let Some(&r) = self.applied_dev.get(&(i, *d)) {
                    applied.insert((i, s), r);
                }
            }
        }
        self.applied = applied;
    }

    fn run(mut self, horizon: SimTime) -> (RuntimeReport, S) {
        self.drive(horizon);
        self.report.instants.sort_by_key(|i| i.0);
        self.report.signals.sort_by_key(|i| i.0);
        self.report.final_vws = self.vws;
        self.report.final_nm = self.nm;
        (self.report, self.kept)
    }

    /// Probes, reacts and commits epochs until the horizon.
    fn drive(&mut self, horizon: SimTime) {
        loop {
            let remaining = horizon - self.offset;
            if remaining.is_zero() {
                break;
            }
            // The probe records into the run's sink; its drain cuts it
            // back to its checkpoint, counted from here.
            let mark = self.kept.kept();
            let (probe, monitor, checkpoints, reaction) = self.probe(remaining);
            self.report.simulated_events += probe.events;
            let Some(Reaction { action, stop }) = reaction else {
                // Nothing to react to: the probe is the final epoch
                // (for a zero-fault script this is exactly the plain
                // one-shot run), and its end-of-probe signals are
                // observations of the committed timeline.
                let signals = monitor.signals();
                #[cfg(test)]
                if let Some(p) = self.probes.last_mut() {
                    p.judged.push((self.kept.kept(), signals.clone()));
                }
                self.log(signals.iter().map(|s| (s.at(), s.label())));
                self.commit(&probe, None, 0);
                break;
            };
            let (stats, resimulated) = self.drain(stop, mark, &probe, &checkpoints);
            // Log only the signals the policy acted on: the probe's
            // other observations are not part of the decision.
            self.log(action.answered());
            self.commit(&stats, Some(action.label()), resimulated);
            self.offset += stats.end;
            self.mb_offset += stop;
            self.wave_offset += stop / self.nm as u64;
            self.apply(action);
            self.reactions += 1;
        }
    }
}

/// Runs a fault-aware simulation: fault injection, monitoring, and
/// the reactive policy, merged into one global report that keeps the
/// merged trace ([`RuntimeReport::trace`]). [`run_into`] with a
/// [`Trace`].
pub fn run(params: RuntimeParams<'_>, horizon: SimTime) -> RuntimeReport {
    let (mut report, trace) = run_into(params, horizon, Trace::new());
    report.trace = trace;
    report
}

/// [`run`] with the committed spans handed to `sink`, rebased to
/// global time and numbering, in the order [`run`]'s trace keeps them.
/// Returns the report, whose trace is empty, and the sink. Every other
/// report field is the same for every sink, so a caller that reads no
/// span passes [`Discard`] and keeps none.
pub fn run_into<S: RuntimeSink>(
    params: RuntimeParams<'_>,
    horizon: SimTime,
    sink: S,
) -> (RuntimeReport, S) {
    Controller::new(params, horizon, sink).run(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Monitor;
    use hetpipe_cluster::GpuKind;

    /// One probe as the controller ran it: its inputs, where it
    /// recorded into the report, and what it judged.
    pub(super) struct Probe {
        pub vws: Vec<VirtualWorker>,
        pub nm: usize,
        /// Its segment options (no stop point).
        pub opts: SegmentOpts,
        pub remaining: SimTime,
        pub applied: BTreeMap<(usize, usize), f64>,
        /// The segment's time, minibatch and wave offsets.
        pub offsets: (SimTime, u64, u64),
        /// The report trace's length when the probe started.
        pub mark: usize,
        /// At each judgement, and at the end of a probe that never
        /// acted: the report trace's length and the fold's signals.
        pub judged: Vec<(usize, Vec<Signal>)>,
        /// A reacting probe's drain: its stop point, its run (the
        /// committed epoch) and its spans' range in the report trace.
        pub drained: Option<(u64, RunStats, std::ops::Range<usize>)>,
    }

    /// One runtime-pin cell's run: its schedule, recompute policy and
    /// name, the probes the controller ran and the report.
    struct Cell {
        name: String,
        schedule: Schedule,
        recompute: RecomputePolicy,
        probes: Vec<Probe>,
        report: RuntimeReport,
    }

    /// The runtime pins' cells on the whimpy 4×RTX 2060 ResNet-152
    /// configuration at `Nm` = 4: the canonical straggler, GPU-loss
    /// and lease scripts under each policy and eight chaos scripts
    /// under `Replan` on the wave schedule, and the canonical straggler
    /// under each policy on composite interleaved 1F1B.
    fn pin_cells(cluster: &Cluster, graph: &ModelGraph) -> Vec<Cell> {
        let horizon = SimTime::from_secs(40.0);
        let wave = (Schedule::HetPipeWave, RecomputePolicy::BoundaryOnly);
        let composite = (
            Schedule::Interleaved1F1B {
                chunks: 2,
                composite: true,
            },
            RecomputePolicy::None,
        );
        let policies = [Policy::Static, Policy::Replan];
        let mut cells = Vec::new();
        for script in [
            ScenarioScript::canonical_straggler(0, 5.0),
            ScenarioScript::canonical_gpu_loss(2, 5.0),
            ScenarioScript::canonical_lease(2, 4.0, 20.0),
        ] {
            for policy in policies {
                cells.push((wave, script.clone(), policy));
            }
        }
        for seed in 1..=8 {
            let script = ScenarioScript::chaos(seed, horizon.as_secs(), 4, 1, 3);
            cells.push((wave, script, Policy::Replan));
        }
        for policy in policies {
            let script = ScenarioScript::canonical_straggler(2, 5.0);
            cells.push((composite, script, policy));
        }
        let nm = 4;
        cells
            .into_iter()
            .map(|((schedule, recompute), script, policy)| {
                let vw = Planner::new(cluster, graph, schedule, recompute)
                    .worker(0, &[0, 1, 2, 3].map(DeviceId), nm)
                    .expect("feasible");
                let name = format!("{schedule}/{}/{}", script.name, policy.name());
                let params = RuntimeParams {
                    cluster,
                    graph,
                    vws: vec![vw],
                    wsp: WspParams::new(nm, 0),
                    placement: Placement::Default,
                    sync_transfers: false,
                    schedule,
                    recompute,
                    script,
                    policy,
                    monitor: MonitorConfig::default(),
                    max_reactions: 8,
                    planner: None,
                };
                let mut controller = Controller::new(params, horizon, Trace::new());
                controller.drive(horizon);
                let mut report = controller.report;
                report.trace = controller.kept;
                Cell {
                    name,
                    schedule,
                    recompute,
                    probes: controller.probes,
                    report,
                }
            })
            .collect()
    }

    /// A probe's executor inputs, with `shards` built for it.
    fn params_of<'a>(
        cluster: &'a Cluster,
        graph: &'a ModelGraph,
        cell: &Cell,
        probe: &'a Probe,
        shards: &'a ShardMap,
    ) -> ExecParams<'a> {
        ExecParams {
            cluster,
            graph,
            vws: &probe.vws,
            wsp: WspParams::new(probe.nm, 0),
            shards,
            sync_transfers: false,
            schedule: cell.schedule,
            recompute: cell.recompute,
        }
    }

    /// At every judgement of every probe of the runtime pins' cells —
    /// and at the end of each probe that never acted — the in-run
    /// monitor fold raised exactly the signals [`Monitor::analyze`]
    /// finds over the first as many spans of a kept `exec::run_into`
    /// trace of the same probe, run with no stop point. Tier:
    /// dynamically audited.
    #[test]
    fn in_run_monitor_fold_matches_kept_trace_analysis() {
        let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
        let graph = hetpipe_model::resnet152(32);
        let (mut probes_checked, mut judged, mut signals_checked) = (0, 0, 0);
        for cell in pin_cells(&cluster, &graph) {
            for (i, probe) in cell.probes.iter().enumerate() {
                let name = format!("{} probe {i}", cell.name);
                let shards = ShardMap::build(Placement::Default, &graph, &cluster, &probe.vws[0]);
                let params = params_of(&cluster, &graph, &cell, probe, &shards);
                let (mut kept, trace, _) = exec::run_into(
                    params,
                    probe.opts.clone(),
                    probe.remaining,
                    Trace::new(),
                    None,
                );
                kept.trace = trace;
                assert!(!probe.judged.is_empty(), "{name}: never judged");
                for (len, signals) in &probe.judged {
                    let spans = len - probe.mark;
                    assert!(spans <= kept.trace.len(), "{name}");
                    let reference =
                        Monitor.analyze(&kept, &probe.vws, cell.schedule, &probe.applied, spans);
                    assert_eq!(signals, &reference, "{name} after {spans} spans");
                    judged += 1;
                    signals_checked += reference.len();
                }
                probes_checked += 1;
            }
        }
        // Splices add probes past the first of each of the 16 cells,
        // every probe judges at each new whole wave, and the cells
        // raise signals of their own.
        assert!(probes_checked > 20, "{probes_checked} probes");
        eprintln!("{probes_checked} probes, {judged} judgements, {signals_checked} signals");
        assert!(judged > 5 * probes_checked, "{judged} judgements");
        assert!(signals_checked > 0, "no judgement saw a signal");
    }

    /// Every drained epoch of the runtime pins' cells, resumed from its
    /// probe's halt state or, at an outage, from an earlier checkpoint,
    /// equals the drain run from its segment start with the same stop
    /// point (`exec::run_into`): every `RunStats` field, and every span,
    /// rebased as the report keeps it. Tier: dynamically audited.
    #[test]
    fn every_drained_epoch_equals_the_drain_from_the_segment_start() {
        let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
        let graph = hetpipe_model::resnet152(32);
        let (mut drains, mut before_halt, mut spans) = (0, 0, 0);
        for cell in pin_cells(&cluster, &graph) {
            for (i, probe) in cell.probes.iter().enumerate() {
                let Some((stop, committed, range)) = &probe.drained else {
                    continue;
                };
                let name = format!("{} probe {i} stop {stop}", cell.name);
                let shards = ShardMap::build(Placement::Default, &graph, &cluster, &probe.vws[0]);
                let params = params_of(&cluster, &graph, &cell, probe, &shards);
                let opts = SegmentOpts {
                    stop_after_mb: Some(*stop),
                    ..probe.opts.clone()
                };
                let (oracle, trace, _) =
                    exec::run_into(params, opts, probe.remaining, Trace::new(), None);
                let (offset, mb_offset, wave_offset) = probe.offsets;
                let mut rebased = SegmentSink {
                    kept: Trace::new(),
                    offset,
                    mb_offset,
                    wave_offset,
                    monitor: None,
                };
                for span in trace.spans() {
                    rebased.record(span.resource, span.start, span.end, span.tag);
                }
                assert_eq!(
                    rebased.kept.spans(),
                    &cell.report.trace.spans()[range.clone()],
                    "{name}: spans"
                );
                assert_eq!(format!("{oracle:?}"), format!("{committed:?}"), "{name}");
                drains += 1;
                // Probe `i` committed epoch `i`.
                before_halt += (cell.report.epochs[i].resimulated > 0) as usize;
                spans += range.len();
            }
        }
        eprintln!("{drains} drains ({before_halt} from before the halt), {spans} spans compared");
        assert!(drains >= 30, "{drains} drains");
        assert!(before_halt >= 4, "{before_halt} from before the halt");
        assert!(spans > 100 * drains, "{spans} spans");
    }
}
