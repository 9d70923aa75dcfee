//! The reactive controller: policies, splices, and epochs.
//!
//! The controller turns the one-shot executor into a *dynamic* one by
//! running it in **segments** spliced at wave boundaries:
//!
//! 1. **Probe.** Simulate the remaining horizon under the current
//!    configuration (plans, derates, reorder window) with the fault
//!    script's rate edges injected as DES events. Every segment
//!    records each span once, through the controller's span sink,
//!    straight into the report's merged trace (rebased to global time
//!    and to global minibatch and wave numbering); no segment keeps a
//!    trace of its own.
//! 2. **Observe.** While the probe runs, the same sink folds each span
//!    into a [`MonitorFold`] (segment-local times, before rebasing);
//!    at the probe's end the fold yields typed signals.
//! 3. **React (policy).** If the policy answers a signal, cut the
//!    probe's spans back off the report's trace ([`Trace::truncate`]),
//!    pick the first wave boundary at/after the detection instant,
//!    re-run the segment in *drain mode* ([`SegmentOpts::stop_after_mb`])
//!    so it ends exactly at that boundary, commit it as an **epoch**,
//!    apply the action, and continue from the splice. If nothing is
//!    actionable, the probe — already recorded — is the final epoch,
//!    so a zero-fault run under any policy commits exactly the trace
//!    a plain [`hetpipe_core::exec::run`] produces, bit for bit.
//!
//! **What a probe judges.** Signals are read at the probe's *end*. A
//! straggler is raised only if its stage's EWMA is still over the
//! threshold when the probe ends, and [`Policy::Replan`] derates the
//! GPU by that final EWMA; the splice boundary's outage guard takes
//! the median wave gap over the whole probe. So a slowdown window that
//! closes before the probe ends raises nothing (see the
//! [`monitor`](crate::monitor) docs for what this means on the chaos
//! scripts). A probe that stopped at its first signal's boundary would
//! see different inputs: an early-stopping probe needs a causal
//! monitor, a deliberate behaviour change.
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
//! - [`Policy::SkipStraggler`] — on a straggler, enable the
//!   executor's bounded lane reorder window
//!   ([`SegmentOpts::reorder_window`]): GPUs blocked on the
//!   straggler's late gradients serve ready backwards from other
//!   chunks instead of head-of-line blocking (the ROADMAP's
//!   composite-vs-arrival adaptivity lever). Composite schedules
//!   only: elsewhere no lane hosts a second chunk to serve.
//! - [`Policy::Replan`] — re-run the fast planner
//!   ([`hetpipe_core::replan_vw_from_observed`], warm-started from
//!   the incumbent plan) with every straggler's GPU derated to its
//!   observed speed, and with lost GPUs dropped from the pipeline
//!   (shrinking `Nm` when the smaller pipeline demands it); splice
//!   the new plan in at the boundary.
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
use hetpipe_core::exec::{self, ExecParams, RunStats, SegmentOpts, SpanTag};
use hetpipe_core::pserver::{Placement, ShardMap};
use hetpipe_core::{replan_vw_from_observed, OccupancyAudit, VirtualWorker, WspParams};
use hetpipe_des::{ResourceId, SimTime, SpanSink, Trace};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::{Dispatch, PipelineSchedule, RecomputePolicy, Schedule};
use std::collections::{BTreeMap, BTreeSet};

/// A reactive policy: what the controller does with monitor signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Never react (today's static behaviour; the baseline).
    Static,
    /// On a straggler, enable bounded out-of-order service of ready
    /// backwards within `window` ops of each executor lane. Only a
    /// lane hosting several stages can overtake anything, so the
    /// controller reacts only on schedules with composite lanes
    /// ([`Dispatch::GpuStreamOrder`]); on every other schedule it never
    /// splices and the run is [`Policy::Static`]'s, bit for bit.
    SkipStraggler {
        /// Lookahead window, in stream ops.
        window: usize,
    },
    /// Re-plan with observed costs / surviving GPUs and splice at the
    /// next wave boundary.
    Replan,
}

impl Policy {
    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::SkipStraggler { .. } => "skip-straggler",
            Policy::Replan => "replan",
        }
    }

    /// Parses a CLI name: `static` | `skip-straggler[:window]` |
    /// `replan`.
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "static" => Some(Policy::Static),
            "skip-straggler" => Some(Policy::SkipStraggler { window: 8 }),
            "replan" => Some(Policy::Replan),
            _ => {
                let rest = s.strip_prefix("skip-straggler:")?;
                let window: usize = rest.parse().ok().filter(|&w| w >= 1)?;
                Some(Policy::SkipStraggler { window })
            }
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
    /// numbering, times rebased to global time).
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
                    .get(rid.0)
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

/// The action a policy chose for one probe.
enum Action {
    EnableReorder {
        window: usize,
        trigger: Signal,
    },
    Replan {
        signals: Vec<Signal>,
        lease: Vec<LeaseSignal>,
    },
}

impl Action {
    fn label(&self) -> String {
        match self {
            Action::EnableReorder { window, trigger } => {
                format!("enable reorder window {window} on [{}]", trigger.label())
            }
            Action::Replan { signals, lease } => {
                let parts: Vec<String> = signals
                    .iter()
                    .map(Signal::label)
                    .chain(lease.iter().map(LeaseSignal::label))
                    .collect();
                format!("replan on [{}]", parts.join(", "))
            }
        }
    }

    /// The signals that caused this action — what the reaction branch
    /// commits to the report (the rest of the probe's observations
    /// belong to a discarded timeline).
    fn triggers(&self) -> (Vec<Signal>, Vec<LeaseSignal>) {
        match self {
            Action::EnableReorder { trigger, .. } => (vec![trigger.clone()], Vec::new()),
            Action::Replan { signals, lease } => (signals.clone(), lease.clone()),
        }
    }
}

/// The sink every segment records into: it appends each span to the
/// run's merged trace, rebased to global time and to global minibatch
/// and wave numbering, and — while probing — folds it into the
/// monitor in segment-local time. So a segment's spans are recorded
/// once, where the report keeps them.
struct SegmentSink {
    /// The report's trace, moved in for the segment.
    trace: Trace<SpanTag>,
    offset: SimTime,
    mb_offset: u64,
    wave_offset: u64,
    /// The monitor's fold, on probes only.
    monitor: Option<MonitorFold>,
}

impl SpanSink<SpanTag> for SegmentSink {
    fn record(&mut self, resource: ResourceId, start: SimTime, end: SimTime, tag: SpanTag) {
        if let Some(monitor) = &mut self.monitor {
            monitor.observe(tag, start, end);
        }
        let tag = match tag {
            SpanTag::Forward { vw, stage, mb } => SpanTag::Forward {
                vw,
                stage,
                mb: mb + self.mb_offset,
            },
            SpanTag::Backward { vw, stage, mb } => SpanTag::Backward {
                vw,
                stage,
                mb: mb + self.mb_offset,
            },
            SpanTag::Recompute { vw, stage, mb } => SpanTag::Recompute {
                vw,
                stage,
                mb: mb + self.mb_offset,
            },
            SpanTag::SyncTransfer { vw, wave, pull } => SpanTag::SyncTransfer {
                vw,
                wave: wave + self.wave_offset,
                pull,
            },
            other => other,
        };
        self.trace
            .record(resource, start + self.offset, end + self.offset, tag);
    }

    fn into_trace(self) -> Trace<SpanTag> {
        self.trace
    }
}

/// Mutable controller state across epochs.
struct Controller<'a> {
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
    reorder: usize,
    // Global accumulators.
    offset: SimTime,
    mb_offset: u64,
    wave_offset: u64,
    reactions: usize,
    report: RuntimeReport,
    /// Every probe's inputs and in-run signals, for the monitor fold's
    /// parity test.
    #[cfg(test)]
    probes: Vec<tests::Probe>,
}

impl<'a> Controller<'a> {
    fn new(p: RuntimeParams<'a>, horizon: SimTime) -> Self {
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
            reorder: 0,
            offset: SimTime::ZERO,
            mb_offset: 0,
            wave_offset: 0,
            reactions: 0,
            report,
            p,
            #[cfg(test)]
            probes: Vec::new(),
        }
    }

    /// One segment's executor options under the current config.
    fn segment_opts(&self, stop_after_mb: Option<u64>) -> SegmentOpts {
        let (initial_rates, rate_events) = self.p.script.segment_rates(self.offset);
        SegmentOpts {
            stop_after_mb,
            initial_rates,
            rate_events,
            reorder_window: self.reorder,
        }
    }

    /// The one segment runner: simulates `remaining` under the current
    /// configuration, recording every span straight into the report's
    /// trace (rebased). A probe (no stop point) also folds the monitor
    /// and returns it.
    fn run_segment(
        &mut self,
        stop_after_mb: Option<u64>,
        remaining: SimTime,
    ) -> (RunStats, Option<MonitorFold>) {
        let opts = self.segment_opts(stop_after_mb);
        let monitor = stop_after_mb.is_none().then(|| {
            let (fwd, bwd) = exec::planned_stage_times(self.p.cluster, self.p.graph, &self.vws);
            MonitorFold::new(&self.vws, self.p.schedule, &self.applied, &fwd, &bwd)
        });
        let sink = SegmentSink {
            trace: std::mem::take(&mut self.report.trace),
            offset: self.offset,
            mb_offset: self.mb_offset,
            wave_offset: self.wave_offset,
            monitor,
        };
        let shards = ShardMap::build(self.p.placement, self.p.graph, self.p.cluster, &self.vws[0]);
        let params = ExecParams {
            cluster: self.p.cluster,
            graph: self.p.graph,
            vws: &self.vws,
            wsp: WspParams::new(self.nm, self.p.wsp.d),
            shards: &shards,
            sync_transfers: self.p.sync_transfers,
            schedule: self.p.schedule,
            recompute: self.p.recompute,
        };
        let (stats, sink, _) = exec::run_into(params, opts, remaining, sink, None);
        self.report.trace = sink.trace;
        (stats, sink.monitor)
    }

    /// Folds a committed segment into the global report. Its spans are
    /// already there: the segment recorded them as it ran.
    fn commit(&mut self, stats: &RunStats, action: Option<String>) {
        let off = self.offset;
        if self.report.resource_names.is_empty() {
            self.report.resource_names = stats.pool.iter().map(|(_, r)| r.name.clone()).collect();
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
        });
    }

    /// Logs a probe's signals (global times) into the report.
    fn log_signals(&mut self, signals: &[Signal]) {
        for s in signals {
            let at = s.at() + self.offset;
            self.report.signals.push((at, s.label()));
            self.report.instants.push((at, s.label(), "signal"));
        }
    }

    /// Logs acted-on lease signals (global times) into the report.
    fn log_lease(&mut self, lease: &[LeaseSignal]) {
        for s in lease {
            let at = s.at() + self.offset;
            self.report.signals.push((at, s.label()));
            self.report.instants.push((at, s.label(), "signal"));
        }
    }

    /// The stable, actionable lease transitions visible to this
    /// probe, in segment-local detection time.
    ///
    /// A transition at global `t` is **stable** iff no opposite
    /// transition of the same GPU falls within `(t, t + hysteresis]`;
    /// its detection instant is `t + hysteresis` (the controller
    /// waits the window out before believing the lease manager), so
    /// a flapping lease is never acted on at all.
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
    fn lease_signals(&self, probe_end: SimTime) -> Vec<LeaseSignal> {
        let transitions = self.p.script.lease_transitions();
        if transitions.is_empty() {
            return Vec::new();
        }
        let hysteresis = SimTime::from_secs(self.p.monitor.lease_hysteresis_secs);
        let devices = self.p.cluster.devices().count();
        let active: BTreeSet<DeviceId> = self
            .vws
            .iter()
            .flat_map(|vw| vw.devices.iter().copied())
            .collect();
        let mut out = Vec::new();
        for t in &transitions {
            if t.gpu >= devices {
                continue; // Not a device of this cluster.
            }
            let stable = !transitions.iter().any(|o| {
                o.gpu == t.gpu
                    && o.available != t.available
                    && o.at > t.at
                    && o.at - t.at <= hysteresis
            });
            if !stable {
                continue;
            }
            let detect = t.at + hysteresis;
            let end = self.offset + probe_end;
            if detect > end {
                continue; // Not yet detected within this run.
            }
            if detect <= self.offset {
                // Settled by an earlier segment (acted on or
                // suppressed); never re-armed.
                continue;
            }
            let local = detect - self.offset;
            let device = DeviceId(t.gpu);
            if t.available {
                if self.dead.contains(&device) || !active.contains(&device) {
                    out.push(LeaseSignal::Granted { device, at: local });
                }
            } else if active.contains(&device) && !self.dead.contains(&device) {
                out.push(LeaseSignal::Preempted { device, at: local });
            }
        }
        out.sort_by_key(LeaseSignal::at);
        out
    }

    /// What, if anything, the policy does with this probe's signals.
    /// Lease transitions are actionable by [`Policy::Replan`] only —
    /// the static and reorder policies keep today's behaviour, which
    /// is what makes them honest baselines under lease scenarios.
    fn decide(&self, signals: &[Signal], lease: &[LeaseSignal]) -> Option<(SimTime, Action)> {
        if self.reactions >= self.p.max_reactions {
            return None;
        }
        match self.p.policy {
            Policy::Static => None,
            Policy::SkipStraggler { window } => {
                // Already reordering, or one-stage lanes the reorder
                // cannot change: a splice would only cost a refill.
                if self.reorder > 0 || self.p.schedule.dispatch() != Dispatch::GpuStreamOrder {
                    return None;
                }
                signals
                    .iter()
                    .find(|s| matches!(s, Signal::Straggler { .. }))
                    .map(|s| {
                        (
                            s.at(),
                            Action::EnableReorder {
                                window,
                                trigger: s.clone(),
                            },
                        )
                    })
            }
            Policy::Replan => {
                let actionable: Vec<Signal> = signals
                    .iter()
                    .filter(|s| {
                        matches!(
                            s,
                            Signal::Straggler { .. }
                                | Signal::GpuLost { .. }
                                | Signal::Recovered { .. }
                        )
                    })
                    .cloned()
                    .collect();
                let first = actionable
                    .first()
                    .map(Signal::at)
                    .into_iter()
                    .chain(lease.first().map(LeaseSignal::at))
                    .min()?;
                Some((
                    first,
                    Action::Replan {
                        signals: actionable,
                        lease: lease.to_vec(),
                    },
                ))
            }
        }
    }

    /// The first wave boundary (as a segment-local minibatch count)
    /// at/after `t_sig` that the probe shows *every* VW completing —
    /// falling back to the last fully completed wave when the
    /// pipeline stalled (GPU loss), or 0 (an immediate, zero-length
    /// splice epoch) when no wave completed at all; the 0 case cannot
    /// loop because every action changes the configuration and the
    /// reaction budget bounds it regardless.
    ///
    /// One guard: under the executor's rate-timeline integration, a
    /// wave whose task *crosses* an outage window completes only when
    /// the outage lifts, so the first boundary at/after the signal
    /// can sit far beyond it — draining there would ride out the
    /// whole outage under the old plan and make the reaction
    /// worthless. When the chosen boundary lies more than two typical
    /// wave periods past the signal, splice at the *previous* (last
    /// pre-outage) boundary instead: any drained boundary is fully
    /// synchronized, so an earlier one is just as sound.
    fn splice_boundary(&self, probe: &RunStats, t_sig: SimTime) -> u64 {
        let nm = self.nm as u64;
        let full_waves = probe
            .vws
            .iter()
            .map(|v| v.completions.len() as u64 / nm)
            .min()
            .unwrap_or(0);
        if full_waves == 0 {
            return 0;
        }
        // Boundary instant of each whole wave (max across VWs).
        let times: Vec<SimTime> = (0..full_waves)
            .map(|w| {
                let last_mb = ((w + 1) * nm - 1) as usize;
                probe
                    .vws
                    .iter()
                    .map(|v| v.completions[last_mb])
                    .max()
                    .expect("at least one VW")
            })
            .collect();
        // Typical inter-boundary gap: the median is robust to the
        // few outage-inflated waves.
        let mut gaps: Vec<SimTime> = times.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort();
        let period = gaps.get(gaps.len() / 2).copied().unwrap_or(times[0]);
        for (w, &boundary) in times.iter().enumerate() {
            if boundary >= t_sig {
                let w = w as u64;
                if boundary - t_sig > period + period {
                    // Outage-inflated boundary: take the previous one.
                    return w * nm;
                }
                return (w + 1) * nm;
            }
        }
        // Completions ceased before the signal (a stalled pipeline):
        // splice at the last whole wave.
        full_waves * nm
    }

    /// Applies a decided action at a committed splice.
    fn apply(&mut self, action: Action) {
        match action {
            Action::EnableReorder { window, .. } => {
                self.reorder = window;
            }
            Action::Replan { signals, lease } => {
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
                            // Converges with the monitor's
                            // observational GpuLost (idempotent).
                            self.dead.insert(device);
                        }
                        LeaseSignal::Granted { device, .. } => {
                            grew = true;
                            self.dead.remove(&device);
                            // A re-admitted GPU starts at nominal:
                            // stale derates belong to its old lease.
                            for i in 0..self.vws.len() {
                                self.applied_dev.remove(&(i, device));
                            }
                            if !self.roster.iter().any(|r| r.contains(&device)) {
                                // A brand-new grant joins the
                                // narrowest pipeline.
                                if let Some(r) = self.roster.iter_mut().min_by_key(|r| r.len()) {
                                    r.push(device);
                                }
                            }
                        }
                    }
                }
                // A grow-splice may re-raise Nm up to the initial
                // value: the widened pipeline restored the memory
                // headroom the shrink had taken away.
                let ceiling = if grew {
                    self.initial_nm.max(self.nm)
                } else {
                    self.nm
                };
                self.replan(ceiling);
            }
        }
    }

    /// One VW's replan attempt at `nm`, warm-started from its current
    /// plan when the device list and `nm` are unchanged (the warm
    /// start is answer-preserving). A partition error (infeasible
    /// `nm`) surfaces so the caller can lower `nm`.
    fn solve_replan(
        &self,
        i: usize,
        expanded: &[DeviceId],
        derate: &[f64],
        nm: usize,
    ) -> Result<hetpipe_partition::PartitionPlan, hetpipe_partition::PartitionError> {
        let vw = &self.vws[i];
        let incumbent =
            (vw.devices == expanded && vw.nm == nm).then_some(vw.plan.ranges.as_slice());
        replan_vw_from_observed(
            self.p.cluster,
            self.p.graph,
            expanded,
            derate,
            nm,
            self.p.schedule,
            self.p.recompute,
            incumbent,
        )
    }

    /// Rebuilds every VW's plan from observed costs and surviving
    /// GPUs, starting at `ceiling` and lowering the common `Nm` until
    /// the pipeline solves (`ceiling` exceeds the current `Nm` only
    /// for a grow-splice). Survivors come from the *roster*, not the
    /// current plan, so a GPU dropped by an earlier shrink keeps its
    /// pipeline position and is re-admitted the moment it leaves the
    /// dead set. On total failure the old configuration is kept (the
    /// reaction budget stops the loop).
    fn replan(&mut self, ceiling: usize) {
        let schedule = self.p.schedule;
        // Per VW: surviving physical devices (roster order preserved).
        let mut survivors: Vec<Vec<DeviceId>> = Vec::with_capacity(self.vws.len());
        for roster in &self.roster {
            let phys: Vec<DeviceId> = roster
                .iter()
                .copied()
                .filter(|d| !self.dead.contains(d))
                .collect();
            if phys.is_empty() {
                return; // Nothing left to run on; keep the old config.
            }
            survivors.push(phys);
        }
        // Try the highest Nm first, lowering until every VW solves.
        'nm: for nm in (1..=ceiling).rev() {
            let mut new_vws = Vec::with_capacity(self.vws.len());
            for (i, phys) in survivors.iter().enumerate() {
                let vk = schedule.virtual_stages(phys.len());
                let expanded: Vec<DeviceId> = (0..vk).map(|s| phys[s % phys.len()]).collect();
                let derate: Vec<f64> = expanded
                    .iter()
                    .map(|d| self.applied_dev.get(&(i, *d)).copied().unwrap_or(1.0))
                    .collect();
                let plan = self.solve_replan(i, &expanded, &derate, nm);
                match plan {
                    Ok(plan) => new_vws.push(VirtualWorker {
                        index: i,
                        devices: expanded,
                        plan,
                        nm,
                    }),
                    Err(_) => continue 'nm,
                }
            }
            self.vws = new_vws;
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
            return;
        }
        // No feasible Nm: keep the old configuration.
    }

    fn run(mut self, horizon: SimTime) -> RuntimeReport {
        self.drive(horizon);
        self.report.instants.sort_by_key(|i| i.0);
        self.report.signals.sort_by_key(|i| i.0);
        self.report.final_vws = self.vws;
        self.report.final_nm = self.nm;
        self.report
    }

    /// Probes, reacts and commits epochs until the horizon.
    fn drive(&mut self, horizon: SimTime) {
        loop {
            let remaining = horizon - self.offset;
            if remaining.is_zero() {
                break;
            }
            // The probe records into the report's trace; a reaction
            // cuts it back to here.
            let mark = self.report.trace.len();
            let (probe, monitor) = self.run_segment(None, remaining);
            let signals = monitor.expect("a probe folds the monitor").signals();
            #[cfg(test)]
            self.probes.push(tests::Probe {
                vws: self.vws.clone(),
                nm: self.nm,
                opts: self.segment_opts(None),
                remaining,
                applied: self.applied.clone(),
                signals: signals.clone(),
            });
            let lease = self.lease_signals(probe.end);
            match self.decide(&signals, &lease) {
                None => {
                    // Nothing to react to: the probe is the final
                    // epoch (for a zero-fault script this is exactly
                    // the plain one-shot run), and its signals are
                    // observations of the committed timeline.
                    self.log_signals(&signals);
                    self.commit(&probe, None);
                    break;
                }
                Some((t_sig, action)) => {
                    let stop = self.splice_boundary(&probe, t_sig);
                    self.report.trace.truncate(mark);
                    let (stats, _) = self.run_segment(Some(stop), remaining);
                    // Log only the signals the policy acted on:
                    // everything else the probe observed belongs to a
                    // discarded timeline and would leave phantom
                    // markers in the report.
                    let (sig_triggers, lease_triggers) = action.triggers();
                    self.log_signals(&sig_triggers);
                    self.log_lease(&lease_triggers);
                    self.commit(&stats, Some(action.label()));
                    self.offset += stats.end;
                    self.mb_offset += stop;
                    self.wave_offset += stop / self.nm as u64;
                    self.apply(action);
                    self.reactions += 1;
                }
            }
        }
    }
}

/// Runs a fault-aware simulation: fault injection, monitoring, and
/// the reactive policy, merged into one global report.
pub fn run(params: RuntimeParams<'_>, horizon: SimTime) -> RuntimeReport {
    Controller::new(params, horizon).run(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Monitor;
    use hetpipe_cluster::GpuKind;
    use hetpipe_partition::{PartitionProblem, PartitionSolver};

    /// One probe as the controller ran it: its inputs and the signals
    /// its in-run monitor fold raised.
    pub(super) struct Probe {
        pub vws: Vec<VirtualWorker>,
        pub nm: usize,
        pub opts: SegmentOpts,
        pub remaining: SimTime,
        pub applied: BTreeMap<(usize, usize), f64>,
        pub signals: Vec<Signal>,
    }

    /// The probes of one run on the whimpy 4×RTX 2060 ResNet-152
    /// configuration at `Nm` = 4 (the runtime pins' cells).
    fn probes_of(
        cluster: &Cluster,
        graph: &ModelGraph,
        schedule: Schedule,
        recompute: RecomputePolicy,
        script: ScenarioScript,
        policy: Policy,
        horizon: SimTime,
    ) -> Vec<Probe> {
        let nm = 4;
        let expanded: Vec<DeviceId> = (0..schedule.virtual_stages(4))
            .map(|s| DeviceId(s % 4))
            .collect();
        let gpus = expanded.iter().map(|&d| cluster.spec_of(d)).collect();
        let links = VirtualWorker::links(cluster, &expanded);
        let plan = PartitionSolver::solve(
            &PartitionProblem::with_schedule(graph, gpus, links, nm, schedule)
                .with_recompute(recompute),
        )
        .expect("feasible");
        let params = RuntimeParams {
            cluster,
            graph,
            vws: vec![VirtualWorker {
                index: 0,
                devices: expanded,
                plan,
                nm,
            }],
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
        let mut controller = Controller::new(params, horizon);
        controller.drive(horizon);
        controller.probes
    }

    /// The in-run monitor fold raises exactly the signals
    /// [`Monitor::analyze`] finds over a kept `exec::run_segment` trace
    /// of the same probe — on every probe (first, post-splice and
    /// final) of the runtime pins' cells. Tier: dynamically audited.
    #[test]
    fn in_run_monitor_fold_matches_kept_trace_analysis() {
        let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
        let graph = hetpipe_model::resnet152(32);
        let horizon = SimTime::from_secs(40.0);
        let wave = (Schedule::HetPipeWave, RecomputePolicy::BoundaryOnly);
        let composite = (
            Schedule::Interleaved1F1B {
                chunks: 2,
                composite: true,
            },
            RecomputePolicy::None,
        );
        let policies = [
            Policy::Static,
            Policy::SkipStraggler { window: 8 },
            Policy::Replan,
        ];
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
        let (mut probes_checked, mut spans_checked, mut signals_checked) = (0, 0, 0);
        for ((schedule, recompute), script, policy) in cells {
            let name = format!("{}/{}", script.name, policy.name());
            let probes = probes_of(
                &cluster, &graph, schedule, recompute, script, policy, horizon,
            );
            for (i, probe) in probes.iter().enumerate() {
                let shards = ShardMap::build(Placement::Default, &graph, &cluster, &probe.vws[0]);
                let kept = exec::run_segment(
                    ExecParams {
                        cluster: &cluster,
                        graph: &graph,
                        vws: &probe.vws,
                        wsp: WspParams::new(probe.nm, 0),
                        shards: &shards,
                        sync_transfers: false,
                        schedule,
                        recompute,
                    },
                    probe.opts.clone(),
                    probe.remaining,
                );
                spans_checked += kept.trace.len();
                let reference = Monitor.analyze(&kept, &probe.vws, schedule, &probe.applied);
                assert_eq!(probe.signals, reference, "{name} probe {i}");
                probes_checked += 1;
                signals_checked += reference.len();
            }
        }
        // Splices add probes past the first of each of the 20 cells,
        // and the cells raise signals of their own.
        assert!(probes_checked > 20, "{probes_checked} probes");
        assert!(
            spans_checked > 100 * probes_checked,
            "{spans_checked} spans"
        );
        assert!(signals_checked > 0, "no probe raised a signal");
    }
}
