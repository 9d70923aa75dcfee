//! The runtime monitor: observed-vs-planned feedback from the spans a
//! segment records.
//!
//! The executor plans nominal per-stage compute times
//! ([`hetpipe_core::exec::planned_stage_times`]) and records what it
//! *did* as spans. The monitor folds the two into a per-stage EWMA of
//! the observed/planned duration ratio and raises typed signals. The
//! fold is [`MonitorFold`]: the controller feeds it each span as the
//! executor records it, so a probe keeps no trace of its own;
//! [`Monitor::analyze`] runs the same fold over a kept trace, the
//! reference the fold's parity test holds it to. The signals:
//!
//! - [`Signal::Straggler`] — a stage's EWMA crossed the straggler
//!   threshold *relative to the severity the controller has already
//!   reacted to* (so a re-planned straggler, whose slowdown is now
//!   part of the plan, does not re-trigger);
//! - [`Signal::Recovered`] — a previously-derated stage has been back
//!   near nominal for at least the recovery hysteresis window (one
//!   fast task after a blip is not a recovery);
//! - [`Signal::GpuLost`] — a stage's task ran absurdly long: the
//!   reservation-time signature of a dead (rate-0) GPU.
//!
//! Detection is purely observational: the monitor never reads the
//! fault script, only the spans — the feedback channel a real cluster
//! would have.
//!
//! # What the monitor judges
//!
//! [`MonitorFold::signals`] reads each stage's EWMA *when it is
//! called*, and the controller calls it at the probe's end. A
//! [`Signal::Straggler`] exists only if the end-of-probe EWMA is still
//! over the threshold (its `at` is the first crossing, but its
//! existence and its `severity` are the final EWMA's), and
//! `Policy::Replan` derates the GPU by that severity. So a slowdown
//! window that closes before the probe ends leaves the EWMA back near
//! nominal and raises nothing. A [`Signal::GpuLost`] is different:
//! one task over the loss ratio raises it, whatever the EWMA does
//! afterwards, so a preemption that is later re-granted still counts.
//! Over 24 elastic-chaos scripts (`e2e_bench`, seeds 1–3) under
//! `Replan`, all 72 logged signals were GPU-loss or lease signals;
//! none came from the 48 slowdown windows or the 24 link degrades
//! (link degrades slow transfers, which the fold skips).

use hetpipe_core::exec::{RunStats, SpanTag};
use hetpipe_core::VirtualWorker;
use hetpipe_des::SimTime;
use hetpipe_schedule::{PipelineSchedule, Schedule};
use std::collections::BTreeMap;

/// EWMA smoothing factor (weight of the newest observation).
const ALPHA: f64 = 0.3;
/// A stage is a straggler when its EWMA ratio exceeds the applied
/// derate by this multiplicative threshold (1.15 = 15% slower than
/// already accounted for).
const STRAGGLER_RATIO: f64 = 1.15;
/// A derated stage has recovered when its EWMA ratio falls back below
/// this (near-nominal) value.
const RECOVER_RATIO: f64 = 1.05;
/// A single task whose observed/planned ratio exceeds this is a dead
/// GPU (the rate-0 reservation signature), not a straggler.
const LOST_RATIO: f64 = 50.0;
/// Hysteresis for [`Signal::Recovered`]: the EWMA must stay below
/// [`RECOVER_RATIO`] for at least this long (simulated seconds) before
/// the signal is raised, so one fast task after a blip does not
/// trigger a re-admission splice.
const RECOVER_HYSTERESIS_SECS: f64 = 1.0;

/// Runtime tuning the controller reads.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Hysteresis for control-plane lease transitions: a grant or
    /// preemption only becomes actionable if no opposite transition
    /// on the same GPU follows within this window (simulated
    /// seconds) — an oscillating lease that flaps faster than this
    /// produces zero splices.
    pub lease_hysteresis_secs: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            lease_hysteresis_secs: 2.0,
        }
    }
}

/// A typed monitor signal, in segment-local time.
#[derive(Debug, Clone, PartialEq)]
pub enum Signal {
    /// A stage is persistently slower than planned.
    Straggler {
        /// Virtual worker.
        vw: usize,
        /// Executor (virtual) stage.
        stage: usize,
        /// Final EWMA observed/planned ratio — what a re-plan should
        /// derate the stage's GPU by.
        severity: f64,
        /// First instant the EWMA crossed the threshold.
        at: SimTime,
    },
    /// A previously-derated stage is back near nominal speed.
    Recovered {
        /// Virtual worker.
        vw: usize,
        /// Executor (virtual) stage.
        stage: usize,
        /// Final EWMA observed/planned ratio.
        severity: f64,
        /// First instant the EWMA fell below the recovery threshold.
        at: SimTime,
    },
    /// A stage's GPU is gone (its task would never finish).
    GpuLost {
        /// Virtual worker.
        vw: usize,
        /// Executor (virtual) stage.
        stage: usize,
        /// Detection instant (start of the dead task).
        at: SimTime,
    },
}

impl Signal {
    /// Segment-local detection time.
    pub fn at(&self) -> SimTime {
        match self {
            Signal::Straggler { at, .. }
            | Signal::Recovered { at, .. }
            | Signal::GpuLost { at, .. } => *at,
        }
    }

    /// The `(vw, stage)` the signal refers to.
    pub fn stage_key(&self) -> (usize, usize) {
        match self {
            Signal::Straggler { vw, stage, .. }
            | Signal::Recovered { vw, stage, .. }
            | Signal::GpuLost { vw, stage, .. } => (*vw, *stage),
        }
    }

    /// A short label for reports and trace markers.
    pub fn label(&self) -> String {
        match self {
            Signal::Straggler {
                vw,
                stage,
                severity,
                ..
            } => format!("straggler: vw{vw} stage{stage} x{severity:.2}"),
            Signal::Recovered {
                vw,
                stage,
                severity,
                ..
            } => format!("recovered: vw{vw} stage{stage} x{severity:.2}"),
            Signal::GpuLost { vw, stage, .. } => format!("gpu lost: vw{vw} stage{stage}"),
        }
    }
}

/// One (vw, stage)'s EWMA fold state; `seen == 0` until the stage's
/// first compute span.
#[derive(Clone, Default)]
struct StageState {
    ewma: f64,
    seen: usize,
    crossed_up: Option<SimTime>,
    crossed_down: Option<SimTime>,
    /// First span end of the current below-recovery-threshold streak
    /// (reset whenever the EWMA pops back above), for the recovery
    /// hysteresis window.
    below_since: Option<SimTime>,
    lost: Option<SimTime>,
}

/// The monitor's running fold over one segment's spans: the per-stage
/// EWMA of observed/planned compute durations, in recording
/// (dispatch) order, checked against the derates the controller has
/// already applied. [`MonitorFold::observe`] takes each span as the
/// executor records it, in segment-local time, so the controller
/// folds while a probe runs and keeps no probe trace;
/// [`Monitor::analyze`] runs the same fold over a kept trace.
///
/// The fold state, the derates and the planned times are flat
/// per-stage vectors laid out by [`VirtualWorker::stage_offsets`].
pub struct MonitorFold {
    /// Stage offsets per VW (`offset[vw] + stage` is a slot).
    offset: Vec<usize>,
    /// Planned forward (and recompute) time per slot.
    planned_fwd: Vec<SimTime>,
    /// Planned backward time per slot: forward + backward for the
    /// wave schedule's fused last-stage tasks.
    planned_bwd: Vec<SimTime>,
    /// The applied derate per slot (1.0 = none).
    derate: Vec<f64>,
    stages: Vec<StageState>,
}

impl MonitorFold {
    /// An empty fold for a segment running `vws` under `schedule`,
    /// with `applied` the controller's current derate per
    /// `(vw, stage)` (absent = 1.0) and `planned_fwd` / `planned_bwd`
    /// the segment's planned per-stage times
    /// ([`hetpipe_core::exec::planned_stage_times`]).
    pub fn new(
        vws: &[VirtualWorker],
        schedule: Schedule,
        applied: &BTreeMap<(usize, usize), f64>,
        planned_fwd: &[Vec<SimTime>],
        planned_bwd: &[Vec<SimTime>],
    ) -> MonitorFold {
        let fused_last = schedule.fused_last_stage();
        let offset = VirtualWorker::stage_offsets(vws);
        let slots = offset[vws.len()];
        let mut fwd = Vec::with_capacity(slots);
        let mut bwd = Vec::with_capacity(slots);
        for (vw, w) in vws.iter().enumerate() {
            for stage in 0..w.stages() {
                let (f, b) = (planned_fwd[vw][stage], planned_bwd[vw][stage]);
                fwd.push(f);
                bwd.push(if fused_last && stage + 1 == w.stages() {
                    f + b
                } else {
                    b
                });
            }
        }
        let mut derate = vec![1.0; slots];
        for (&(vw, stage), &r) in applied {
            if vw < vws.len() && stage < vws[vw].stages() {
                derate[offset[vw] + stage] = r;
            }
        }
        MonitorFold {
            offset,
            planned_fwd: fwd,
            planned_bwd: bwd,
            derate,
            stages: vec![StageState::default(); slots],
        }
    }

    /// Folds one recorded span (segment-local times). Transfer spans
    /// carry no compute ratio and are skipped.
    pub fn observe(&mut self, tag: SpanTag, start: SimTime, end: SimTime) {
        let (slot, planned) = match tag {
            SpanTag::Forward { vw, stage, .. } | SpanTag::Recompute { vw, stage, .. } => {
                let slot = self.offset[vw as usize] + stage as usize;
                (slot, self.planned_fwd[slot])
            }
            SpanTag::Backward { vw, stage, .. } => {
                let slot = self.offset[vw as usize] + stage as usize;
                (slot, self.planned_bwd[slot])
            }
            _ => return,
        };
        if planned.is_zero() {
            return;
        }
        let ratio = (end - start).as_secs() / planned.as_secs();
        let st = &mut self.stages[slot];
        if ratio >= LOST_RATIO && st.lost.is_none() {
            st.lost = Some(start);
        }
        st.ewma = if st.seen == 0 {
            ratio
        } else {
            ALPHA * ratio + (1.0 - ALPHA) * st.ewma
        };
        st.seen += 1;
        let base = self.derate[slot];
        if st.ewma > base * STRAGGLER_RATIO && st.crossed_up.is_none() {
            st.crossed_up = Some(end);
        }
        if base > RECOVER_RATIO && st.ewma < RECOVER_RATIO && st.seen >= 3 {
            // Recovery needs hysteresis: the EWMA must *stay* below
            // the threshold for the configured window — a single fast
            // task after a blip must not trigger a re-admission
            // splice.
            let since = *st.below_since.get_or_insert(end);
            if st.crossed_down.is_none() && (end - since).as_secs() >= RECOVER_HYSTERESIS_SECS {
                st.crossed_down = Some(end);
            }
        } else {
            st.below_since = None;
            st.crossed_down = None;
        }
    }

    /// The signals of the spans folded so far, ordered by detection
    /// time. Existence and severity read the EWMA *now* — at a
    /// probe's end, the end-of-probe EWMA (see the module docs).
    pub fn signals(&self) -> Vec<Signal> {
        let mut signals = Vec::new();
        for vw in 0..self.offset.len() - 1 {
            for slot in self.offset[vw]..self.offset[vw + 1] {
                let (st, base) = (&self.stages[slot], self.derate[slot]);
                let stage = slot - self.offset[vw];
                if st.seen == 0 {
                    continue;
                }
                if let Some(at) = st.lost {
                    signals.push(Signal::GpuLost { vw, stage, at });
                    continue;
                }
                if st.ewma > base * STRAGGLER_RATIO {
                    if let Some(at) = st.crossed_up {
                        signals.push(Signal::Straggler {
                            vw,
                            stage,
                            severity: st.ewma,
                            at,
                        });
                    }
                } else if base > RECOVER_RATIO && st.ewma < RECOVER_RATIO {
                    if let Some(at) = st.crossed_down {
                        signals.push(Signal::Recovered {
                            vw,
                            stage,
                            severity: st.ewma,
                            at,
                        });
                    }
                }
            }
        }
        signals.sort_by_key(Signal::at);
        signals
    }
}

/// The trace-fed monitor. Stateless across segments: the controller
/// passes the derates it has already applied, and the monitor compares
/// fresh observations against them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Monitor;

impl Monitor {
    /// Analyzes one segment's kept trace: a [`MonitorFold`] over every
    /// span of `stats.trace`, in recording order, against the run's own
    /// planned times. The controller folds while its probes run
    /// instead; this is the kept-trace reference the fold's parity
    /// test holds it to. `schedule` disambiguates the wave schedule's
    /// fused last-stage tasks, whose planned time is forward +
    /// backward. Returns all signals ordered by detection time.
    pub fn analyze(
        &self,
        stats: &RunStats,
        vws: &[VirtualWorker],
        schedule: Schedule,
        applied: &BTreeMap<(usize, usize), f64>,
    ) -> Vec<Signal> {
        let mut fold = MonitorFold::new(
            vws,
            schedule,
            applied,
            &stats.planned_fwd,
            &stats.planned_bwd,
        );
        for span in stats.trace.spans() {
            fold.observe(span.tag, span.start, span.end);
        }
        fold.signals()
    }
}
