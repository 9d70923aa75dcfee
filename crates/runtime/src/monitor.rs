//! The runtime monitor: observed-vs-planned feedback from the span
//! trace.
//!
//! The executor reports what it *planned* (nominal per-stage compute
//! times, `RunStats::planned_fwd` / `RunStats::planned_bwd`) and what
//! it *did* (the span trace). The monitor folds the two into a
//! per-stage EWMA of the observed/planned duration ratio and raises
//! typed signals:
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
//! fault script, only the trace — the feedback channel a real cluster
//! would have.

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

/// The trace-fed monitor. Stateless across segments: the controller
/// passes the derates it has already applied, and the monitor compares
/// fresh observations against them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Monitor;

impl Monitor {
    /// Analyzes one segment's run: EWMA of observed/planned per
    /// (vw, stage) over the compute spans, in recorded (dispatch)
    /// order, checked against `applied` (the controller's current
    /// derate per stage; absent = 1.0). `schedule` disambiguates the
    /// wave schedule's fused last-stage tasks, whose planned time is
    /// forward + backward. Returns all signals ordered by detection
    /// time.
    ///
    /// The fold state and the derates are flat per-stage vectors laid
    /// out by [`VirtualWorker::stage_offsets`].
    pub fn analyze(
        &self,
        stats: &RunStats,
        vws: &[VirtualWorker],
        schedule: Schedule,
        applied: &BTreeMap<(usize, usize), f64>,
    ) -> Vec<Signal> {
        let fused_last = schedule.fused_last_stage();
        let offset = VirtualWorker::stage_offsets(vws);
        let mut stages = vec![StageState::default(); offset[vws.len()]];
        let mut derate = vec![1.0; stages.len()];
        for (&(vw, stage), &r) in applied {
            if vw < vws.len() && stage < vws[vw].stages() {
                derate[offset[vw] + stage] = r;
            }
        }
        for span in stats.trace.spans() {
            let (vw, stage, planned) = match span.tag {
                SpanTag::Forward { vw, stage, .. } | SpanTag::Recompute { vw, stage, .. } => {
                    let (vw, stage) = (vw as usize, stage as usize);
                    (vw, stage, stats.planned_fwd[vw][stage])
                }
                SpanTag::Backward { vw, stage, .. } => {
                    let (vw, stage) = (vw as usize, stage as usize);
                    let planned = if fused_last && stage + 1 == vws[vw].stages() {
                        stats.planned_fwd[vw][stage] + stats.planned_bwd[vw][stage]
                    } else {
                        stats.planned_bwd[vw][stage]
                    };
                    (vw, stage, planned)
                }
                _ => continue,
            };
            if planned.is_zero() {
                continue;
            }
            let ratio = span.duration().as_secs() / planned.as_secs();
            let slot = offset[vw] + stage;
            let st = &mut stages[slot];
            if ratio >= LOST_RATIO && st.lost.is_none() {
                st.lost = Some(span.start);
            }
            st.ewma = if st.seen == 0 {
                ratio
            } else {
                ALPHA * ratio + (1.0 - ALPHA) * st.ewma
            };
            st.seen += 1;
            let base = derate[slot];
            if st.ewma > base * STRAGGLER_RATIO && st.crossed_up.is_none() {
                st.crossed_up = Some(span.end);
            }
            if base > RECOVER_RATIO && st.ewma < RECOVER_RATIO && st.seen >= 3 {
                // Recovery needs hysteresis: the EWMA must *stay*
                // below the threshold for the configured window — a
                // single fast task after a blip must not trigger a
                // re-admission splice.
                let since = *st.below_since.get_or_insert(span.end);
                if st.crossed_down.is_none()
                    && (span.end - since).as_secs() >= RECOVER_HYSTERESIS_SECS
                {
                    st.crossed_down = Some(span.end);
                }
            } else {
                st.below_since = None;
                st.crossed_down = None;
            }
        }

        let mut signals = Vec::new();
        // Slots are laid out in (vw, stage) order.
        let keys = vws
            .iter()
            .enumerate()
            .flat_map(|(vw, w)| (0..w.stages()).map(move |stage| (vw, stage)));
        for (((vw, stage), st), &base) in keys.zip(&stages).zip(&derate) {
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
        signals.sort_by_key(Signal::at);
        signals
    }
}
