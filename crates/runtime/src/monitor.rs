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
//! - [`Signal::Straggler`] — a stage's EWMA has stayed over the
//!   straggler threshold for the hysteresis window, *relative to the
//!   severity the controller has already reacted to* (so a re-planned
//!   straggler, whose slowdown is now part of the plan, does not
//!   re-trigger);
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
//! [`MonitorFold::signals`] reads each stage's EWMA as it stands after
//! the spans folded so far, and the controller's probes call it at each
//! judgement instant as they run (each new whole wave, each new GPU
//! loss, each lease detection instant; see the controller docs). So the
//! signals are causal: a slowdown window is judged while it lasts.
//!
//! - A [`Signal::Straggler`] needs the EWMA to have stayed over the
//!   threshold for the hysteresis window, the same one a recovery
//!   waits out. A crossing resets when the EWMA falls back under, so a
//!   blip shorter than the window (a sub-hysteresis lease flap) raises
//!   nothing. Its `at` is the start of the current streak over the
//!   threshold, and its `severity` is the EWMA of the judgement
//!   instant, which `Policy::Replan` derates the GPU by.
//! - A [`Signal::Recovered`] needs the EWMA of a derated stage to have
//!   stayed near nominal for the window.
//! - A [`Signal::GpuLost`] is different: one task over the loss ratio
//!   raises it, whatever the EWMA does afterwards, so a preemption that
//!   is later re-granted still counts.
//!
//! Over 24 elastic-chaos scripts (`e2e_bench`, seeds 1–3, eight
//! scripts each) under `Replan`, the runs logged 144 signals. Each of
//! the 48 slowdown windows raised a straggler inside the window and a
//! recovery after it (48 and 48). Each of the 24 preemptions raised a
//! GPU loss, and each of the 24 re-grants a lease grant. No lease
//! preemption was logged: the GPU loss is judged first, when the dead
//! task is recorded, and once the device is dead its preemption is no
//! longer actionable. The 24 link degrades raised nothing, because the
//! fold skips transfer spans.

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
/// Hysteresis for both directions (simulated seconds): the EWMA must
/// stay over the straggler threshold this long before a
/// [`Signal::Straggler`] is raised, and below [`RECOVER_RATIO`] this
/// long before a [`Signal::Recovered`] is, so neither a blip nor one
/// fast task after it triggers a splice.
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
        /// EWMA observed/planned ratio when the signal was read — what a
        /// re-plan should derate the stage's GPU by.
        severity: f64,
        /// Start of the EWMA's current streak over the threshold.
        at: SimTime,
    },
    /// A previously-derated stage is back near nominal speed.
    Recovered {
        /// Virtual worker.
        vw: usize,
        /// Executor (virtual) stage.
        stage: usize,
        /// EWMA observed/planned ratio when the signal was read.
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
    /// First span end of the current over-straggler-threshold streak
    /// (reset whenever the EWMA falls back under).
    crossed_up: Option<SimTime>,
    /// The streak has lasted the hysteresis window: the straggler is
    /// actionable.
    straggling: bool,
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
    /// Stages with a task over the loss ratio so far.
    losses: usize,
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
            losses: 0,
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
            self.losses += 1;
        }
        st.ewma = if st.seen == 0 {
            ratio
        } else {
            ALPHA * ratio + (1.0 - ALPHA) * st.ewma
        };
        st.seen += 1;
        let base = self.derate[slot];
        if st.ewma > base * STRAGGLER_RATIO {
            // A straggler needs the same hysteresis as a recovery: the
            // EWMA must stay over the threshold for the window, so a
            // blip shorter than it (a sub-hysteresis lease flap) does
            // not trigger a splice.
            let since = *st.crossed_up.get_or_insert(end);
            st.straggling |= (end - since).as_secs() >= RECOVER_HYSTERESIS_SECS;
        } else {
            st.crossed_up = None;
            st.straggling = false;
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

    /// How many stages have run a task over the loss ratio so far: a
    /// new one is a [`Signal::GpuLost`] to judge at once.
    pub fn losses(&self) -> usize {
        self.losses
    }

    /// The signals of the spans folded so far, ordered by detection
    /// time. Existence and severity read the EWMA as it stands now,
    /// after the spans recorded so far (see the module docs).
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
                if st.straggling {
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
    /// Analyzes the first `spans` spans of one segment's kept trace: a
    /// [`MonitorFold`] over them, in recording order, against the run's
    /// own planned times, so the signals as they stood once the run had
    /// recorded that many. The controller folds while its probes run
    /// instead; this is the kept-trace reference the fold's parity test
    /// holds it to at each judgement. `schedule` disambiguates the wave
    /// schedule's fused last-stage tasks, whose planned time is forward
    /// + backward. Returns all signals ordered by detection time.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds fewer than `spans` spans.
    pub fn analyze(
        &self,
        stats: &RunStats,
        vws: &[VirtualWorker],
        schedule: Schedule,
        applied: &BTreeMap<(usize, usize), f64>,
        spans: usize,
    ) -> Vec<Signal> {
        let mut fold = MonitorFold::new(
            vws,
            schedule,
            applied,
            &stats.planned_fwd,
            &stats.planned_bwd,
        );
        for span in &stats.trace.spans()[..spans] {
            fold.observe(span.tag, span.start, span.end);
        }
        fold.signals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fold over one stage whose tasks are planned at 0.1 s.
    fn one_stage() -> MonitorFold {
        let planned = SimTime::from_secs(0.1);
        MonitorFold {
            offset: vec![0, 1],
            planned_fwd: vec![planned],
            planned_bwd: vec![planned],
            derate: vec![1.0],
            stages: vec![StageState::default()],
            losses: 0,
        }
    }

    /// Folds back-to-back forwards from `t` for about `secs`, each
    /// taking `ratio` times its plan; returns where the last one ends.
    fn run(fold: &mut MonitorFold, mut t: f64, secs: f64, ratio: f64) -> f64 {
        let end = t + secs;
        while t < end {
            let next = t + 0.1 * ratio;
            let tag = SpanTag::Forward {
                vw: 0,
                stage: 0,
                mb: 1,
            };
            fold.observe(tag, SimTime::from_secs(t), SimTime::from_secs(next));
            t = next;
        }
        t
    }

    fn stragglers(fold: &MonitorFold) -> Vec<SimTime> {
        let signals = fold.signals().into_iter();
        signals
            .filter_map(|s| match s {
                Signal::Straggler { at, .. } => Some(at),
                _ => None,
            })
            .collect()
    }

    /// The EWMA weighs the newest ratio by 0.3: over ratios 1, 2, 1.5
    /// and 3 it reads 1, 1.3, 1.36 and 1.852, computed by hand. Tier:
    /// unit.
    #[test]
    fn the_ewma_weighs_the_newest_ratio_by_three_tenths() {
        let mut fold = one_stage();
        let planned = SimTime::from_secs(1.0);
        fold.planned_fwd = vec![planned];
        let mut t = SimTime::ZERO;
        let mut read = Vec::new();
        for secs in [1.0, 2.0, 1.5, 3.0] {
            let end = t + SimTime::from_secs(secs);
            let tag = SpanTag::Forward {
                vw: 0,
                stage: 0,
                mb: 1,
            };
            fold.observe(tag, t, end);
            read.push(fold.stages[0].ewma);
            t = end;
        }
        for (got, want) in read.iter().zip([1.0, 1.3, 1.36, 1.852]) {
            assert!((got - want).abs() < 1e-12, "{read:?}");
        }
    }

    /// A straggler is raised only once the EWMA has stayed over the
    /// threshold for the hysteresis window, and a dip back under
    /// restarts the window. Tier: unit.
    #[test]
    fn a_straggler_waits_out_the_hysteresis_and_a_dip_resets_it() {
        let mut fold = one_stage();
        let t = run(&mut fold, 0.0, 2.0, 1.0);
        // A ×1.5 blip shorter than the window raises nothing.
        let t = run(&mut fold, t, 0.6, 1.5);
        assert!(fold.stages[0].crossed_up.is_some(), "the blip crossed");
        assert!(stragglers(&fold).is_empty());
        // Back near nominal, the EWMA falls under and the crossing
        // resets.
        let t = run(&mut fold, t, 1.0, 1.0);
        assert!(fold.stages[0].crossed_up.is_none());
        // A lasting ×1.5 slowdown: nothing within the window, then one
        // straggler dated at the start of the new streak.
        let t0 = run(&mut fold, t, 0.5, 1.5);
        assert!(stragglers(&fold).is_empty());
        run(&mut fold, t0, 1.0, 1.5);
        let at = stragglers(&fold);
        assert_eq!(at.len(), 1, "{at:?}");
        assert!(
            at[0] > SimTime::from_secs(t) && at[0] < SimTime::from_secs(t0),
            "{at:?} outside ({t}, {t0})"
        );
    }
}
