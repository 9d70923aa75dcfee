//! Post-run reports.
//!
//! Turns raw [`RunStats`] into the quantities the
//! paper's evaluation section reports: throughput in images/second
//! (all figures), per-GPU utilization (Figure 3), waiting vs true idle
//! time during synchronization (Section 8.4), and the cross-node traffic
//! split (the 515 MB vs 103 MB comparison in Section 8.3).
//!
//! One fold turns spans into busy and idle time (`ReportFold`). A run
//! folds its report while it executes, so it needs no kept trace:
//! [`HetPipeSystem::run_into`] and [`HetPipeSystem::run_with_stats`]
//! return that report. [`SystemReport::from_stats`] replays a kept
//! trace through the same fold, for any warm-up
//! (`tests/report_parity.rs` checks both against per-window trace
//! queries, bit for bit).
//!
//! [`HetPipeSystem::run_into`]: crate::HetPipeSystem::run_into
//! [`HetPipeSystem::run_with_stats`]: crate::HetPipeSystem::run_with_stats

use crate::exec::fastforward::Normal;
use crate::exec::RunStats;
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_des::SimTime;
use std::collections::VecDeque;

/// A complete report of one simulated training run.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Minibatch size the model profile was built for.
    pub batch_size: usize,
    /// Measurement window start (warm-up excluded).
    pub warmup: SimTime,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Minibatches completed inside the measurement window, per VW.
    pub minibatches_per_vw: Vec<u64>,
    /// Waves pushed per VW over the whole run.
    pub waves_per_vw: Vec<u64>,
    /// Per-device utilization within the measurement window.
    pub gpu_utilization: Vec<(DeviceId, f64)>,
    /// Per-VW maximum average stage utilization (the Figure-3 metric).
    pub max_stage_utilization: Vec<f64>,
    /// Total pull waiting time per VW (Section 8.4).
    pub pull_wait_per_vw: Vec<SimTime>,
    /// True idle time inside the waiting windows per VW (Section 8.4:
    /// "the actual idle time is only 18% of the waiting time").
    pub idle_in_wait_per_vw: Vec<SimTime>,
    /// Cross-node parameter-synchronization bytes.
    pub sync_bytes_inter: u64,
    /// Intra-node parameter-synchronization bytes.
    pub sync_bytes_intra: u64,
    /// Cross-node activation/gradient bytes.
    pub act_bytes_inter: u64,
    /// Intra-node activation/gradient bytes.
    pub act_bytes_intra: u64,
}

impl SystemReport {
    /// Builds the report from a run's kept span trace
    /// ([`RunStats::trace`], which `exec::run` fills), at any warm-up, by replaying the trace through the fold a run
    /// uses while it executes. A run that kept no trace replays only
    /// its wait windows, so they count as idle throughout.
    ///
    /// `vw_devices` lists each VW's stage devices (used for utilization
    /// aggregation; interleaved VWs repeat a GPU once per chunk, and
    /// the idle-time mean weights it that many times).
    ///
    /// The replay feeds the fold every GPU span (NIC and zero-length
    /// spans skipped) and every VW's wait-window edges, merged by time.
    /// A span is recorded before any edge later than its start, and
    /// each VW's edges keep their order, so touching and zero-length
    /// windows close and open in sequence. Every field then equals a
    /// [`Trace::busy_within`](hetpipe_des::Trace::busy_within) query
    /// per (device, window) bit for bit.
    pub fn from_stats(
        stats: &RunStats,
        cluster: &Cluster,
        batch_size: usize,
        warmup: SimTime,
        vw_devices: &[Vec<DeviceId>],
    ) -> SystemReport {
        // Dense resource → device map; NIC resources map to nothing.
        let rid_end = stats.gpu_resources.iter().map(|r| r.index() + 1).max();
        let mut device_of = vec![None; rid_end.unwrap_or(0)];
        for (d, r) in stats.gpu_resources.iter().enumerate() {
            device_of[r.index()] = Some(d);
        }
        let mut spans: Vec<_> = stats
            .trace
            .spans()
            .iter()
            .filter(|s| s.end > s.start)
            .filter_map(|s| Some((device_of.get(s.resource.index()).copied().flatten()?, s)))
            .collect();
        spans.sort_by_key(|(_, s)| s.start);
        debug_assert!(
            stats.vws.iter().map(|v| &v.wait_windows).all(|w| {
                w.iter().all(|&(from, to)| from <= to) && w.windows(2).all(|p| p[0].1 <= p[1].0)
            }),
            "wait windows must be sorted and disjoint"
        );
        // `None` opens a window; `Some(from)` closes the one opened at
        // `from`. The sort is stable and each VW's windows are sorted
        // and disjoint, so each VW's edges keep their order.
        let mut edges: Vec<(SimTime, usize, Option<SimTime>)> = stats
            .vws
            .iter()
            .enumerate()
            .flat_map(|(vw, v)| {
                v.wait_windows
                    .iter()
                    .flat_map(move |&(from, to)| [(from, vw, None), (to, vw, Some(from))])
            })
            .collect();
        edges.sort_by_key(|&(at, _, _)| at);

        let devices = vw_devices.iter().map(Vec::as_slice);
        let mut fold = ReportFold::new(cluster.device_count(), devices, warmup, stats.horizon);
        let mut spans = spans.into_iter().peekable();
        for (at, vw, close) in edges {
            while let Some((d, s)) = spans.next_if(|(_, s)| s.start <= at) {
                fold.record(d, s.start, s.start, s.end);
            }
            match close {
                None => fold.open_wait(vw, at),
                Some(from) => fold.close_wait(vw, from, at),
            }
        }
        for (d, s) in spans {
            fold.record(d, s.start, s.start, s.end);
        }
        SystemReport::from_fold(stats, cluster, batch_size, fold, vw_devices)
    }

    /// Builds the report a run folded, while it executed or in a
    /// replay; `stats` and `vw_devices` are that run's.
    pub(crate) fn from_fold(
        stats: &RunStats,
        cluster: &Cluster,
        batch_size: usize,
        fold: ReportFold,
        vw_devices: &[Vec<DeviceId>],
    ) -> SystemReport {
        debug_assert_eq!(fold.horizon, stats.horizon, "the fold is the run's");
        let (warmup, horizon) = (fold.warmup, fold.horizon);
        let minibatches_per_vw: Vec<u64> = stats
            .vws
            .iter()
            .map(|v| v.completions.iter().filter(|&&t| t > warmup).count() as u64)
            .collect();
        let waves_per_vw: Vec<u64> = stats.vws.iter().map(|v| v.waves_pushed).collect();
        let gpu_utilization: Vec<(DeviceId, f64)> = cluster
            .devices()
            .map(|d| {
                let u = if horizon <= warmup {
                    0.0
                } else {
                    fold.gpus[d.0].measured.as_secs() / (horizon - warmup).as_secs()
                };
                (d, u)
            })
            .collect();

        let max_stage_utilization: Vec<f64> = vw_devices
            .iter()
            .map(|devs| {
                devs.iter()
                    .map(|d| gpu_utilization[d.0].1)
                    .fold(0.0, f64::max)
            })
            .collect();

        SystemReport {
            batch_size,
            warmup,
            horizon,
            minibatches_per_vw,
            waves_per_vw,
            gpu_utilization,
            max_stage_utilization,
            pull_wait_per_vw: stats.vws.iter().map(|v| v.pull_wait).collect(),
            idle_in_wait_per_vw: fold.waits.iter().map(|w| w.idle).collect(),
            sync_bytes_inter: stats.sync_bytes_inter,
            sync_bytes_intra: stats.sync_bytes_intra,
            act_bytes_inter: stats.act_bytes_inter,
            act_bytes_intra: stats.act_bytes_intra,
        }
    }

    /// Aggregate throughput in images per second over the measurement
    /// window.
    pub fn throughput_images_per_sec(&self) -> f64 {
        let window = (self.horizon - self.warmup).as_secs();
        if window <= 0.0 {
            return 0.0;
        }
        let total: u64 = self.minibatches_per_vw.iter().sum();
        total as f64 * self.batch_size as f64 / window
    }

    /// Aggregate throughput in minibatches per second.
    pub fn throughput_minibatches_per_sec(&self) -> f64 {
        self.throughput_images_per_sec() / self.batch_size as f64
    }

    /// Total pull waiting time across VWs, seconds.
    pub fn total_pull_wait_secs(&self) -> f64 {
        self.pull_wait_per_vw.iter().map(|t| t.as_secs()).sum()
    }

    /// Total true idle time inside waiting windows, seconds.
    pub fn total_idle_in_wait_secs(&self) -> f64 {
        self.idle_in_wait_per_vw.iter().map(|t| t.as_secs()).sum()
    }

    /// Idle-to-waiting ratio (the paper reports 18% for ED-local,
    /// Section 8.4); `None` when there was no waiting.
    pub fn idle_fraction_of_wait(&self) -> Option<f64> {
        let wait = self.total_pull_wait_secs();
        (wait > 0.0).then(|| self.total_idle_in_wait_secs() / wait)
    }
}

/// True idle time inside the wait window `[from, to)`: its length minus
/// the mean busy time of the VW's stage devices in it (stage `s` reads
/// `row[column[s]]`), floored at zero.
fn window_idle(from: SimTime, to: SimTime, column: &[usize], row: &[SimTime]) -> SimTime {
    if column.is_empty() {
        return SimTime::ZERO;
    }
    let busy_avg: f64 = column.iter().map(|&c| row[c].as_secs()).sum::<f64>() / column.len() as f64;
    let window = (to - from).as_secs();
    SimTime::from_secs((window - busy_avg).max(0.0))
}

/// A run's report, folded while the run executes: the executor hands
/// it every GPU span as it reserves one and every wait window as it
/// opens and closes. [`SystemReport::from_stats`] replays a kept trace
/// through it in the same order. Holds O(devices + VWs) state plus
/// each GPU's few spans reserved past the current instant.
///
/// Busy time within `[warmup, horizon)` is a per-span clip. A wait
/// window needs each stage device's busy time before the window's two
/// edges. Both edges are instants the run has reached, and every span
/// starting before the current instant was recorded at or before its
/// start, so that busy time is the GPU's ended spans plus the elapsed
/// part of its reserved-ahead ones.
#[derive(Clone)]
pub(crate) struct ReportFold {
    warmup: SimTime,
    horizon: SimTime,
    /// Per cluster device.
    gpus: Vec<GpuBusy>,
    /// Per VW.
    waits: Vec<WaitFold>,
}

/// One GPU's running busy time.
#[derive(Clone, Default)]
struct GpuBusy {
    /// Busy time of the spans that ended by the latest recording.
    ended: SimTime,
    /// The spans that had not ended at the latest recording, in
    /// recording order: the GPU's slots reserved ahead.
    ahead: VecDeque<(SimTime, SimTime)>,
    /// Busy time within `[warmup, horizon)`.
    measured: SimTime,
}

impl GpuBusy {
    /// Busy time before `t`, for `t` at or after the latest recording
    /// instant.
    fn before(&self, t: SimTime) -> SimTime {
        self.ahead.iter().fold(self.ended, |busy, &(start, end)| {
            busy + (end.min(t) - start)
        })
    }
}

/// One VW's wait windows, folded as they close.
#[derive(Clone)]
struct WaitFold {
    /// The VW's distinct stage devices.
    devices: Vec<usize>,
    /// The index into `devices` of each stage's device.
    column: Vec<usize>,
    /// Per distinct device: its busy time before the open window's
    /// start, then its busy time inside the window once it closes.
    busy: Vec<SimTime>,
    idle: SimTime,
}

impl ReportFold {
    /// A fold over `devices` GPUs for VWs with the given stage
    /// devices, measuring busy time within `[warmup, horizon)`.
    pub(crate) fn new<'a>(
        devices: usize,
        vw_devices: impl IntoIterator<Item = &'a [DeviceId]>,
        warmup: SimTime,
        horizon: SimTime,
    ) -> ReportFold {
        let waits = vw_devices
            .into_iter()
            .map(|stages| {
                let mut distinct: Vec<usize> = Vec::new();
                let column = stages
                    .iter()
                    .map(|d| {
                        distinct.iter().position(|&x| x == d.0).unwrap_or_else(|| {
                            distinct.push(d.0);
                            distinct.len() - 1
                        })
                    })
                    .collect();
                WaitFold {
                    busy: vec![SimTime::ZERO; distinct.len()],
                    devices: distinct,
                    column,
                    idle: SimTime::ZERO,
                }
            })
            .collect();
        ReportFold {
            warmup,
            horizon,
            gpus: (0..devices).map(|_| GpuBusy::default()).collect(),
            waits,
        }
    }

    /// The start of the measurement window.
    pub(crate) fn warmup(&self) -> SimTime {
        self.warmup
    }

    /// Writes the state the fold's future depends on: each GPU's
    /// reserved-ahead spans and, per VW whose wait window is `open`,
    /// each device's busy time since the window opened, counted from
    /// the device's ended busy time.
    pub(crate) fn normal(&self, n: &mut Normal, open: impl Fn(usize) -> bool) {
        for gpu in &self.gpus {
            n.int(gpu.ahead.len() as i64);
            for &(start, end) in &gpu.ahead {
                n.instant(start);
                n.instant(end);
            }
        }
        for (vw, w) in self.waits.iter().enumerate() {
            if open(vw) {
                for (busy, &d) in w.busy.iter().zip(&w.devices) {
                    n.int(self.gpus[d].ended.as_nanos().wrapping_sub(busy.as_nanos()) as i64);
                }
            }
        }
    }

    /// Hands `f` the fold's running totals, in one fixed order, and
    /// stores what it returns. An `open` window's start-of-window busy
    /// times grow with their devices' ended busy time.
    pub(crate) fn totals(&mut self, f: &mut impl FnMut(u64) -> u64, open: impl Fn(usize) -> bool) {
        let ended: Vec<SimTime> = self.gpus.iter().map(|g| g.ended).collect();
        let mut time = |t: &mut SimTime| *t = SimTime::from_nanos(f(t.as_nanos()));
        for gpu in &mut self.gpus {
            time(&mut gpu.ended);
            time(&mut gpu.measured);
        }
        for w in &mut self.waits {
            time(&mut w.idle);
        }
        for (vw, w) in self.waits.iter_mut().enumerate() {
            if open(vw) {
                for (busy, &d) in w.busy.iter_mut().zip(&w.devices) {
                    *busy += self.gpus[d].ended - ended[d];
                }
            }
        }
    }

    /// Moves the reserved-ahead spans `by` later.
    pub(crate) fn shift(&mut self, by: SimTime) {
        for (start, end) in self.gpus.iter_mut().flat_map(|g| &mut g.ahead) {
            *start += by;
            *end += by;
        }
    }

    /// Takes the span `[start, end)` reserved at `now` on `device`.
    pub(crate) fn record(&mut self, device: usize, now: SimTime, start: SimTime, end: SimTime) {
        let gpu = &mut self.gpus[device];
        while let Some(&(s, e)) = gpu.ahead.front() {
            if e > now {
                break;
            }
            gpu.ended += e - s;
            gpu.ahead.pop_front();
        }
        if end > start {
            gpu.ahead.push_back((start, end));
            gpu.measured += end.min(self.horizon) - start.max(self.warmup);
        }
    }

    /// `vw`'s wait window opens at `now`.
    pub(crate) fn open_wait(&mut self, vw: usize, now: SimTime) {
        let w = &mut self.waits[vw];
        for (busy, &d) in w.busy.iter_mut().zip(&w.devices) {
            *busy = self.gpus[d].before(now);
        }
    }

    /// `vw`'s wait window `[from, now)` closes.
    pub(crate) fn close_wait(&mut self, vw: usize, from: SimTime, now: SimTime) {
        let w = &mut self.waits[vw];
        for (busy, &d) in w.busy.iter_mut().zip(&w.devices) {
            *busy = self.gpus[d].before(now) - *busy;
        }
        w.idle += window_idle(from, now, &w.column, &w.busy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let report = SystemReport {
            batch_size: 32,
            warmup: SimTime::ZERO,
            horizon: SimTime::from_secs(10.0),
            minibatches_per_vw: vec![50, 50],
            waves_per_vw: vec![12, 12],
            gpu_utilization: vec![],
            max_stage_utilization: vec![],
            pull_wait_per_vw: vec![SimTime::from_secs(1.0)],
            idle_in_wait_per_vw: vec![SimTime::from_secs(0.25)],
            sync_bytes_inter: 0,
            sync_bytes_intra: 0,
            act_bytes_inter: 0,
            act_bytes_intra: 0,
        };
        assert!((report.throughput_images_per_sec() - 320.0).abs() < 1e-9);
        assert!((report.throughput_minibatches_per_sec() - 10.0).abs() < 1e-9);
        assert_eq!(report.idle_fraction_of_wait(), Some(0.25));
    }

    #[test]
    fn empty_window_is_zero_throughput() {
        let report = SystemReport {
            batch_size: 32,
            warmup: SimTime::from_secs(5.0),
            horizon: SimTime::from_secs(5.0),
            minibatches_per_vw: vec![],
            waves_per_vw: vec![],
            gpu_utilization: vec![],
            max_stage_utilization: vec![],
            pull_wait_per_vw: vec![],
            idle_in_wait_per_vw: vec![],
            sync_bytes_inter: 0,
            sync_bytes_intra: 0,
            act_bytes_inter: 0,
            act_bytes_intra: 0,
        };
        assert_eq!(report.throughput_images_per_sec(), 0.0);
        assert_eq!(report.idle_fraction_of_wait(), None);
    }
}
