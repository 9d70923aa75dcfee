//! Post-run reports.
//!
//! Turns raw [`RunStats`] into the quantities the
//! paper's evaluation section reports: throughput in images/second
//! (all figures), per-GPU utilization (Figure 3), waiting vs true idle
//! time during synchronization (Section 8.4), and the cross-node traffic
//! split (the 515 MB vs 103 MB comparison in Section 8.3).
//!
//! The report is one pass over the span trace: every GPU span is
//! clipped into the measurement window and into the wait windows it
//! overlaps, accumulating integer busy time per (device, window).

use crate::exec::RunStats;
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_des::{SimTime, Span};

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
    /// Builds the report from raw run statistics.
    ///
    /// `vw_devices` lists each VW's stage devices (used for utilization
    /// aggregation; interleaved VWs repeat a GPU once per chunk, and
    /// the idle-time mean weights it that many times).
    ///
    /// One pass over `stats.trace`: NIC spans are skipped, and each
    /// GPU span is clipped into `[warmup, horizon)` and into every wait
    /// window of the VWs running on its device. Each VW's wait windows
    /// are sorted and disjoint (a VW has at most one pull outstanding),
    /// so the first window a span can overlap is a per-device cursor
    /// step, or a binary search for a span starting before its
    /// predecessor. Busy time accumulates as integer [`SimTime`] per
    /// (device, window); the `f64` folds then run in the order of the
    /// per-window queries they replace, so every field equals a
    /// [`Trace::busy_within`](hetpipe_des::Trace::busy_within) query
    /// per (device, window) bit for bit. Allocates per device and per
    /// wait window, never per span.
    pub fn from_stats(
        stats: &RunStats,
        cluster: &Cluster,
        batch_size: usize,
        warmup: SimTime,
        vw_devices: &[Vec<DeviceId>],
    ) -> SystemReport {
        let horizon = stats.horizon;
        let minibatches_per_vw: Vec<u64> = stats
            .vws
            .iter()
            .map(|v| v.completions.iter().filter(|&&t| t > warmup).count() as u64)
            .collect();
        let waves_per_vw: Vec<u64> = stats.vws.iter().map(|v| v.waves_pushed).collect();

        // Dense resource → device map; NIC resources map to nothing.
        let rid_end = stats.gpu_resources.iter().map(|r| r.0 + 1).max();
        let mut device_of = vec![usize::MAX; rid_end.unwrap_or(0)];
        for (d, r) in stats.gpu_resources.iter().enumerate() {
            device_of[r.0] = d;
        }
        // Each VW's distinct stage devices become columns of its wait
        // books; `readers[d]` lists the columns device `d` feeds.
        let mut readers: Vec<Vec<Reader>> = vec![Vec::new(); stats.gpu_resources.len()];
        let mut books: Vec<WaitBooks> = stats
            .vws
            .iter()
            .zip(vw_devices)
            .enumerate()
            .map(|(i, (v, devs))| {
                let windows = &v.wait_windows;
                debug_assert!(
                    windows.iter().all(|&(from, to)| from <= to)
                        && windows.windows(2).all(|p| p[0].1 <= p[1].0),
                    "vw{i}: wait windows must be sorted and disjoint"
                );
                let mut distinct: Vec<DeviceId> = Vec::new();
                let column = devs
                    .iter()
                    .map(|&d| {
                        distinct.iter().position(|&x| x == d).unwrap_or_else(|| {
                            readers[d.0].push(Reader {
                                vw: i,
                                column: distinct.len(),
                                next: 0,
                            });
                            distinct.push(d);
                            distinct.len() - 1
                        })
                    })
                    .collect();
                WaitBooks {
                    windows,
                    column,
                    busy: vec![SimTime::ZERO; windows.len() * distinct.len()],
                    columns: distinct.len(),
                }
            })
            .collect();

        let mut busy = vec![SimTime::ZERO; stats.gpu_resources.len()];
        for span in stats.trace.spans() {
            let Some(&d) = device_of.get(span.resource.0) else {
                continue;
            };
            if d == usize::MAX || span.end <= span.start {
                continue;
            }
            busy[d] += clipped(span, warmup, horizon);
            for r in &mut readers[d] {
                let b = &mut books[r.vw];
                // The first window ending after the span starts. A
                // device's spans come in start order, so this is the
                // previous span's window or a step past it; a span
                // starting earlier falls back to a binary search.
                let mut first = r.next;
                if first > 0 && b.windows[first - 1].1 > span.start {
                    first = b.windows.partition_point(|&(_, to)| to <= span.start);
                }
                while first < b.windows.len() && b.windows[first].1 <= span.start {
                    first += 1;
                }
                r.next = first;
                for (w, &(from, to)) in b.windows.iter().enumerate().skip(first) {
                    if from >= span.end {
                        break;
                    }
                    b.busy[w * b.columns + r.column] += clipped(span, from, to);
                }
            }
        }

        let gpu_utilization: Vec<(DeviceId, f64)> = cluster
            .devices()
            .map(|d| {
                let u = if horizon <= warmup {
                    0.0
                } else {
                    busy[d.0].as_secs() / (horizon - warmup).as_secs()
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

        // True idle inside waiting windows: window length minus mean GPU
        // busy time of the VW's stages within the window.
        let idle_in_wait_per_vw: Vec<SimTime> = books
            .iter()
            .map(|b| {
                let mut idle = SimTime::ZERO;
                if b.column.is_empty() {
                    return idle;
                }
                for (w, &(from, to)) in b.windows.iter().enumerate() {
                    let row = &b.busy[w * b.columns..(w + 1) * b.columns];
                    let busy_avg: f64 = b.column.iter().map(|&c| row[c].as_secs()).sum::<f64>()
                        / b.column.len() as f64;
                    let window = (to - from).as_secs();
                    idle += SimTime::from_secs((window - busy_avg).max(0.0));
                }
                idle
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
            idle_in_wait_per_vw,
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

/// One VW's busy time per (wait window, distinct stage device), filled
/// by the report pass.
struct WaitBooks<'a> {
    windows: &'a [(SimTime, SimTime)],
    /// The column of each stage device; repeated devices share one.
    column: Vec<usize>,
    /// Row-major, one row of `columns` entries per window.
    busy: Vec<SimTime>,
    columns: usize,
}

/// One wait-book column a device feeds, with the index of the first
/// window the device's latest span could overlap.
#[derive(Clone)]
struct Reader {
    vw: usize,
    column: usize,
    next: usize,
}

/// The part of `span` inside `[from, to)`.
fn clipped<T>(span: &Span<T>, from: SimTime, to: SimTime) -> SimTime {
    span.end.min(to) - span.start.max(from)
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
