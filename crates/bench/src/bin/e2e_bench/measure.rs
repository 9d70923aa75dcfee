//! The measurement helper: summary statistics, peak resident memory,
//! the host-speed calibration, and the fresh-process sampler.
//!
//! Every sample runs in a child process (the bench re-runs its own
//! executable with the hidden `--sample <workload>` mode), one process
//! at a time. A fresh process starts with cold process-wide caches
//! (the planner's order-refine memo) and its own `VmHWM`, so samples
//! are independent and the peak-memory number belongs to one sample.
//! Just before each sample, another child runs the calibration kernel
//! (hidden `--calibrate` mode), whose time tracks how fast the shared
//! host runs at that moment.

use serde_json::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::process::Command;
use std::time::Instant;

/// Events the calibration kernel processes.
pub const CALIBRATION_EVENTS: usize = 1_500_000;

/// What [`calibration_kernel`] takes for [`CALIBRATION_EVENTS`] on the
/// reference host (a 2-vCPU Xeon VM at 2.1 GHz) when its neighbours
/// are quiet. A time scaled by this over the kernel's time just before
/// it reads as seconds on that quiet host.
pub const REFERENCE_CALIBRATION_S: f64 = 0.1;

/// A fixed stand-in for the simulator's hot loop, in the bench so that
/// no change to the system moves it: pops `events` events from a binary
/// heap, updates a 32 KiB state table and appends a 40-byte span per
/// event to a growing vector (60 MB, faulted in fresh). Returns its
/// wall seconds.
///
/// On a shared host, co-tenants slow memory, caches and page faults by
/// up to 1.5× for minutes at a time. The kernel slows with them, so
/// dividing a sample's times by the kernel's time just before it
/// removes most of that drift. Over 20 s runs this cut the spread of
/// run medians from 10–21% to 3–8% on fleet-256 and plan-sweep; a
/// register-only loop, a pointer chase, and this loop with a 32 MiB
/// state table or with 4096 small queues tracked the drift too loosely
/// to help.
pub fn calibration_kernel(events: usize) -> f64 {
    let start = Instant::now();
    let mut queue = BinaryHeap::new();
    let mut spans: Vec<(u64, u64, u32, u32, u64, u64)> = Vec::new();
    let mut state = vec![0u64; 4096];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for id in 0..256u32 {
        queue.push(Reverse((u64::from(id), id)));
    }
    while spans.len() < events {
        let Some(Reverse((at, id))) = queue.pop() else {
            break;
        };
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x % 4096) as usize;
        state[slot] = state[slot].wrapping_add(at);
        let end = at + 1 + (x >> 40) % 1000;
        spans.push((at, end, id, slot as u32, x, state[slot]));
        queue.push(Reverse((end, id)));
    }
    std::hint::black_box(&spans);
    start.elapsed().as_secs_f64()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// so spreads read the same here and in any script that checks them.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, or `None` when `n` is too small for any
/// (fewer than 40 samples).
pub fn highest_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// One metric's distribution over the samples of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` from [`highest_percentile`], when `n`
    /// allows one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            tail: highest_percentile(values.len()).map(|p| (p, percentile(values, p))),
        }
    }

    /// The JSON row every reported metric carries.
    pub fn row(&self, unit: &str) -> Value {
        let mut row = serde_json::json!({
            "unit": unit,
            "n": self.n,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
        });
        if let (Value::Object(map), Some((p, v))) = (&mut row, self.tail) {
            map.insert(format!("p{p}"), Value::Number(v));
        }
        row
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs this executable once with `args` (the hidden sample mode) and
/// returns the JSON object on the last line of its standard output.
/// The child's standard error passes through.
///
/// The child runs with glibc's mmap threshold pinned at its 128 KiB
/// default. Left adaptive, the threshold rises after the first large
/// block is freed, and later blocks stay in the heap after they are
/// freed; how much stays depended on the order of allocations, and
/// moved elastic-chaos's peak by 8% between seeds that ask for the same
/// work. Pinned, freed large blocks go back to the system, so `VmHWM`
/// tracks the live working set (the module doc of `main.rs` gives the
/// time this costs). Other allocators ignore the variable.
pub fn sample_in_child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the bench: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .env("MALLOC_MMAP_THRESHOLD_", "131072")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a sample process: {e}"))?;
    if !out.status.success() {
        return Err(format!("sample process failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("unreadable sample output: {e}"))
}

/// Calls `sample` until `seconds` have passed and at least `min`
/// samples were taken; returns the samples in order.
pub fn sample_for<T>(seconds: f64, min: usize, mut sample: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(sample());
    }
    out
}

/// Looks up `key` in a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Object(map) => map.get(key).ok_or_else(|| format!("missing `{key}`")),
        _ => Err(format!("not an object looking up `{key}`")),
    }
}

/// Reads `key` of a JSON object as a number.
pub fn number(v: &Value, key: &str) -> Result<f64, String> {
    match field(v, key)? {
        Value::Number(x) => Ok(*x),
        _ => Err(format!("`{key}` is not a number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([7, 1, 3], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), (1.0, 7.0));
        assert_eq!(median(&[7.0, 1.0, 3.0]), 3.0);
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(12), None);
        assert_eq!(highest_percentile(39), None);
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn calibration_kernel_times_its_events() {
        let t = calibration_kernel(10_000);
        assert!(t > 0.0 && t.is_finite(), "{t}");
    }

    #[test]
    fn summary_row_carries_n_and_spread() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.median), (40, 20.5));
        assert_eq!(s.tail, Some((75.0, 30.0)));
        let row = s.row("s").to_string();
        for key in [
            "\"unit\":\"s\"",
            "\"n\":40",
            "\"median\":20.5",
            "\"q1\"",
            "\"q3\"",
            "\"p75\":30",
        ] {
            assert!(row.contains(key), "{key} missing from {row}");
        }
    }
}
