//! Shared utilities for the experiment harnesses.
//!
//! Every binary in this crate regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index) and prints a
//! human-readable table plus, when `--json <path>` is given, a
//! machine-readable JSON dump recorded in EXPERIMENTS.md.

use hetpipe_cluster::{Cluster, DeviceId, GpuKind};
use hetpipe_core::{AllocationPolicy, HetPipeSystem, Placement, SystemConfig, SystemReport};
use hetpipe_des::SimTime;
use hetpipe_model::ModelGraph;
use std::str::FromStr;

/// Default simulated horizon for throughput experiments.
pub const HORIZON_SECS: f64 = 60.0;

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

/// The value following flag `name` in `args`, parsed as `T`:
/// `Ok(None)` when the flag is absent, `Err` when it has no value or
/// the value does not parse.
pub fn parse_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
}

/// [`parse_flag`] over this process's command line.
pub fn arg_value<T: FromStr>(name: &str) -> Result<Option<T>, String> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, name)
}

/// `secs` as a simulated horizon: `Err` unless it is finite and
/// positive (the canonical scripts place their events inside it).
pub fn check_horizon(secs: f64) -> Result<f64, String> {
    if secs.is_finite() && secs > 0.0 {
        Ok(secs)
    } else {
        Err(format!(
            "--horizon must be a positive number of seconds, got {secs}"
        ))
    }
}

/// Reports a malformed command line and exits with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Writes a JSON value to the path given after a `--json` CLI flag, if
/// present.
pub fn maybe_write_json(value: &serde_json::Value) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        if let Some(path) = args.get(i + 1) {
            std::fs::write(
                path,
                serde_json::to_string_pretty(value).expect("serializable"),
            )
            .unwrap_or_else(|e| eprintln!("cannot write {path}: {e}"));
            println!("(json written to {path})");
        }
    }
}

/// The seven single-VW configurations of Figure 3 as device lists on
/// the paper testbed.
pub fn fig3_configs() -> Vec<(&'static str, Vec<DeviceId>)> {
    vec![
        (
            "VVVV",
            vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)],
        ),
        (
            "RRRR",
            vec![DeviceId(4), DeviceId(5), DeviceId(6), DeviceId(7)],
        ),
        (
            "GGGG",
            vec![DeviceId(8), DeviceId(9), DeviceId(10), DeviceId(11)],
        ),
        (
            "QQQQ",
            vec![DeviceId(12), DeviceId(13), DeviceId(14), DeviceId(15)],
        ),
        (
            "VRGQ",
            vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)],
        ),
        (
            "VVQQ",
            vec![DeviceId(0), DeviceId(1), DeviceId(12), DeviceId(13)],
        ),
        (
            "RRGG",
            vec![DeviceId(4), DeviceId(5), DeviceId(8), DeviceId(9)],
        ),
    ]
}

/// Builds and runs one HetPipe configuration, returning `(Nm, report)`.
pub fn run_hetpipe(
    cluster: &Cluster,
    graph: &ModelGraph,
    policy: AllocationPolicy,
    placement: Placement,
    d: usize,
    nm_override: Option<usize>,
    horizon_secs: f64,
) -> Result<(usize, SystemReport), String> {
    let config = SystemConfig {
        policy,
        placement,
        staleness_bound: d,
        nm_override,
        ..SystemConfig::default()
    };
    let sys = HetPipeSystem::build(cluster, graph, &config).map_err(|e| e.to_string())?;
    let report = sys.run(SimTime::from_secs(horizon_secs));
    Ok((sys.nm(), report))
}

/// The Table-4 GPU sets: `(label, node kinds)` in the paper's order.
pub fn table4_sets() -> Vec<(&'static str, Vec<GpuKind>)> {
    use GpuKind::*;
    vec![
        ("4 GPUs 4[V]", vec![TitanV]),
        ("8 GPUs 4[VR]", vec![TitanV, TitanRtx]),
        ("12 GPUs 4[VRQ]", vec![TitanV, TitanRtx, QuadroP4000]),
        (
            "16 GPUs 4[VRQG]",
            vec![TitanV, TitanRtx, QuadroP4000, Rtx2060],
        ),
    ]
}

/// Formats images/second for a table cell.
pub fn fmt_ips(v: f64) -> String {
    format!("{v:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_configs_match_labels() {
        let cluster = Cluster::paper_testbed();
        for (label, devices) in fig3_configs() {
            let derived: String = devices.iter().map(|&d| cluster.kind_of(d).code()).collect();
            assert_eq!(derived, label);
        }
    }

    #[test]
    fn parse_flag_is_strict() {
        let args: Vec<String> = ["bin", "--horizon", "abc", "--seeds", "8", "--last"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_flag::<u64>(&args, "--seeds"), Ok(Some(8)));
        assert_eq!(parse_flag::<f64>(&args, "--absent"), Ok(None));
        assert_eq!(
            parse_flag::<f64>(&args, "--horizon"),
            Err("--horizon: cannot parse \"abc\"".to_string())
        );
        assert_eq!(
            parse_flag::<String>(&args, "--last"),
            Err("--last needs a value".to_string())
        );
        assert_eq!(
            parse_flag::<String>(&args, "--horizon"),
            Ok(Some("abc".to_string()))
        );
    }

    #[test]
    fn check_horizon_rejects_non_positive_and_non_finite() {
        assert_eq!(check_horizon(5.0), Ok(5.0));
        assert_eq!(check_horizon(1e-3), Ok(1e-3));
        for bad in [0.0, -0.0, -5.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(check_horizon(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn table4_sets_grow() {
        let sets = table4_sets();
        assert_eq!(sets.len(), 4);
        for (i, (_, kinds)) in sets.iter().enumerate() {
            assert_eq!(kinds.len(), i + 1);
        }
    }
}
