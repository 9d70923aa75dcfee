//! Experiment harnesses of the HetPipe reproduction, and the helpers
//! their bins share.
//!
//! [`scorecard`] holds the paper's evaluation claims as data: the
//! `paper_scorecard` bin evaluates every row, writes
//! `PAPER_SCORECARD.json` and exits 1 when a checked ordering fails.
//! The other bins sweep schedules (`schedule_compare`), drive the
//! elastic runtime (`runtime_scenarios`), run the static verification
//! gate (`verify_all`) and benchmark the planner and the whole system
//! (`planner_bench`, `e2e_bench`). [`gatecheck`] is `verify_all`'s
//! model check of the trainer's step loop.

pub mod gatecheck;
pub mod scorecard;

use hetpipe_cluster::{Cluster, GpuKind};
use hetpipe_core::{AllocationPolicy, Placement, RecomputePolicy, Schedule, SystemConfig};
use hetpipe_model::ModelGraph;
use std::str::FromStr;

/// The `plan-sweep` benchmark workload's 128 configurations: the
/// Table-4 GPU sets `4[V]`, `8[VR]`, `12[VRQ]` and `16[VRQG]` × {VGG-19,
/// ResNet-152} × {ED, NP} × {wave, fill-drain, 1F1B, composite
/// interleaved with 2 chunks} × {no recompute, boundary-only}, with
/// the default shard placement and order search on.
pub fn plan_sweep_matrix() -> Vec<(Cluster, ModelGraph, SystemConfig)> {
    use GpuKind::*;
    let sets: [&[GpuKind]; 4] = [
        &[TitanV],
        &[TitanV, TitanRtx],
        &[TitanV, TitanRtx, QuadroP4000],
        &[TitanV, TitanRtx, QuadroP4000, Rtx2060],
    ];
    let mut cells = Vec::new();
    for kinds in sets {
        let cluster = Cluster::testbed_subset(kinds);
        for graph in [hetpipe_model::vgg19(32), hetpipe_model::resnet152(32)] {
            for policy in [
                AllocationPolicy::EqualDistribution,
                AllocationPolicy::NodePartition,
            ] {
                for schedule in ["hetpipe-wave", "fill-drain", "1f1b", "interleaved-1f1b:2"] {
                    for recompute in [RecomputePolicy::None, RecomputePolicy::BoundaryOnly] {
                        let config = SystemConfig {
                            policy: policy.clone(),
                            placement: Placement::Default,
                            schedule: Schedule::parse(schedule).expect("a known schedule"),
                            recompute,
                            ..SystemConfig::default()
                        };
                        cells.push((cluster.clone(), graph.clone(), config));
                    }
                }
            }
        }
    }
    cells
}

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

/// Checks a bin's command line (`args[0]` is the program) against
/// the flags it takes: each of `valued` is followed by one value,
/// each of `switches` stands alone. `Err` names the first unknown
/// flag, stray positional, missing value, or value that starts with
/// `--` (a forgotten value swallowing the next flag). Bins call it
/// first and exit 2 ([`usage_error`]) on `Err`.
pub fn check_args(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if switches.contains(&arg.as_str()) {
            continue;
        }
        if !valued.contains(&arg.as_str()) {
            return Err(if arg.starts_with("--") {
                format!("unknown flag {arg}")
            } else {
                format!("unexpected argument {arg:?}")
            });
        }
        match rest.next() {
            None => return Err(format!("{arg} needs a value")),
            Some(v) if v.starts_with("--") => {
                return Err(format!("{arg} needs a value, got the flag {v}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
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

/// The longest simulated horizon a bin accepts, in seconds (about
/// 11.6 days, 100× paper-ed's horizon). A longer one would run for
/// hours, or extrapolate a steady state into an allocation of that
/// many completions.
pub const MAX_HORIZON_SECS: f64 = 1e6;

/// `secs` as a simulated horizon: `Err` unless it is positive and at
/// most [`MAX_HORIZON_SECS`] (the canonical scripts place their events
/// inside it).
pub fn check_horizon(secs: f64) -> Result<f64, String> {
    if !(secs.is_finite() && secs > 0.0) {
        Err(format!(
            "--horizon must be a positive number of seconds, got {secs}"
        ))
    } else if secs > MAX_HORIZON_SECS {
        Err(format!(
            "--horizon must be at most {MAX_HORIZON_SECS} seconds, got {secs}"
        ))
    } else {
        Ok(secs)
    }
}

/// `secs` as a wall-clock budget: `Err` unless it is finite and
/// positive (a NaN or infinite budget could never be exceeded, and a
/// non-positive one always would be).
pub fn check_budget(secs: f64) -> Result<f64, String> {
    if secs.is_finite() && secs > 0.0 {
        Ok(secs)
    } else {
        Err(format!(
            "--budget-secs must be a positive, finite number of seconds, got {secs}"
        ))
    }
}

/// `count` as a number of seeded scripts: `Err` when it is zero (a
/// run of no script would pass a gate it never ran).
pub fn check_seeds(count: u64) -> Result<u64, String> {
    if count == 0 {
        Err("--seeds must be at least 1".to_string())
    } else {
        Ok(count)
    }
}

/// Reports a malformed command line and exits with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Writes a JSON value to the path given after a `--json` CLI flag, if
/// present. A `--json` with no path exits with status 2
/// ([`usage_error`]); a failed write exits with status 1.
pub fn maybe_write_json(value: &serde_json::Value) {
    let Some(path) = arg_value::<String>("--json").unwrap_or_else(|e| usage_error(&e)) else {
        return;
    };
    if let Err(e) = write_json(&path, value) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("(json written to {path})");
}

/// Writes `value` to `path` as pretty-printed JSON.
pub fn write_json(path: &str, value: &serde_json::Value) -> std::io::Result<()> {
    std::fs::write(
        path,
        serde_json::to_string_pretty(value).expect("serializable"),
    )
}

/// Median and first/third quartiles of `values` (quartiles by
/// Python's `statistics.quantiles(values, n=4)`, as `e2e_bench`
/// reports them). An empty slice reads 0 for all three, as in
/// `e2e_bench`.
pub fn median_and_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    let cut = |i: usize| {
        if n < 2 {
            return v.first().copied().unwrap_or(0.0);
        }
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (median, cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median_and_quartiles(&v), (5.5, 2.75, 8.25));
        // statistics.quantiles([7, 1, 3], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(median_and_quartiles(&[7.0, 1.0, 3.0]), (3.0, 1.0, 7.0));
        assert_eq!(median_and_quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median_and_quartiles(&[]), (0.0, 0.0, 0.0));
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
    fn check_args_rejects_what_the_bin_does_not_take() {
        let check = |line: &[&str]| {
            let args: Vec<String> = std::iter::once("bin")
                .chain(line.iter().copied())
                .map(String::from)
                .collect();
            check_args(&args, &["--out", "--seeds"], &["--quick"])
        };
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(
            check(&["--quick", "--out", "x.json", "--seeds", "8"]),
            Ok(())
        );
        assert_eq!(check(&["--seeds", "-1"]), Ok(()));
        assert_eq!(
            check(&["--bogus-flag", "1"]),
            Err("unknown flag --bogus-flag".to_string())
        );
        assert_eq!(
            check(&["--quick", "stray"]),
            Err("unexpected argument \"stray\"".to_string())
        );
        assert_eq!(check(&["--out"]), Err("--out needs a value".to_string()));
        assert_eq!(
            check(&["--out", "--quick"]),
            Err("--out needs a value, got the flag --quick".to_string())
        );
    }

    #[test]
    fn json_flag_is_strict_and_writes_fail_loudly() {
        let args: Vec<String> = ["schedule_compare", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_flag::<String>(&args, "--json"),
            Err("--json needs a value".to_string())
        );
        let value = serde_json::json!({ "rows": [1, 2] });
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hetpipe-bench-json-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        write_json(path, &value).expect("writable temp dir");
        let back = std::fs::read_to_string(path).expect("written");
        std::fs::remove_file(path).expect("removable");
        assert_eq!(serde_json::from_str(&back).expect("valid JSON"), value);
        let missing = dir.join("hetpipe-bench-no-such-dir").join("out.json");
        assert!(write_json(missing.to_str().expect("utf-8"), &value).is_err());
    }

    #[test]
    fn check_horizon_rejects_non_positive_and_non_finite() {
        assert_eq!(check_horizon(5.0), Ok(5.0));
        assert_eq!(check_horizon(1e-3), Ok(1e-3));
        assert_eq!(check_horizon(MAX_HORIZON_SECS), Ok(MAX_HORIZON_SECS));
        for bad in [0.0, -0.0, -5.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(check_horizon(bad).is_err(), "{bad}");
        }
        for huge in [1e30, 1e6 + 1.0] {
            let err = check_horizon(huge).expect_err("beyond the bound");
            assert!(err.contains("at most 1000000 seconds"), "{err}");
        }
    }

    #[test]
    fn check_seeds_rejects_zero_and_non_numbers() {
        let seeds = |value: &str| {
            let args: Vec<String> = ["bin", "--seeds", value]
                .iter()
                .map(|s| s.to_string())
                .collect();
            parse_flag::<u64>(&args, "--seeds").and_then(|n| check_seeds(n.unwrap_or(32)))
        };
        assert_eq!(seeds("8"), Ok(8));
        assert_eq!(seeds("0"), Err("--seeds must be at least 1".to_string()));
        for bad in ["abc", "-1", "2.5"] {
            assert!(seeds(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn check_budget_rejects_non_positive_and_non_finite() {
        assert_eq!(check_budget(60.0), Ok(60.0));
        for bad in ["nan", "inf", "0", "-5"] {
            let secs: f64 = bad.parse().unwrap();
            let err = check_budget(secs).expect_err(bad);
            assert!(err.contains("--budget-secs"), "{err}");
        }
    }
}
