//! The paper scorecard: evaluates every claim of
//! [`hetpipe_bench::scorecard`] at full horizons, prints one table and
//! exits 1 when a checked ordering fails.
//!
//! Usage: `paper_scorecard [--out <path>]`. `--out` writes the rows as
//! JSON (the committed `PAPER_SCORECARD.json` is one such run). A
//! missing value or any other argument exits 2; a failed write exits 1.

use hetpipe_bench::scorecard::{self, Horizons};
use hetpipe_bench::{check_args, parse_flag, usage_error, write_json};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, &["--out"], &[]).unwrap_or_else(|e| usage_error(&e));
    let out: Option<String> = parse_flag(&args, "--out").unwrap_or_else(|e| usage_error(&e));

    let horizons = Horizons::FULL;
    let mut claims = scorecard::deterministic_claims(&horizons);
    claims.extend(scorecard::trainer_claims(&horizons));
    scorecard::print(&claims);

    if let Some(path) = out {
        if let Err(e) = write_json(&path, &scorecard::to_json(&horizons, &claims)) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("(json written to {path})");
    }
    let failed = scorecard::failures(&claims).len();
    if failed > 0 {
        eprintln!("error: {failed} checked orderings FAILED (see the table)");
        std::process::exit(1);
    }
}
