//! The static-verification gate: sweeps the standing configuration
//! matrix through `hetpipe-verify`'s proof passes and exits non-zero
//! on any violation. CI runs it next to the planner benchmark gate.
//!
//! Five passes, none of which executes the DES:
//!
//! 1. **Deadlock freedom** — every schedule × pipeline depth × WSP
//!    config × recompute policy gets a machine-checked certificate:
//!    the committed op queues of two WSP-coupled virtual workers form
//!    an acyclic dependency graph (program order + data edges + cross-
//!    worker push/gate coupling), with the wave-shift periodicity
//!    witness extending the finite horizon to the infinite stream.
//! 2. **Occupancy soundness** — the structural peak implied by the
//!    committed op order satisfies `structural ≤ declared` per stage
//!    and per GPU; over-reservations looser than 2× are reported as
//!    lints (non-fatal), and the full declared/structural ratio table
//!    is ranked in the report artifact.
//! 3. **Lookahead** — every gate and push of the committed streams
//!    sits exactly where the closed-form lookahead bound
//!    `(warmup (D+2)·Nm−1, steady Nm)` says. A negative control shifts
//!    one real extracted gate a forward late and requires the check to
//!    reject it with the wave and both positions named.
//! 4. **Staleness** — the WSP start condition and the 2BW version rule
//!    are checked at every minibatch of a warmup-covering horizon for
//!    each (Nm, D), plus the interleaved per-chunk 2BW version-demand
//!    proof.
//! 5. **Model checking** — the real trainer's step loop in every step
//!    order ([`hetpipe_bench::gatecheck`]) over BSP, SSP(2) and WSP
//!    (Nm, D) ∈ {(2,0), (2,1), (4,1)}, 3 workers each. A worker
//!    stepped past its outstanding pull is the negative control — if
//!    the checker *fails to refute* it, the gate fails.
//!
//! Flags: `--report <path>` writes the full output (including the
//! complete ranked ratio table) as a CI artifact; `--budget-secs <s>`
//! fails the gate when the whole sweep exceeds the pinned wall-clock
//! budget, so the static gate cannot silently grow unbounded.
//!
//! The pipeline depths swept (3 and 4 stages) are the standing
//! instance shapes of the benchmark suite (the paper testbed's VRGQ
//! pipeline and the whimpy 4-GPU / 3-survivor replan configurations).
//! The certificates are model-independent by construction: the
//! dependency DAG and the staleness algebra depend only on the
//! schedule shape (depth, Nm, D, recompute), not on which zoo model's
//! layers fill the stages — one proof per shape covers every model.

use hetpipe_bench::gatecheck::{self, Steps};
use hetpipe_bench::{check_args, check_budget, parse_flag, usage_error};
use hetpipe_des::check_bounds;
use hetpipe_schedule::{
    committed_queues, ps_interaction_points, PipelineSchedule, RecomputePolicy, Schedule, WspParams,
};
use hetpipe_train::Mode;
use hetpipe_verify::{
    check_interaction_points, explore, interleaved_chunk_versions, structural_occupancy,
    verify_deadlock_free, verify_lookahead, verify_version_rule, verify_wsp_bound,
};
use std::time::Instant;

/// Collected gate output: mirrored to stdout and, under `--report`,
/// to the artifact file.
#[derive(Default)]
struct Gate {
    out: Vec<String>,
    violations: Vec<String>,
    lints: Vec<String>,
}

impl Gate {
    fn say(&mut self, line: String) {
        println!("{line}");
        self.out.push(line);
    }
    /// Artifact-only detail: written to `--report`, not stdout.
    fn artifact(&mut self, line: String) {
        self.out.push(line);
    }
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().collect();
    check_args(&args, &["--report", "--budget-secs"], &[]).unwrap_or_else(|e| usage_error(&e));
    let report_path: Option<String> =
        parse_flag(&args, "--report").unwrap_or_else(|e| usage_error(&e));
    let budget_secs: Option<f64> = parse_flag(&args, "--budget-secs")
        .and_then(|b: Option<f64>| b.map(check_budget).transpose())
        .unwrap_or_else(|e| usage_error(&e));

    let mut gate = Gate::default();

    // ------------------------------------------------------------------
    // Passes 1–3: deadlock certificates, occupancy soundness, and the
    // lookahead certificates across the standing schedule matrix.
    // ------------------------------------------------------------------
    let depths = [3usize, 4];
    let wsp_configs = [(2usize, 0usize), (4, 0), (4, 1)];
    let mut certificates = 0usize;
    let mut total_nodes = 0usize;
    let mut total_edges = 0usize;
    let mut la_gates = 0usize;
    let mut la_pushes = 0usize;
    // (worst declared/structural ratio, entity, label) per config, for
    // the ranked table.
    let mut ratios: Vec<(f64, String, String)> = Vec::new();
    for &schedule in Schedule::ALL.iter() {
        for &k_gpus in &depths {
            for &(nm, d) in &wsp_configs {
                let wsp = WspParams::new(nm, d);
                // Horizon: enough complete waves for warmup plus two
                // full periods for the periodicity witness (composite
                // timetables can have periods up to k_gpus waves).
                let max_mb = (nm * (d + 6 + 2 * k_gpus)) as u64;
                for recompute in RecomputePolicy::ALL {
                    let label = format!("{} k={k_gpus} nm={nm} d={d} {recompute}", schedule.name());
                    match verify_deadlock_free(schedule, k_gpus, wsp, recompute, max_mb, 2) {
                        Ok(proof) => {
                            certificates += 1;
                            total_nodes += proof.nodes;
                            total_edges += proof.edges;
                            if proof.wave_period.is_none() {
                                gate.violations.push(format!(
                                    "{label}: no steady-state wave period found — finite \
                                     proof does not extend to the infinite stream"
                                ));
                            }
                        }
                        Err(cycle) => gate.violations.push(format!("{label}: {cycle}")),
                    }
                    let report = structural_occupancy(schedule, k_gpus, wsp, recompute, max_mb);
                    if let Err(errs) = check_bounds(&report.bounds) {
                        for e in errs {
                            gate.violations.push(format!("{label}: {e}"));
                        }
                    }
                    for lint in &report.lints {
                        gate.lints.push(format!("{label}: {lint}"));
                    }
                    if let Some((ratio, entity)) = report
                        .bounds
                        .iter()
                        .filter_map(|b| {
                            let s = b.structural?;
                            (s > 0).then(|| (b.declared as f64 / s as f64, format!("{}", b.entity)))
                        })
                        .max_by(|a, b| a.0.total_cmp(&b.0))
                    {
                        ratios.push((ratio, entity, label.clone()));
                    }

                    // Lookahead: committed gates/pushes against the
                    // closed form.
                    match verify_lookahead(schedule, k_gpus, wsp, recompute, max_mb) {
                        Ok(w) => {
                            la_gates += w.gates;
                            la_pushes += w.pushes;
                        }
                        Err(e) => gate.violations.push(format!("{label}: {e}")),
                    }
                }
            }
        }
    }
    gate.say(format!(
        "deadlock     {certificates} certificates ({total_nodes} ops, {total_edges} dependency \
         edges), all acyclic and wave-periodic"
    ));
    gate.say(format!(
        "lookahead    {la_gates} gates + {la_pushes} pushes match the closed form: warmup \
         (D+2)·Nm−1 stage-0 forwards, then exactly Nm per gate-to-gate segment"
    ));
    // Negative control: one real extracted gate shifted a forward late
    // must be rejected, naming its wave and both positions.
    {
        let wsp = WspParams::new(4, 0);
        let queues = committed_queues(Schedule::HetPipeWave, 4, wsp, RecomputePolicy::None, 40);
        let mut pts = ps_interaction_points(&queues);
        let certified = pts.gates[2].forwards_before;
        pts.gates[2].forwards_before += 1;
        match check_interaction_points(&pts, wsp) {
            Err(e)
                if e.contains("gate(w2)")
                    && e.contains(&format!("after {} ", certified + 1))
                    && e.contains(&format!("says {certified} ")) =>
            {
                gate.say(
                    "lookahead    negative control: a real gate shifted one forward late is \
                     rejected with its wave and both positions named (checker is not vacuous)"
                        .into(),
                );
            }
            Err(e) => gate.violations.push(format!(
                "lookahead negative control FAILED: off-by-one gate rejected but not \
                 named (got {e:?}) — the check cannot localize a drift"
            )),
            Ok(()) => gate.violations.push(
                "lookahead negative control FAILED: a gate one forward late passed the \
                 closed-form check — the lookahead pass is vacuous"
                    .into(),
            ),
        }
    }

    // Ranked declared/structural table: top of the table to stdout,
    // the full ranking to the artifact.
    ratios.sort_by(|a, b| b.0.total_cmp(&a.0));
    gate.say(format!(
        "occupancy    declared/structural ratios ranked across {} configs (loosest first):",
        ratios.len()
    ));
    for (i, (ratio, entity, label)) in ratios.iter().enumerate() {
        let line = format!(
            "occupancy      #{:<3} {ratio:>5.2}x  {entity:<12} {label}",
            i + 1
        );
        if i < 8 {
            gate.say(line);
        } else {
            gate.artifact(line);
        }
    }
    if ratios.len() > 8 {
        gate.say(format!(
            "occupancy      … {} more rows in the report artifact",
            ratios.len() - 8
        ));
    }

    // ------------------------------------------------------------------
    // Pass 4: exhaustive staleness proofs.
    // ------------------------------------------------------------------
    let mut staleness_checked = 0u64;
    for nm in [1usize, 2, 4, 8] {
        for d in [0usize, 1, 2] {
            let wsp = WspParams::new(nm, d);
            match verify_wsp_bound(wsp) {
                Ok(proof) => {
                    staleness_checked += proof.horizon;
                    if !proof.shift_invariant {
                        gate.violations
                            .push(format!("nm={nm} d={d}: required_wave not shift-invariant"));
                    }
                }
                Err(e) => gate.violations.push(format!("nm={nm} d={d}: {e}")),
            }
            match verify_version_rule(wsp, |p| wsp.two_bw_version(p)) {
                Ok(proof) => {
                    staleness_checked += proof.horizon;
                    if !proof.shift_invariant {
                        gate.violations.push(format!(
                            "nm={nm} d={d}: 2BW version rule not shift-invariant"
                        ));
                    }
                }
                Err(e) => gate.violations.push(format!("nm={nm} d={d} 2BW: {e}")),
            }
        }
    }
    for chunks in [2usize, 4] {
        let sched = Schedule::Interleaved1F1B {
            chunks,
            composite: true,
        };
        let wsp = WspParams::new(4, 0);
        match interleaved_chunk_versions(sched, 4, wsp) {
            Ok(demand) => {
                gate.say(format!(
                    "staleness    interleaved chunks={chunks}: per-chunk 2BW pins ≤1 extra \
                     version/stage, saves {} copies vs w_p stashing (proof horizon {})",
                    demand.versions_saved, demand.proof.horizon
                ));
            }
            Err(e) => gate
                .violations
                .push(format!("interleaved chunks={chunks}: {e}")),
        }
    }
    gate.say(format!(
        "staleness    WSP bound + 2BW rule proven exhaustively at {staleness_checked} \
         minibatch positions (12 configs, all shift-invariant)"
    ));

    // ------------------------------------------------------------------
    // Pass 5: model checking — the trainer's step loop, with its
    // negative control.
    // ------------------------------------------------------------------
    for (mode, workers, steps) in gatecheck::SCENARIOS {
        let scenario = format!("{mode:?}, {workers} workers x {steps}");
        match gatecheck::check(mode, workers, steps) {
            Ok(c) => gate.say(format!(
                "gate         {scenario:<38} {} states, {} steps, {} leaves all finished; \
                 gate closed in {} states; spread {} before any drain, {} after",
                c.states, c.steps, c.leaves, c.closed, c.spread, c.drained_spread
            )),
            Err(e) => gate.violations.push(format!("gate {scenario}: {e}")),
        }
    }
    let control = gatecheck::config(Mode::Wsp { nm: 2, d: 0 }, 3, 8);
    match explore(&Steps::skipping_gates(&gatecheck::dataset(), &control)).err() {
        Some(counterexample) => gate.say(format!(
            "gate         negative control: a worker stepped past its outstanding pull is \
             refuted after {} steps (Wsp {{ nm: 2, d: 0 }}, 3 workers x 8)",
            counterexample.schedule.len()
        )),
        None => gate.violations.push(
            "negative control FAILED: the checker passed a worker stepped past its \
             outstanding pull — the exploration is vacuous"
                .into(),
        ),
    }

    // ------------------------------------------------------------------
    // Verdict.
    // ------------------------------------------------------------------
    let lints = std::mem::take(&mut gate.lints);
    for lint in &lints {
        gate.say(format!("lint         {lint}"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(budget) = budget_secs {
        if elapsed > budget {
            gate.violations.push(format!(
                "wall-clock budget exceeded: {elapsed:.1}s > {budget:.1}s — the static gate \
                 grew past its pinned budget; speed it up or re-pin deliberately"
            ));
        }
    }
    let verdict = if gate.violations.is_empty() {
        format!(
            "\nverify_all: all static proofs hold ({} lints, {elapsed:.1}s{})",
            lints.len(),
            budget_secs
                .map(|b| format!(" of {b:.0}s budget"))
                .unwrap_or_default()
        )
    } else {
        let mut v = format!("\nverify_all: {} VIOLATIONS:", gate.violations.len());
        for violation in &gate.violations {
            v.push_str(&format!("\n  {violation}"));
        }
        v
    };
    let failed = !gate.violations.is_empty();
    if failed {
        eprintln!("{verdict}");
        gate.out.push(verdict);
    } else {
        gate.say(verdict);
    }
    if let Some(path) = report_path {
        let body = gate.out.join("\n") + "\n";
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("verify_all: could not write report {path}: {e}");
            std::process::exit(1);
        }
        println!("verify_all: report written to {path}");
    }
    if failed {
        std::process::exit(1);
    }
}
