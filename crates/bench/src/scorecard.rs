//! The paper scorecard: HetPipe's evaluation claims as data.
//!
//! Every claim of the paper's evaluation is one [`Claim`] row: Figures
//! 3–6, Table 4, §8.4's waiting-vs-idle split, §2.2's synchronization
//! taxonomy and Theorem 1. A row holds an id, its source, the paper's
//! number, the simulated number and a [`Kind`]:
//!
//! - a **qualitative ordering** is checked, and the `paper_scorecard`
//!   bin exits 1 when one fails;
//! - a **quantitative** row records the paper's and the simulated
//!   number and their ratio. It is never tuned, so a gap stays
//!   visible.
//!
//! An ordering row also records the paper's number where the paper
//! gives one, so its magnitude gap is visible too. Paper orderings the
//! simulator does not reproduce are quantitative rows with their sign
//! in the ratio.
//!
//! Every configuration uses the paper's fixed GPU-to-stage assignment
//! (`order_search: false`). Stage-order search is this repository's
//! extension and its simulation-refined pass overturns some of Figure
//! 4's orderings; its own rows (`ablation.order_search.*`) record what
//! it does to the paper's HD setting.
//!
//! Trainer rows (Figures 5–6, §2.2) compose simulated updates/second
//! with accuracy per update from the trainer
//! ([`hetpipe_train::train`]): `time = steps to target / updates per
//! second`. The trainer's seeded step order makes every run
//! reproducible, but one order is one sample of the workers' relative
//! speeds, so each row carries its seed and the spread of its value
//! over step-order seeds. An ordering on one is checked only where its
//! margin exceeds that spread, or where the trainer enforces it (the
//! bounded clock distances). `tests/paper_scorecard.rs` evaluates the
//! deterministic rows at [`Horizons::REDUCED`].
//!
//! Table 2 compares the systems qualitatively and measures nothing:
//!
//! | dimension                     | GPipe      | PipeDream | HetPipe         |
//! |-------------------------------|------------|-----------|-----------------|
//! | Heterogeneous cluster support | No         | No        | Yes             |
//! | Target large model training   | Yes        | No        | Yes             |
//! | Number of (virtual) workers   | 1          | 1         | n               |
//! | Data parallelism              | Extensible | Partition | Virtual workers |
//! | Proof of convergence          | Analytical | Empirical | Analytical      |

use crate::print_table;
use hetpipe_allreduce::HorovodBaseline;
use hetpipe_cluster::{Cluster, DeviceId, GpuKind};
use hetpipe_core::convergence::{time_to_accuracy, AccuracyCurve};
use hetpipe_core::vw::VirtualWorker;
use hetpipe_core::AllocationPolicy::{
    self, Custom, EqualDistribution, HybridDistribution, NodePartition,
};
use hetpipe_core::{HetPipeSystem, Placement, SystemConfig, SystemReport};
use hetpipe_des::SimTime;
use hetpipe_model::ModelGraph;
use hetpipe_partition::{PartitionProblem, PartitionSolver, StageCostModel};
use hetpipe_train::convex::{wsp_regret, ConvexProblem};
use hetpipe_train::{train, Dataset, Mode, TrainConfig, TrainOutcome};
use serde_json::{json, Value};

/// How a checked ordering compares the simulated number with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
}

impl Cmp {
    fn holds(self, x: f64, bound: f64) -> bool {
        match self {
            Cmp::Gt => x > bound,
            Cmp::Ge => x >= bound,
            Cmp::Lt => x < bound,
            Cmp::Le => x <= bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }
}

/// Whether a claim is checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A qualitative ordering: `simulated cmp bound` must hold.
    Ordering(Cmp, f64),
    /// Recorded with its ratio to the paper's number; never checked.
    Quantitative,
}

impl Kind {
    /// The check as text, e.g. `> 1`; `None` for a quantitative row.
    fn check(self) -> Option<String> {
        match self {
            Kind::Ordering(cmp, bound) => Some(format!("{} {bound}", cmp.symbol())),
            Kind::Quantitative => None,
        }
    }
}

/// Provenance of a row computed from trainer runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerRun {
    /// Model-initialization and step-order seed of every run the row
    /// uses.
    pub seed: u64,
    /// Range (max − min) of the row's value over repeated full runs.
    pub spread: f64,
}

/// One paper claim and the number this reproduction measures for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable id: `<section>.<model>[.<config>].<what>`.
    pub id: String,
    /// Section, figure or table of the paper.
    pub source: &'static str,
    /// The paper's number, where it gives one.
    pub paper: Option<f64>,
    /// The simulated number (NaN when undefined, e.g. no waiting).
    pub simulated: f64,
    /// Checked ordering or recorded quantity.
    pub kind: Kind,
    /// Set on rows that rest on the trainer.
    pub trainer: Option<TrainerRun>,
}

impl Claim {
    /// A quantitative row always holds; an ordering holds when its
    /// comparison does (never for a NaN value).
    pub fn holds(&self) -> bool {
        match self.kind {
            Kind::Ordering(cmp, bound) => cmp.holds(self.simulated, bound),
            Kind::Quantitative => true,
        }
    }

    /// Simulated over paper, where the paper gives a number.
    pub fn ratio(&self) -> Option<f64> {
        self.paper.map(|p| self.simulated / p)
    }

    fn to_json(&self) -> Value {
        let kind = match self.kind {
            Kind::Ordering(..) => "ordering",
            Kind::Quantitative => "quantitative",
        };
        let mut row = json!({
            "id": self.id.as_str(),
            "source": self.source,
            "kind": kind,
            "check": self.kind.check(),
            "paper": self.paper,
            "simulated": self.simulated,
            "ratio": self.ratio(),
            "holds": self.holds(),
        });
        if let (Value::Object(map), Some(t)) = (&mut row, &self.trainer) {
            map.insert("seed", json!(t.seed));
            map.insert("spread", json!(t.spread));
        }
        row
    }
}

/// The claims whose ordering does not hold.
pub fn failures(claims: &[Claim]) -> Vec<&Claim> {
    claims.iter().filter(|c| !c.holds()).collect()
}

/// Simulated horizons and step counts of one evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Horizons {
    /// Figure 3's standalone virtual workers.
    pub fig3_secs: f64,
    /// Figure 4, Table 4, §8.4, the order-search ablation and the
    /// throughputs Figures 5–6 convert into time.
    pub policy_secs: f64,
    /// The run-report claims: ED-local sync traffic and utilization.
    pub report_secs: f64,
    /// Theorem 1's steps per worker.
    pub theorem1_steps: &'static [u64],
}

impl Horizons {
    /// The `paper_scorecard` bin's horizons.
    pub const FULL: Horizons = Horizons {
        fig3_secs: 40.0,
        policy_secs: 60.0,
        report_secs: 60.0,
        theorem1_steps: &[500, 4000, 32_000],
    };
    /// The tier-1 test's horizons.
    pub const REDUCED: Horizons = Horizons {
        fig3_secs: 20.0,
        policy_secs: 25.0,
        report_secs: 20.0,
        theorem1_steps: &[500, 4000],
    };

    fn to_json(self) -> Value {
        json!({
            "fig3_secs": self.fig3_secs,
            "policy_secs": self.policy_secs,
            "report_secs": self.report_secs,
            "theorem1_steps": self.theorem1_steps,
        })
    }
}

/// Rows under construction; each section sets the id prefix and the
/// source its rows share.
#[derive(Default)]
struct Card {
    rows: Vec<Claim>,
    prefix: String,
    source: &'static str,
}

impl Card {
    fn section(&mut self, prefix: String, source: &'static str) {
        self.prefix = prefix;
        self.source = source;
    }

    fn check(&mut self, what: &str, paper: Option<f64>, sim: f64, (cmp, bound): (Cmp, f64)) {
        self.push(what, paper, sim, Kind::Ordering(cmp, bound));
    }

    fn record(&mut self, what: &str, paper: Option<f64>, sim: f64) {
        self.push(what, paper, sim, Kind::Quantitative);
    }

    fn push(&mut self, what: &str, paper: Option<f64>, simulated: f64, kind: Kind) {
        self.rows.push(Claim {
            id: format!("{}.{what}", self.prefix),
            source: self.source,
            paper,
            simulated,
            kind,
            trainer: None,
        });
    }

    /// Marks the last row as resting on trainer runs, with its spread
    /// from [`TRAINER_SPREADS`].
    fn trained(&mut self) {
        let last = self.rows.last_mut().expect("a row to mark");
        let spread = TRAINER_SPREADS.iter().find(|(id, _)| *id == last.id);
        last.trainer = Some(TrainerRun {
            seed: TRAINER_SEED,
            spread: spread
                .unwrap_or_else(|| panic!("no spread for {}", last.id))
                .1,
        });
    }
}

const ABOVE_ONE: (Cmp, f64) = (Cmp::Gt, 1.0);
const BELOW_ONE: (Cmp, f64) = (Cmp::Lt, 1.0);
const POSITIVE: (Cmp, f64) = (Cmp::Gt, 0.0);
const ZERO: (Cmp, f64) = (Cmp::Le, 0.0);

/// The two models of the evaluation, with their id labels.
fn models() -> [(&'static str, ModelGraph); 2] {
    [
        ("resnet152", hetpipe_model::resnet152(32)),
        ("vgg19", hetpipe_model::vgg19(32)),
    ]
}

/// A configuration with the paper's fixed stage assignment.
fn config(
    policy: AllocationPolicy,
    placement: Placement,
    d: usize,
    nm: Option<usize>,
) -> SystemConfig {
    SystemConfig {
        policy,
        placement,
        staleness_bound: d,
        nm_override: nm,
        order_search: false,
        ..SystemConfig::default()
    }
}

/// ED-local at the memory model's own `Nm` and clock distance `d`.
fn ed_local(d: usize) -> SystemConfig {
    config(EqualDistribution, Placement::Local, d, None)
}

/// One model on one cluster, simulated for the given seconds.
struct Sim<'a>(&'a Cluster, &'a ModelGraph, f64);

impl Sim<'_> {
    /// Builds and runs `c`, returning `(Nm, report)`.
    fn run(&self, c: &SystemConfig) -> (usize, SystemReport) {
        let sys = HetPipeSystem::build(self.0, self.1, c)
            .unwrap_or_else(|e| panic!("{:?} does not build: {e}", c.policy));
        (sys.nm(), sys.run_with_stats(SimTime::from_secs(self.2)).0)
    }

    fn ips(&self, c: &SystemConfig) -> f64 {
        self.run(c).1.throughput_images_per_sec()
    }

    /// Horovod's img/s over every GPU that holds the model.
    fn horovod_ips(&self) -> f64 {
        HorovodBaseline::evaluate_all(self.0, self.1)
            .expect("the model fits some GPU")
            .images_per_sec
    }
}

/// Every deterministic claim: the simulator's and Theorem 1's.
pub fn deterministic_claims(h: &Horizons) -> Vec<Claim> {
    let mut card = Card::default();
    fig3(&mut card, h);
    fig4(&mut card, h);
    table4(&mut card, h);
    section_8_4(&mut card, h);
    run_report(&mut card, h);
    ablations(&mut card, h);
    theorem1(&mut card, h);
    card.rows
}

/// Figure 3's seven single-VW configurations as device ids on the
/// paper testbed (4 GPUs per node in V, R, G, Q order).
const FIG3_CONFIGS: [(&str, [usize; 4]); 7] = [
    ("VVVV", [0, 1, 2, 3]),
    ("RRRR", [4, 5, 6, 7]),
    ("GGGG", [8, 9, 10, 11]),
    ("QQQQ", [12, 13, 14, 15]),
    ("VRGQ", [0, 4, 8, 12]),
    ("VVQQ", [0, 1, 12, 13]),
    ("RRGG", [4, 5, 8, 9]),
];

/// Figure 3's `Nm = 1` img/s, in [`FIG3_CONFIGS`] order per model.
const FIG3_PAPER_NM1: [[f64; 7]; 2] = [
    [96.0, 87.0, 58.0, 43.0, 42.0, 53.0, 58.0],
    [119.0, 107.0, 62.0, 51.0, 60.0, 116.0, 68.0],
];

/// Figure 3: standalone virtual workers (no parameter-server traffic).
/// Throughput rises with `Nm`, and the all-TITAN-V worker is fastest.
fn fig3(card: &mut Card, h: &Horizons) {
    let cluster = Cluster::paper_testbed();
    for ((model, graph), paper) in models().into_iter().zip(FIG3_PAPER_NM1) {
        card.section(format!("fig3.{model}"), "Fig 3");
        let sim = Sim(&cluster, &graph, h.fig3_secs);
        let mut nm1 = Vec::new();
        let mut pipelining_gain = f64::INFINITY;
        for ((label, devices), paper_ips) in FIG3_CONFIGS.into_iter().zip(paper) {
            let policy = Custom(vec![devices.map(DeviceId).to_vec()]);
            let standalone = |nm| SystemConfig {
                sync_transfers: false,
                ..config(policy.clone(), Placement::Default, 0, Some(nm))
            };
            let one = sim.ips(&standalone(1));
            pipelining_gain = pipelining_gain.min(sim.ips(&standalone(2)) / one);
            let what = format!("{}.nm1_ips", label.to_lowercase());
            card.record(&what, Some(paper_ips), one);
            nm1.push(one);
        }
        let over_next = |v: &[f64]| v[0] / v[1..].iter().copied().fold(0.0, f64::max);
        let (paper, simulated) = (over_next(&paper), over_next(&nm1));
        card.check("nm2_over_nm1_min", None, pipelining_gain, ABOVE_ONE);
        card.check("vvvv_over_next_nm1", Some(paper), simulated, ABOVE_ONE);
    }
}

/// Figure 4: the allocation policies at the `Nm` annotated on the
/// paper's bars, against Horovod, D = 0.
fn fig4(card: &mut Card, h: &Horizons) {
    let cluster = Cluster::paper_testbed();
    for (model, graph) in models() {
        card.section(format!("fig4.{model}"), "Fig 4");
        let sim = Sim(&cluster, &graph, h.policy_secs);
        let resnet = model == "resnet152";
        let [np_nm, ed_nm, hd_nm] = if resnet { [2, 7, 4] } else { [2, 5, 2] };
        let horovod = sim.horovod_ips();
        let over_horovod =
            |policy, placement, nm| sim.ips(&config(policy, placement, 0, Some(nm))) / horovod;
        let np = over_horovod(NodePartition, Placement::Default, np_nm);
        let ed = over_horovod(EqualDistribution, Placement::Default, ed_nm);
        let ed_local = over_horovod(EqualDistribution, Placement::Local, ed_nm);
        let hd = over_horovod(HybridDistribution, Placement::Default, hd_nm);
        let speedup = if resnet { 1.4 } else { 1.8 };
        card.check("ed_local_over_horovod", Some(speedup), ed_local, ABOVE_ONE);
        card.check("np_over_horovod", None, np, BELOW_ONE);
        card.check("ed_local_over_ed", None, ed_local / ed, ABOVE_ONE);
        if resnet {
            // The paper: ED and HD roughly match Horovod's 12 GPUs.
            card.record("ed_over_horovod", None, ed);
            card.record("hd_over_horovod", None, hd);
        } else {
            card.check("ed_over_horovod", None, ed, BELOW_ONE);
            card.check("hd_over_horovod", None, hd, BELOW_ONE);
            card.check("np_over_ed_local", None, np / ed_local, BELOW_ONE);
        }
    }
}

/// Table 4's GPU sets, in the paper's order.
const TABLE4_SETS: [(&str, &[GpuKind]); 4] = {
    use GpuKind::*;
    [
        ("4gpu", &[TitanV]),
        ("8gpu", &[TitanV, TitanRtx]),
        ("12gpu", &[TitanV, TitanRtx, QuadroP4000]),
        ("16gpu", &[TitanV, TitanRtx, QuadroP4000, Rtx2060]),
    ]
};

/// Table 4 per model, in [`models`] order: Horovod img/s (NaN for the
/// paper's "X"), HetPipe img/s and HetPipe's total concurrent
/// minibatches (virtual workers × Nm), per [`TABLE4_SETS`] rung.
const TABLE4_PAPER: [[[f64; 4]; 3]; 2] = [
    [
        [233.0, 353.0, 415.0, f64::NAN],
        [256.0, 516.0, 538.0, 580.0],
        [5.0, 20.0, 24.0, 28.0],
    ],
    [
        [164.0, 205.0, 265.0, 339.0],
        [300.0, 530.0, 572.0, 606.0],
        [5.0, 16.0, 20.0, 20.0],
    ],
];

/// Table 4: adding whimpy GPUs, Horovod vs HetPipe (ED-local; one
/// virtual worker on the single-node set), plus the headline case of
/// a cluster where only HetPipe can train at all.
fn table4(card: &mut Card, h: &Horizons) {
    for ((model, graph), [p_horovod, p_hetpipe, p_conc]) in models().into_iter().zip(TABLE4_PAPER) {
        let mut hetpipe = Vec::new();
        for (i, (set, kinds)) in TABLE4_SETS.into_iter().enumerate() {
            card.section(format!("table4.{model}.{set}"), "Table 4");
            let cluster = Cluster::testbed_subset(kinds);
            let sim = Sim(&cluster, &graph, h.policy_secs);
            let mut config = ed_local(0);
            if cluster.node_count() == 1 {
                config.policy = Custom(vec![cluster.devices().collect()]);
            }
            let (nm, report) = sim.run(&config);
            let ips = report.throughput_images_per_sec();
            let concurrent = (nm * report.minibatches_per_vw.len()) as f64;
            card.record("hetpipe_ips", Some(p_hetpipe[i]), ips);
            card.record("concurrent_minibatches", Some(p_conc[i]), concurrent);
            hetpipe.push(ips);
            let horovod = HorovodBaseline::evaluate_all(&cluster, &graph).expect("fits a GPU");
            if !horovod.excluded.is_empty() {
                // The paper's "X": Horovod cannot use the whole set.
                let excluded = horovod.excluded.len() as f64;
                card.check("horovod_excluded_gpus", Some(4.0), excluded, POSITIVE);
                continue;
            }
            card.record("horovod_ips", Some(p_horovod[i]), horovod.images_per_sec);
            let paper = Some(p_hetpipe[i] / p_horovod[i]);
            let over = ips / horovod.images_per_sec;
            if model == "vgg19" && i > 0 {
                card.check("hetpipe_over_horovod", paper, over, ABOVE_ONE);
            } else {
                card.record("hetpipe_over_horovod", paper, over);
            }
        }
        card.section(format!("table4.{model}"), "Table 4");
        let (paper, simulated) = (p_hetpipe[3] / p_hetpipe[2], hetpipe[3] / hetpipe[2]);
        card.record("16gpu_over_12gpu_hetpipe", Some(paper), simulated);
    }

    // The headline capability: pipelined model parallelism trains
    // ResNet-152 on RTX 2060s, none of which holds it for Horovod.
    card.section("table4.resnet152.g_only".to_string(), "Table 4");
    let cluster = Cluster::testbed_subset(&[GpuKind::Rtx2060]);
    let graph = hetpipe_model::resnet152(32);
    let horovod = HorovodBaseline::evaluate_all(&cluster, &graph).map_or(0, |h| h.devices.len());
    card.check("horovod_gpus", None, horovod as f64, ZERO);
    let sim = Sim(&cluster, &graph, h.policy_secs);
    let all = Custom(vec![cluster.devices().collect()]);
    let ips = sim.ips(&config(all, Placement::Local, 0, None));
    card.check("hetpipe_ips", None, ips, POSITIVE);
}

/// §8.4: waiting for the global weights vs true idle time, VGG-19,
/// D = 0 and 4. The paper measures ED-local; NP's heterogeneous
/// virtual workers show the effect at full strength.
fn section_8_4(card: &mut Card, h: &Horizons) {
    let cluster = Cluster::paper_testbed();
    let graph = hetpipe_model::vgg19(32);
    let sim = Sim(&cluster, &graph, h.policy_secs);
    let np = |d, nm| config(NodePartition, Placement::Default, d, nm);
    for (label, configs, paper_idle) in [
        ("np", [np(0, None), np(4, None)], None),
        ("ed_local", [ed_local(0), ed_local(4)], Some(0.18)),
    ] {
        card.section(format!("s8_4.vgg19.{label}"), "§8.4");
        let wait = configs.map(|c| {
            let report = sim.run(&c).1;
            let idle = report.idle_fraction_of_wait().unwrap_or(f64::NAN);
            let what = format!("d{}.idle_share_of_wait", c.staleness_bound);
            card.record(&what, paper_idle, idle);
            report.total_pull_wait_secs()
        });
        let paper = paper_idle.map(|_| 0.62);
        card.check("wait_d4_over_d0", paper, wait[1] / wait[0], BELOW_ONE);
    }

    // Raising D must not cost throughput (NP at Figure 4's Nm = 2).
    card.section("s8_4.vgg19.np".to_string(), "§8.4");
    let [d0, d4] = [0, 4].map(|d| sim.ips(&np(d, Some(2))));
    card.check("ips_d4_over_d0", None, d4 / d0, (Cmp::Ge, 0.98));
}

/// The run report of ED-local: local parameter placement keeps every
/// sync transfer inside a node while activations still cross nodes,
/// and the bottleneck GPU stays busy.
fn run_report(card: &mut Card, h: &Horizons) {
    let cluster = Cluster::paper_testbed();
    let [resnet, vgg] = models().map(|(_, graph)| {
        let sim = Sim(&cluster, &graph, h.report_secs);
        sim.run(&ed_local(0)).1
    });
    card.section("report.vgg19.ed_local".to_string(), "§8.3");
    let b = |bytes: u64| bytes as f64;
    card.check("sync_bytes_inter", None, b(vgg.sync_bytes_inter), ZERO);
    card.check("sync_bytes_intra", None, b(vgg.sync_bytes_intra), POSITIVE);
    card.check("act_bytes_inter", None, b(vgg.act_bytes_inter), POSITIVE);

    card.section("report.resnet152.ed_local".to_string(), "§8.3");
    let utils = resnet.gpu_utilization.iter().map(|&(_, u)| u);
    let max = utils.clone().fold(f64::MIN, f64::max);
    let min = utils.fold(f64::MAX, f64::min);
    card.check("max_gpu_util_busy", None, max, (Cmp::Gt, 0.5));
    card.check("max_gpu_util_in_range", None, max, (Cmp::Le, 1.01));
    card.check("min_gpu_util_in_range", None, min, (Cmp::Ge, 0.0));
}

/// Design ablations: the min–max partitioner against an equal-layer
/// split on the heterogeneous VRGQ worker, and this repository's
/// stage-order search under the paper's HD policy.
fn ablations(card: &mut Card, h: &Horizons) {
    let cluster = Cluster::paper_testbed();
    let devices = [0, 4, 8, 12].map(DeviceId);
    let gpus: Vec<_> = devices.iter().map(|&d| cluster.spec_of(d)).collect();
    let links = VirtualWorker::links(&cluster, &devices);
    for (model, graph) in models() {
        card.section(format!("ablation.partitioner.{model}"), "§7");
        let problem = PartitionProblem::new(&graph, gpus.clone(), links.clone(), 1);
        let dp = PartitionSolver::solve(&problem).expect("VRGQ holds the model");
        let costs = StageCostModel::new(&problem);
        let per = graph.len() / devices.len();
        let end = |s: usize| if s == 3 { graph.len() } else { (s + 1) * per };
        let naive = (0..4)
            .map(|s| costs.stage_secs(s, s * per..end(s)))
            .fold(0.0, f64::max);
        let ratio = naive / dp.bottleneck_secs;
        card.check("equal_layers_over_dp", None, ratio, ABOVE_ONE);

        card.section(format!("ablation.order_search.{model}"), "extension");
        let sim = Sim(&cluster, &graph, h.policy_secs);
        let mut hd = config(HybridDistribution, Placement::Default, 0, None);
        let fixed = sim.ips(&hd);
        hd.order_search = true;
        card.record("hd_with_over_without", None, sim.ips(&hd) / fixed);
    }
}

/// Theorem 1's `(N, Nm, D)` settings.
const THEOREM1_SETTINGS: [(usize, usize, usize); 6] = [
    (1, 1, 0),
    (4, 1, 0),
    (4, 4, 0),
    (4, 4, 2),
    (4, 7, 4),
    (8, 4, 1),
];

/// Theorem 1 / Appendix A: measured WSP regret against
/// `4 M L sqrt((2 s_g + s_l) N / T)` on a convex problem with known
/// constants. The bound holds at every `T` and the regret decays
/// with `T`.
fn theorem1(card: &mut Card, h: &Horizons) {
    card.section("theorem1".to_string(), "Theorem 1");
    let problem = ConvexProblem::random(5, 64, 2.0, 11);
    let w_star = problem.minimizer(120);
    let (mut worst, mut decay) = (0.0f64, 0.0f64);
    for (workers, nm, d) in THEOREM1_SETTINGS {
        let regret = |t| wsp_regret(&problem, workers, nm, d, t, &w_star);
        let runs: Vec<_> = h.theorem1_steps.iter().map(|&t| regret(t)).collect();
        worst = runs
            .iter()
            .map(|r| r.regret / r.bound)
            .fold(worst, f64::max);
        decay = decay.max(runs[runs.len() - 1].regret / runs[0].regret);
    }
    card.check("max_regret_over_bound", None, worst, (Cmp::Le, 1.0));
    card.check("regret_last_over_first_t", None, decay, BELOW_ONE);
}

/// Model-initialization and step-order seed of every trainer run.
const TRAINER_SEED: u64 = 42;
/// Total minibatch updates of every trainer run, split over its workers.
const TRAINER_UPDATES: u64 = 16_000;
/// Accuracy target of the time-to-accuracy rows (the paper trains to
/// 74% top-1 for ResNet-152 and 67% for VGG-19 on ImageNet; the
/// synthetic teacher task converges to ~85%).
const TARGET_ACCURACY: f64 = 0.70;

/// Spread (max − min) of every trainer row over nineteen full release
/// runs of `paper_scorecard`, with `TRAINER_SEED` edited to each of
/// 42–60. A run is deterministic, but its seeded step order is one
/// sample of the workers' relative speeds. Every checked ordering held
/// at all nineteen seeds. HetPipe-16's Figure 5 saving (smallest value
/// 0.125) is the only checked trainer ordering apart from the bounded
/// clock distances, which the trainer's gate bounds before any drain.
const TRAINER_SPREADS: [(&str, f64); 12] = [
    ("fig5.resnet152.hetpipe12_vs_horovod_time_saving", 0.351),
    ("fig5.resnet152.hetpipe16_vs_horovod_time_saving", 0.312),
    ("fig6.vgg19.d0_vs_horovod_time_saving", 0.246),
    ("fig6.vgg19.d4_vs_horovod_time_saving", 0.567),
    ("fig6.vgg19.d4_vs_d0_time_saving", 0.619),
    ("fig6.vgg19.d32_vs_d4_slowdown", 1.295),
    ("s2_2.bsp.max_clock_distance", 0.0),
    ("s2_2.ssp3.max_clock_distance", 0.0),
    ("s2_2.wsp_nm4_d0.max_clock_distance", 0.0),
    ("s2_2.wsp_nm4_d4.max_clock_distance", 0.0),
    ("s2_2.asp.max_clock_distance", 109.0),
    ("s2_2.wsp_nm4_d0_over_bsp_accuracy", 0.085),
];

/// The trainer runs, each distinct `(mode, workers)` once.
struct Trainer {
    dataset: Dataset,
    runs: Vec<(Mode, usize, TrainOutcome)>,
}

impl Trainer {
    fn run(&mut self, mode: Mode, workers: usize) -> &TrainOutcome {
        if let Some(i) = self.runs.iter().position(|r| r.0 == mode && r.1 == workers) {
            return &self.runs[i].2;
        }
        let config = TrainConfig {
            mode,
            workers,
            dims: vec![24, 64, 32, 8],
            batch: 32,
            lr: 0.03,
            momentum: 0.0,
            steps_per_worker: TRAINER_UPDATES / workers as u64,
            seed: TRAINER_SEED,
            snapshot_every: 100,
        };
        let out = train(&self.dataset, &config);
        self.runs.push((mode, workers, out));
        &self.runs.last().expect("just pushed").2
    }

    /// Seconds to [`TARGET_ACCURACY`] at `updates_per_sec` (NaN if the
    /// run never reaches it).
    fn time_to_target(&mut self, mode: Mode, workers: usize, updates_per_sec: f64) -> f64 {
        let out = self.run(mode, workers);
        let curve = AccuracyCurve::new(out.curve_steps.clone(), out.curve_accuracy.clone());
        time_to_accuracy(updates_per_sec, &curve, TARGET_ACCURACY).unwrap_or(f64::NAN)
    }

    /// Horovod: BSP with one worker per GPU that holds the model.
    fn horovod_time(&mut self, sim: &Sim, workers: usize) -> f64 {
        self.time_to_target(Mode::Bsp, workers, sim.horovod_ips() / 32.0)
    }

    /// HetPipe ED-local: WSP with one worker per virtual worker.
    fn hetpipe_time(&mut self, sim: &Sim, d: usize) -> f64 {
        let (nm, report) = sim.run(&ed_local(d));
        let workers = report.minibatches_per_vw.len();
        let updates_per_sec = report.throughput_minibatches_per_sec();
        self.time_to_target(Mode::Wsp { nm, d }, workers, updates_per_sec)
    }
}

/// Every claim resting on the trainer: the convergence of
/// Figures 5–6 (the paper's time to a target accuracy, composed from
/// simulated updates/second and the trainer's accuracy per update) and
/// the clock distances of §2.2's taxonomy.
pub fn trainer_claims(h: &Horizons) -> Vec<Claim> {
    let mut card = Card::default();
    let mut trainer = Trainer {
        dataset: Dataset::teacher(24, 8, 32, 8192, 2048, 7),
        runs: Vec::new(),
    };
    let saving = |t: f64, base: f64| 1.0 - t / base;

    // Figure 5: ResNet-152, Horovod on the 12 GPUs that hold the model
    // vs HetPipe on 12 and 16 GPUs, D = 0.
    card.section("fig5.resnet152".to_string(), "Fig 5");
    let graph = hetpipe_model::resnet152(32);
    let cluster16 = Cluster::paper_testbed();
    let cluster12 = Cluster::testbed_subset(TABLE4_SETS[2].1);
    let sim16 = Sim(&cluster16, &graph, h.policy_secs);
    let horovod = trainer.horovod_time(&sim16, 12);
    let t12 = trainer.hetpipe_time(&Sim(&cluster12, &graph, h.policy_secs), 0);
    let t16 = trainer.hetpipe_time(&sim16, 0);
    let (s12, s16) = (saving(t12, horovod), saving(t16, horovod));
    card.record("hetpipe12_vs_horovod_time_saving", Some(0.35), s12);
    card.trained();
    card.check(
        "hetpipe16_vs_horovod_time_saving",
        Some(0.39),
        s16,
        POSITIVE,
    );
    card.trained();

    // Figure 6: VGG-19 on 16 GPUs, Horovod vs HetPipe at D = 0, 4, 32.
    card.section("fig6.vgg19".to_string(), "Fig 6");
    let graph = hetpipe_model::vgg19(32);
    let sim = Sim(&cluster16, &graph, h.policy_secs);
    let horovod = trainer.horovod_time(&sim, 16);
    let [t0, t4, t32] = [0, 4, 32].map(|d| trainer.hetpipe_time(&sim, d));
    card.record("d0_vs_horovod_time_saving", Some(0.29), saving(t0, horovod));
    card.trained();
    card.record("d4_vs_horovod_time_saving", Some(0.49), saving(t4, horovod));
    card.trained();
    card.record("d4_vs_d0_time_saving", Some(0.28), saving(t4, t0));
    card.trained();
    card.record("d32_vs_d4_slowdown", Some(0.047), t32 / t4 - 1.0);
    card.trained();

    // §2.2: clock distances of the synchronization models, 4 workers.
    // A bounded model's distance before any worker drains is within
    // `Mode::spread_bound` in every step order (`verify_all`'s model
    // check proves it at small sizes).
    for (label, mode) in [
        ("bsp", Mode::Bsp),
        ("ssp3", Mode::Ssp { s: 3 }),
        ("wsp_nm4_d0", Mode::Wsp { nm: 4, d: 0 }),
        ("wsp_nm4_d4", Mode::Wsp { nm: 4, d: 4 }),
        ("asp", Mode::Asp),
    ] {
        card.section(format!("s2_2.{label}"), "§2.2");
        let distance = trainer.run(mode, 4).max_clock_distance as f64;
        match mode.spread_bound() {
            Some(b) => card.check("max_clock_distance", None, distance, (Cmp::Le, b as f64)),
            None => card.record("max_clock_distance", None, distance),
        }
        card.trained();
    }
    card.section("s2_2".to_string(), "§2.2");
    let bsp = trainer.run(Mode::Bsp, 4).final_accuracy;
    let wsp = trainer.run(Mode::Wsp { nm: 4, d: 0 }, 4).final_accuracy;
    card.record("wsp_nm4_d0_over_bsp_accuracy", Some(1.0), wsp / bsp);
    card.trained();
    card.rows
}

/// The scorecard as JSON: the horizons, the trainer setup and every row.
pub fn to_json(h: &Horizons, claims: &[Claim]) -> Value {
    let failed: Vec<&str> = failures(claims).iter().map(|c| c.id.as_str()).collect();
    let orderings = claims
        .iter()
        .filter(|c| c.kind != Kind::Quantitative)
        .count();
    json!({
        "horizons": h.to_json(),
        "trainer": {
            "seed": TRAINER_SEED,
            "updates": TRAINER_UPDATES,
            "target_accuracy": TARGET_ACCURACY,
        },
        "orderings": orderings,
        "failures": failed,
        "claims": claims.iter().map(Claim::to_json).collect::<Vec<_>>(),
    })
}

/// Prints the rows as one table.
pub fn print(claims: &[Claim]) {
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
    let rows: Vec<Vec<String>> = claims
        .iter()
        .map(|c| {
            let status = match (c.kind, c.holds()) {
                (Kind::Quantitative, _) => "recorded",
                (_, true) => "ok",
                (_, false) => "FAILED",
            };
            let check = c.kind.check().unwrap_or_else(|| "-".to_string());
            let (paper, simulated, ratio) = (num(c.paper), num(Some(c.simulated)), num(c.ratio()));
            vec![
                c.id.clone(),
                c.source.to_string(),
                paper,
                simulated,
                ratio,
                check,
                status.to_string(),
            ]
        })
        .collect();
    let headers = [
        "claim",
        "source",
        "paper",
        "simulated",
        "sim/paper",
        "check",
        "status",
    ];
    print_table("Paper scorecard", &headers, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_configs_match_labels() {
        let cluster = Cluster::paper_testbed();
        for (label, devices) in FIG3_CONFIGS {
            let derived: String = devices
                .iter()
                .map(|&d| cluster.kind_of(DeviceId(d)).code())
                .collect();
            assert_eq!(derived, label);
        }
    }

    #[test]
    fn table4_sets_grow() {
        for (i, (_, kinds)) in TABLE4_SETS.iter().enumerate() {
            assert_eq!(kinds.len(), i + 1);
        }
    }

    /// The complementary comparison: for a number, exactly one of `cmp`
    /// and `inverse(cmp)` holds.
    fn inverse(cmp: Cmp) -> Cmp {
        match cmp {
            Cmp::Gt => Cmp::Le,
            Cmp::Ge => Cmp::Lt,
            Cmp::Lt => Cmp::Ge,
            Cmp::Le => Cmp::Gt,
        }
    }

    #[test]
    fn inverted_orderings_fail() {
        // Negative control: every ordering inverted must be reported,
        // so an evaluator that passes everything fails here.
        let claims = deterministic_claims(&Horizons::REDUCED);
        let inverted: Vec<Claim> = claims
            .iter()
            .filter_map(|c| match c.kind {
                Kind::Ordering(cmp, bound) => Some(Claim {
                    kind: Kind::Ordering(inverse(cmp), bound),
                    ..c.clone()
                }),
                Kind::Quantitative => None,
            })
            .collect();
        assert!(inverted.len() >= 20, "{} orderings", inverted.len());
        assert_eq!(failures(&inverted).len(), inverted.len());
        let id = "fig4.vgg19.ed_local_over_horovod";
        assert!(
            failures(&inverted).iter().any(|c| c.id == id),
            "{id} not reported"
        );
    }

    #[test]
    fn quantitative_rows_never_fail_and_nan_orderings_do() {
        let mut card = Card::default();
        card.section("t".to_string(), "Fig 3");
        card.record("q", Some(96.0), 48.0);
        card.check("nan", None, f64::NAN, BELOW_ONE);
        card.check("nan_inverse", None, f64::NAN, (Cmp::Ge, 1.0));
        assert_eq!(card.rows[0].ratio(), Some(0.5));
        let failed: Vec<&str> = failures(&card.rows).iter().map(|c| c.id.as_str()).collect();
        assert_eq!(failed, ["t.nan", "t.nan_inverse"]);
    }

    #[test]
    fn json_rows_carry_paper_simulated_and_kind() {
        let mut card = Card::default();
        card.section("fig6.vgg19".to_string(), "Fig 6");
        card.check("o", Some(1.8), 1.4, ABOVE_ONE);
        card.record("d0_vs_horovod_time_saving", Some(0.29), 0.2);
        card.trained();
        let text =
            serde_json::to_string(&to_json(&Horizons::REDUCED, &card.rows)).expect("serializes");
        for needle in [
            r#""id":"fig6.vgg19.o","source":"Fig 6","kind":"ordering","check":"> 1","paper":1.8,"simulated":1.4"#,
            r#""kind":"quantitative","check":null,"paper":0.29,"simulated":0.2"#,
            r#""seed":42,"spread":0.246"#,
            r#""failures":[]"#,
        ] {
            assert!(text.contains(needle), "{needle} missing from {text}");
        }
    }
}
