//! Fault-aware dynamic execution for the HetPipe reproduction.
//!
//! HetPipe's premise is throughput on *whimpy, heterogeneous*
//! clusters — exactly the hardware where GPUs throttle, links degrade,
//! and nodes die mid-epoch. Every schedule in `hetpipe-schedule` is a
//! static infinite iterator; this crate adds the dynamic layer that
//! reacts when the hardware stops matching the plan:
//!
//! - [`ScenarioScript`] / [`ScenarioEvent`] — the one script type: a
//!   deterministic, replayable sequence of perturbations ([`Fault`]:
//!   GPU slowdown windows, link degradation, GPU loss and recovery)
//!   and lease events ([`ScenarioEvent::GpuGranted`] /
//!   [`ScenarioEvent::GpuPreempted`]: spot GPUs handed to the job and
//!   taken back), compiled to resource service-rate edges the
//!   executor fires as first-class DES events
//!   (`hetpipe_core::exec::SegmentOpts`). Unavailable lease intervals
//!   compile to the same rate-0 windows as GPU loss (min-composed with
//!   fault windows), but leases also surface as *control-plane*
//!   transitions ([`ScenarioScript::lease_transitions`]) the
//!   controller reacts to with hysteresis: a preemption drops the GPU
//!   at a wave boundary, a re-grant re-admits it (a **grow-splice**),
//!   and a flap shorter than the hysteresis window produces no splice
//!   at all.
//! - [`MonitorFold`] / [`Signal`] — the feedback path: a per-stage
//!   EWMA of observed vs planned task durations, folded from each
//!   probe's spans as the executor records them ([`Monitor`] runs the
//!   same fold over a kept trace), raising `Straggler` / `GpuLost` /
//!   `Recovered` signals. Purely observational — the monitor never
//!   reads the script.
//! - [`Policy`] / [`run`] — the reactive controller:
//!   [`Policy::Static`] (baseline), [`Policy::SkipStraggler`]
//!   (bounded out-of-order service of ready backwards in the
//!   executor's lanes), and [`Policy::Replan`] (re-run the
//!   fast planner with observed costs and surviving GPUs —
//!   warm-started from the incumbent plan — and splice the new plan
//!   at a wave boundary).
//!
//! # Grow-splices: re-admission is as sound as eviction
//!
//! PR 5's splice argument was only exercised *shrinking* (dropping a
//! straggler or a dead GPU); the elastic controller also splices to a
//! **wider** pipeline (a re-granted or newly-granted GPU, with `Nm`
//! re-raised when the widened pipeline allows it). The WSP soundness
//! argument carries over unchanged because it never depended on the
//! direction of the reshape: a drained wave boundary leaves *no*
//! in-flight minibatch and every VW at the same wave count, so the
//! continuation — whatever its shape — starts from the fully
//! synchronized state, the most conservative configuration the
//! staleness gate can see. The re-admitted GPU needs no weight
//! history: it starts from the boundary wave's shadow-copy version
//! exactly like every surviving GPU (PipeDream-2BW double buffering),
//! and the grown plan is re-certified (`plan_fits_per_gpu`) and
//! audited per-epoch like any other splice.
//!
//! # The wave-boundary splice and WSP staleness
//!
//! Reconfiguration always happens at a **wave boundary**: the
//! controller drains the executor to the first boundary at/after the
//! triggering signal ([`hetpipe_core::exec::SegmentOpts::stop_after_mb`]),
//! commits that segment as an *epoch* with its own
//! [`OccupancyAudit`](hetpipe_core::OccupancyAudit), and starts the
//! next segment with fresh streams whose minibatch/wave numbering the
//! report rebases to global indices — a drained boundary leaves
//! nothing in flight, so "fresh + offset" *is* the correct resumed
//! state, and the refill bubble is the reconfiguration's honest cost.
//! At a boundary every VW has pushed the same whole number of waves
//! and holds no in-flight minibatch, so the only weight state a
//! continuation needs is the version the boundary wave closed —
//! exactly the shadow copy PipeDream-2BW double buffering keeps
//! (`WspParams::two_bw_version`). A continuation therefore starts
//! *fully synchronized*, which is the most conservative configuration
//! WSP's staleness gate can see: every distance-`D` bound that held
//! for an uninterrupted run holds with slack for the spliced one.
//!
//! # Determinism
//!
//! Everything is deterministic: scripts are data (seeded generators
//! included), the DES engine breaks ties by insertion order, and the
//! controller's decisions are pure functions of the (deterministic)
//! trace — same script + same seed ⇒ identical epochs, traces, and
//! reports, on any thread count. A zero-fault script under any policy
//! commits exactly the trace of a plain one-shot run, bit for bit
//! (`tests/runtime_scenarios.rs` pins both properties).

pub mod controller;
pub mod monitor;
pub mod scenario;

pub use controller::{run, Epoch, Policy, RuntimeParams, RuntimeReport};
pub use monitor::{Monitor, MonitorConfig, MonitorFold, Signal};
pub use scenario::{Fault, LeaseTransition, ScenarioEvent, ScenarioScript};
