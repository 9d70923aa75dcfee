//! The parallel fleet simulator: one DES engine per virtual worker.
//!
//! The single-engine executor (`hetpipe_core::exec`) simulates every
//! VW on one event queue; its only cross-VW coupling is the WSP gate
//! (`min_clock` over all VWs' push clocks deciding pull serves) — but
//! each push completion scans every VW's pending pull, so the loop is
//! O(V²) in fleet size and inherently serial. This crate runs each
//! VW's event stream on its own [`hetpipe_des::EngineCore`] instance
//! (one engine per scoped thread-pool slot) and moves the WSP gate
//! state behind a shared [`FleetBus`], the *only* cross-engine
//! channel. Synchronization is conservative: an engine advances past
//! a gate only when the serve is provably decided, so the parallel
//! run is deterministic and bit-identical to the single-engine
//! executor regardless of thread count.
//!
//! # Runtime sync rules and the certificates behind them
//!
//! The fleet decomposition's runtime rules and the `hetpipe-verify`
//! results they rest on:
//!
//! - **VW isolation → the bus message types.** The isolation pass
//!   certifies that every cross-VW dependency edge is a parameter-
//!   server push→gate coupling (all other footprints are VW-private).
//!   Accordingly the [`GateBus`] carries exactly three message kinds:
//!   push-landing announces, monotone action frontiers, and pull-serve
//!   polls — nothing else crosses engines, and the fleet topology
//!   ([`FleetTopology`]) keeps each cell's GPU/NIC timelines
//!   node-disjoint so no *resource* edge crosses either.
//! - **Lookahead → the bus's horizon.** A push's landing time is
//!   announced at push *start* (its chunk arrivals are reserved up
//!   front), and the bus's lookahead is each VW's `min_push_step`: a
//!   lower bound on any push's duration, taken from transfer physics
//!   (link bandwidth over the VW's push chunks, divided by the fastest
//!   NIC rate its script can reach). An unannounced landing therefore
//!   lies at least that far past the VW's action floor, which is what
//!   lets the conservative protocol decide serves without rollback.
//!   `hetpipe_verify::lookahead`'s op-count closed form (where gates
//!   and pushes sit in every committed op stream) is a static
//!   certificate over the same streams; no runtime verdict reads it.
//! - **Gate check → the advance rule.** The POR-model-checked
//!   `ShadowGateProtocol` (`hetpipe_verify::gatecheck`) proves the
//!   gate advance rule safe: a VW passes gate(`w`) only when *all*
//!   VWs' push clocks have reached `w + 1`. [`FleetBus::poll_serve`]
//!   implements the same rule over announced landings — `Ready` is
//!   returned only when every VW's target-wave push has landed *and*
//!   every still-running VW is provably past the serve instant, so
//!   the decided `(time, version)` can never be invalidated by a
//!   future announce.
//!
//! # Memory
//!
//! Each engine's stats fold into a per-VW [`VwPartial`] (busy time,
//! completions, waits and event counts) the moment the engine
//! finishes. Unless the caller asked to keep traces, engines record no
//! spans at all (`hetpipe_des::Discard`), so fleet memory is O(VWs),
//! not O(events).

pub mod bus;
pub mod driver;
pub mod parity;
pub mod topo;

pub use bus::{BusCounters, FleetBus};
pub use driver::{run_fleet, FleetConfig, FleetReport, VwPartial};
pub use hetpipe_core::{GateBus, ServePoll};
pub use parity::{merged_spans, trace_fingerprint};
pub use topo::FleetTopology;
