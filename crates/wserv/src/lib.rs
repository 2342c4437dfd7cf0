//! `wserv` — a sharded, batching wavelet-decomposition service.
//!
//! This crate puts the `dwt` engine behind a real serving pipeline:
//!
//! ```text
//!                         submit(DecomposeRequest)
//!                                   │
//!                         validate + shape-hash route
//!                ┌──────────────────┼──────────────────┐
//!                ▼                  ▼                  ▼
//!          shard 0            shard 1     …      shard N-1
//!        ┌─────────────────────────────────────────────────┐
//!        │ AdmissionQueue: bounded, 3 priority classes,    │
//!        │   deadline fast-fail, shed strictly-lower work  │
//!        │ Batch: coalesce same-shape entries (≤ max_batch)│
//!        │ PlanCache: shape-keyed LRU of plan + workspace  │
//!        │ execute: one plan drive over the whole batch    │
//!        └─────────────────────────────────────────────────┘
//!                │ resolve ResponseHandle / record metrics
//!                ▼
//!        MetricsSnapshot → perfbudget::BudgetReport
//! ```
//!
//! Two drivers share every policy component — the queue, batcher and
//! cache state machines, and the crate-private `policy` module, which
//! holds each post-door decision (re-admission, quarantine, restart or
//! fail-over, steal/split/merge, degraded responses) once:
//!
//! * [`WaveletService`] — the live threaded server (one worker thread
//!   per shard, wall-clock service time, graceful-drain shutdown);
//! * [`sim::run_sim`] — a deterministic discrete-event simulator
//!   (virtual clock, analytic [`sim::CostModel`]) used by the
//!   `bench_service` load generator to emit byte-reproducible latency
//!   and throughput numbers.
//!
//! A request's latency is the one its response carries
//! ([`DecomposeResponse::latency_s`]): both drivers keep fixed-size
//! counters and lanes, nothing per request.
//!
//! The split is what makes both halves testable: policies are pure
//! state machines over an explicit `now`, so property tests can drive
//! them deterministically, while the live server only contributes
//! threading and timekeeping.
//!
//! Every request terminates in exactly one [`ServeResult`]; the
//! rejection taxonomy ([`Rejection`]) is part of the API. All stages
//! account their time in the shared [`perfbudget`] lane vocabulary so a
//! serving run rolls up into the same [`perfbudget::BudgetReport`] as
//! the SPMD simulators.
//!
//! Faults are part of the configuration, not an accident: a seeded
//! [`ShardFaultPlan`] injects worker panics, permanent shard crashes,
//! stall windows and poison requests into both drivers at the same
//! shard-local dispatch indices. Workers isolate panics with
//! `catch_unwind`; a supervisor ([`SupervisorPolicy`]) restarts the
//! dead under a bounded exponential-backoff budget, exhausted shards
//! fail over to ring successors ([`ShardMap::route`]) with typed
//! [`Rejection::ShardFailed`] / [`Rejection::Requeued`] outcomes for
//! what cannot be saved, and an optional [`DegradedPolicy`] answers
//! sub-interactive work on pressured shards with bounded-error
//! responses instead of rejections ([`sim::run_sim`] replays the same
//! plan in virtual time). Restart, requeue and backoff time lands in the
//! FaultRecovery lane.
#![forbid(unsafe_code)]

pub mod admission;
pub mod batch;
pub mod cache;
pub mod elastic;
pub mod faults;
pub mod metrics;
mod policy;
pub mod progressive;
pub mod remote;
pub mod request;
pub mod server;
pub mod shard;
pub mod sim;
pub mod transport;
pub mod wire;

pub use admission::{AdmissionQueue, Admit, Pop};
pub use batch::{Batch, BatchPolicy};
pub use cache::{CachedPlan, PlanCache};
pub use elastic::{
    BalanceAction, BalanceController, CostBook, ElasticPolicy, QueuedShape, ShardLoad, ShardMap,
};
pub use faults::{
    DegradedPolicy, ShardFaultPlan, SupervisorPolicy, WireDir, WireFault, WireFaultPlan,
};
pub use metrics::{LaneSplit, MetricsSnapshot, QueueCounters, ShardMetrics, TransportMetrics};
pub use progressive::{pyramid_max_abs_diff, split_response, Reassembler};
pub use remote::{
    ProgressiveTally, RemoteClient, RemoteConfig, RemoteMetrics, RemoteServer, RetryPolicy,
};
pub use request::{
    DecomposeRequest, DecomposeResponse, Entry, Priority, RejectKind, Rejection, ServeResult,
};
pub use server::{ResponseHandle, ServiceConfig, ServiceError, WaveletService};
pub use transport::{
    mem_pair, MemListener, TcpAcceptor, TcpConnector, TcpTransport, Transport, TransportError,
};
pub use wire::{
    Frame, FrameKind, PlaneBand, PlaneCoeffs, ProgressiveHeader, ProgressivePlane, ResponseBody,
    WireError,
};
