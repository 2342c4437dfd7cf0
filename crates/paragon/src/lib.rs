#![allow(clippy::needless_range_loop)] // co-indexing several arrays by dimension is the clear idiom here
#![forbid(unsafe_code)]

//! A deterministic virtual-time simulator of 1995-era message-passing
//! multicomputers, built to reproduce the machine-dependent effects the
//! source paper measures on the JPL Intel Paragon and Cray T3D:
//!
//! * **dimension-order (XY) routing with per-link contention** — the
//!   mechanism behind figures 5–7's collapse of the naive data
//!   distribution beyond 4 processors;
//! * **snake-like rank→node mappings** that keep logical neighbours one
//!   hop apart;
//! * **software communication overhead** (NX/PVM-style per-message
//!   startup and copy costs);
//! * **per-node memory with a paging penalty** — the mechanism behind the
//!   superlinear speedups of Appendix B figure 9;
//! * **per-category time accounting** feeding the `perfbudget` model;
//! * **deterministic fault injection** ([`faults::FaultPlan`]) — link
//!   drop/corrupt/delay, transient exchange failures, node slowdowns and
//!   permanent rank crashes, with retry/backoff costs charged as
//!   simulated time to a dedicated fault-recovery budget category.
//!
//! # Model
//!
//! Rank programs run on real OS threads and exchange *real data*; all
//! results are numerically genuine. Time, however, is *virtual*: every
//! computation charges seconds derived from an operation-count cost model
//! ([`machine::CpuProfile`]), and every communication charges time from a
//! network model ([`machine::NetProfile`] + [`topology::Topology`]).
//!
//! Communication is expressed through **collectives** ([`spmd::Ctx`]):
//! `exchange` (BSP-style message exchange), `barrier`, `broadcast`,
//! `gather`, and two global-sum algorithms (`gsum_naive`, the NX `gssum`
//! style many-to-many, and `gsum_tree`, the paper's replacement based on
//! one-to-one messages). Message arrival times are resolved in a
//! canonical order, so **all virtual-time results are deterministic**
//! regardless of host thread scheduling.

pub mod faults;
pub mod machine;
pub mod mapping;
pub mod network;
pub mod spmd;
pub mod topology;

pub use faults::{
    CommError, FaultPlan, FaultStats, LinkGeometry, PhaseFaults, RetryPolicy, SpmdError,
};
pub use machine::{CpuProfile, MachineSpec, MemoryProfile, NetProfile, Ops};
pub use mapping::Mapping;
pub use spmd::{run_spmd, Ctx, PhaseRecord, SpmdConfig, SpmdResult};
pub use topology::Topology;
