//! Parallel-instruction workload characterization — the methodology of
//! Appendix C of the source report ("A Quantitative Approach for
//! Representing and Differentiating Parallel Architectures Workloads").
//!
//! The pipeline mirrors the report's tooling (spy + SITA):
//!
//! 1. a **trace** of dynamic instructions in a small RISC-like ISA with
//!    five operation classes ([`isa`]);
//! 2. the **oracle** scheduler ([`oracle`]) packs the trace into
//!    *parallel instructions* respecting only true flow dependencies —
//!    the architecture-invariant idealized machine;
//! 3. each workload is summarized by its **centroid** ([`centroid`]) —
//!    the average multiplicity of each operation class per cycle — and
//!    compared with the normalized Euclidean **similarity** (0 =
//!    identical, 1 = orthogonal);
//! 4. the competing **parallelism-matrix** technique ([`matrix`]) with
//!    its Frobenius-norm difference is implemented for the comparison
//!    study of the report's §4;
//! 5. **smoothability** ([`oracle::smoothability`]) measures how little
//!    the critical path stretches when the machine is narrowed to the
//!    average parallelism;
//! 6. [`nas`] generates synthetic kernels with the dependence structure
//!    of the eight NAS Parallel Benchmarks for the report's §5 analysis.
#![forbid(unsafe_code)]

pub mod centroid;
pub mod epi;
pub mod io;
pub mod isa;
pub mod matrix;
pub mod nas;
pub mod oracle;
pub mod program;

pub use centroid::{similarity, Centroid};
pub use isa::{OpClass, Trace, TraceBuilder, ValueId};
pub use oracle::{schedule, Schedule};
