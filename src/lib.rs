//! Umbrella crate of the reproduction of *"Wavelet Decomposition on
//! High-Performance Computing Systems"* (El-Ghazawi & Le Moigne, ICPP
//! 1996) and its companion JNNIE studies.
//!
//! This crate re-exports the member crates so that the examples and
//! integration tests can use every subsystem; see the individual crates
//! for the real APIs:
//!
//! * [`dwt`] — the Mallat multi-resolution transform (the paper's
//!   primary contribution);
//! * [`imagery`] — synthetic Landsat-TM scenes and PGM I/O;
//! * [`maspar`] — the fine-grain SIMD array simulator and algorithms;
//! * [`paragon`] — the coarse-grain message-passing machine simulator;
//! * [`dwt_mimd`] — the distributed wavelet decomposition;
//! * [`perfbudget`] — the overhead-accounting model;
//! * [`nbody`] / [`pic`] — the Appendix B applications;
//! * [`workload`] — the Appendix C characterization framework.
#![forbid(unsafe_code)]

pub use dwt;
pub use dwt_mimd;
pub use imagery;
pub use maspar;
pub use nbody;
pub use paragon;
pub use perfbudget;
pub use pic;
pub use workload;
