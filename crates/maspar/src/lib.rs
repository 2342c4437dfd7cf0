//! Fine-grain SIMD array simulator in the mould of the MasPar MP-1/MP-2,
//! with the two wavelet decomposition algorithms of the paper's §4.1.
//!
//! The MasPar is a SIMD machine: up to 16,384 processing elements (PEs)
//! in a 128×128 grid execute one broadcast instruction stream from the
//! array control unit (ACU). PEs talk to their eight neighbours over the
//! **X-net** (toroidal mesh) and to arbitrary PEs through the **global
//! router**, a circuit-switched multistage network in which every 4×4 PE
//! cluster shares a single serial port.
//!
//! The simulation is *virtual-time*, and what it models is the **cost
//! schedule**: each algorithm charges the array clock for every SIMD
//! primitive it would issue — broadcast, MAC, X-net shift, router
//! transaction — from the image and filter dimensions alone, through
//! one [`SimdMachine::charge_pass`] per systolic convolution. The
//! coefficients come from `dwt`'s own transforms (the Mallat engine for
//! [`systolic`] and [`reconstruct`], the à trous [`dwt::swt`] for
//! [`dilution`]), so each transform's arithmetic is written once. (The
//! `paragon` ranks, by contrast, compute their own data: their messages
//! carry it.) Images larger than the physical array are *virtualized*
//! ([`machine::Virtualization`]): either "cut and stack" (layered) or
//! hierarchical (one sub-image block per PE — the variant the paper found
//! superior thanks to its data locality).
//!
//! Two algorithms are provided, following the paper and its references:
//!
//! * [`systolic`] — the filter lives in the ACU and is broadcast tap by
//!   tap from last to first; each step is a multiply-accumulate followed
//!   by a one-PE westward shift of the partial sums. Decimation is done
//!   with the **global router** (compacting the kept coefficients).
//! * [`dilution`] — identical systolic structure, but the filter is
//!   *diluted* (stretched with zeros, à trous) so that at level `k` it
//!   aligns with the undecimated pixel grid; decimation never moves data,
//!   avoiding the router at the cost of redundant computation.
#![forbid(unsafe_code)]

pub mod cost;
pub mod dilution;
pub mod machine;
pub mod reconstruct;
pub mod systolic;

pub use cost::MasParCost;
pub use machine::{SimdMachine, Virtualization};
