//! Mallat multi-resolution discrete wavelet transform.
//!
//! This crate is the primary contribution of the reproduction of
//! *"Wavelet Decomposition on High-Performance Computing Systems"*
//! (El-Ghazawi & Le Moigne, ICPP 1996). It implements the fast
//! multi-resolution algorithm of Mallat (1989): a 2-D image is decomposed
//! level by level into four sub-bands by separable quadrature-mirror
//! filtering along rows and columns, each followed by decimation by two;
//! the low/low band becomes the input of the next level.
//!
//! The crate provides:
//!
//! * [`filters`] — orthonormal filter banks: Haar (the paper's "filter
//!   size 2"), Daubechies D4 ("filter size 4"), D6, D8 ("filter size 8"),
//!   and D10, plus construction from arbitrary low-pass taps.
//! * [`matrix`] — a dense row-major [`Matrix`] used for images and
//!   sub-bands.
//! * [`dwt1d`] — one-dimensional analysis/synthesis (convolve + decimate,
//!   upsample + convolve), with selectable [`boundary`] handling.
//! * [`dwt2d`] — the separable 2-D Mallat step and multi-level
//!   [`pyramid::Pyramid`] decomposition/reconstruction.
//! * [`compress`] — coefficient thresholding, quantization and
//!   reconstruction-quality metrics, the application the paper motivates
//!   (EOSDIS-scale image compression).
//! * [`engine`] — the production transform path: a fused, cache-blocked
//!   2-D kernel behind reusable [`engine::DwtPlan`]s and zero-allocation
//!   [`engine::DwtWorkspace`]s. The image is swept in column bands; each
//!   band carries a ring buffer of `filter_len` row-filtered rows — the
//!   tile *halo*, the shared-memory analogue of the guard zones the paper
//!   exchanges between Paragon nodes (its `filter_len - 2` boundary rows).
//!   Where the paper ships guard rows over the mesh once per level, the
//!   engine keeps them resident in L1 and recomputes nothing: every input
//!   row is row-filtered exactly once per band.
//! * [`parallel`] — `decompose_par` / `reconstruct_par`: the [`engine`]
//!   with one lane per core, each lane a row stripe with guard zones as
//!   in the paper's coarse-grain Paragon algorithm.
//!
//! # Quickstart
//!
//! ```
//! use dwt::{filters::FilterBank, matrix::Matrix, dwt2d, boundary::Boundary};
//!
//! // A 16x16 ramp image.
//! let img = Matrix::from_fn(16, 16, |r, c| (r * 16 + c) as f64);
//! let bank = FilterBank::daubechies(4).unwrap();
//!
//! // Two decomposition levels.
//! let pyr = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
//! let back = dwt2d::reconstruct(&pyr, &bank, Boundary::Periodic).unwrap();
//!
//! let err: f64 = img
//!     .data()
//!     .iter()
//!     .zip(back.data())
//!     .map(|(a, b)| (a - b).abs())
//!     .fold(0.0, f64::max);
//! assert!(err < 1e-9);
//! ```
#![forbid(unsafe_code)]

pub mod boundary;
pub mod compress;
pub mod conv;
pub mod denoise;
pub mod dwt1d;
pub mod dwt2d;
pub mod engine;
pub mod error;
pub mod features;
pub mod filters;
pub mod lifting;
pub mod matrix;
pub mod packets;
pub mod parallel;
pub mod pyramid;
pub mod swt;

pub use boundary::Boundary;
pub use error::{DwtError, Result};
pub use filters::FilterBank;
pub use matrix::Matrix;
pub use pyramid::{Pyramid, Subbands};
