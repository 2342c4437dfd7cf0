//! Synthetic remote-sensing imagery and image utilities.
//!
//! The paper's experiments decompose a 512×512 Landsat Thematic Mapper
//! image of the Pacific Northwest. That data product is not freely
//! redistributable, so this crate generates a deterministic synthetic
//! stand-in with the statistical structure that matters for wavelet
//! processing: a 1/f-like spectral decay (terrain), piecewise-constant
//! regions (agricultural fields), curvilinear features (rivers/roads) and
//! sensor noise. The DWT's arithmetic cost is data-independent, so all
//! performance results are unaffected by the substitution; the synthetic
//! scene keeps the *compression* examples honest.
#![forbid(unsafe_code)]

pub mod pgm;
pub mod register;
pub mod stats;
pub mod synth;

pub use synth::{landsat_scene, SceneParams, TmBand};
