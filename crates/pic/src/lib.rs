#![allow(clippy::needless_range_loop)] // co-indexing several arrays by dimension is the clear idiom here
#![forbid(unsafe_code)]

//! 3-D electrostatic Particle-In-Cell (PIC) simulation — the second
//! application of the JNNIE overhead study (Appendix B of the source
//! report).
//!
//! The time step follows the report's four phases:
//!
//! 1. **Charge assignment** — Cloud-In-Cell (trilinear) deposition of
//!    particle charge onto the periodic grid ([`deposit`]);
//! 2. **Field solve** — Poisson's equation by 3-D FFT
//!    ([`fft`], [`poisson`]), then the electric field by central
//!    differences;
//! 3. **Force interpolation** — trilinear gather of `E` at the particle
//!    positions;
//! 4. **Push** — leapfrog update with the report's adaptive time-step
//!    scheme (particles never cross more than one cell per step).
//!
//! The worker-worker SPMD port ([`parallel`]) divides the particles
//! uniformly, makes the charge grid global with either the `gssum`-style
//! many-to-many sum or the report's tree-based replacement, and
//! slab-decomposes the FFT.

pub mod deposit;
pub mod diagnostics;
pub mod fft;
pub mod grid;
pub mod parallel;
pub mod particle;
pub mod poisson;
pub mod sim;

pub use grid::Grid3;
pub use particle::Particle;
pub use sim::{PicConfig, PicState};

/// Operation-count cost constants for the virtual-time machine models,
/// calibrated to the serial iteration times of the report's tables 1–2
/// (memory-access-heavy, matching PIC's measured instruction mix).
pub mod cost {
    use paragon::Ops;

    /// Cloud-In-Cell deposition, per particle.
    pub fn deposit_ops() -> Ops {
        Ops {
            flops: 30,
            intops: 8,
            memops: 40,
        }
    }

    /// Field interpolation + leapfrog push, per particle.
    pub fn push_ops() -> Ops {
        Ops {
            flops: 50,
            intops: 12,
            memops: 70,
        }
    }

    /// Field solve (3-D FFT + Poisson + gradient), per grid point.
    pub fn grid_ops_per_point(m: usize) -> Ops {
        let logm = (usize::BITS - m.leading_zeros() - 1) as u64;
        Ops {
            flops: 14 * logm,
            intops: 18,
            memops: 10 * logm,
        }
    }

    /// Wire size of one particle (position + velocity, 6 doubles).
    pub const PARTICLE_BYTES: usize = 48;
}
