//! Barnes-Hut N-body simulation — the first application of the JNNIE
//! overhead study (Appendix B of the source report).
//!
//! The implementation follows the report's description:
//!
//! * a 2-D quadtree with `m = 1` bodies per terminal cell, rebuilt every
//!   time step ([`tree`]);
//! * multipole (centre-of-mass) force approximation controlled by the
//!   opening criterion `b / |r_cm| < θ` ([`force`]), with an `O(N²)`
//!   direct-summation baseline;
//! * **Costzones** partitioning: bodies are split into contiguous
//!   equal-cost zones along the tree's in-order traversal, using each
//!   body's interaction count from the previous step ([`costzones`]);
//! * a **manager-worker** SPMD port ([`parallel`]): the manager builds
//!   the tree, broadcasts it, workers compute forces for their zones and
//!   send updated bodies back — reproducing the communication focal point
//!   and distance-variability imbalance the report measures.
#![forbid(unsafe_code)]

pub mod body;
pub mod costzones;
pub mod diagnostics;
pub mod force;
pub mod galaxy;
pub mod orb;
pub mod parallel;
pub mod serial;
pub mod tree;

pub use body::Body;
pub use force::{direct_force, tree_force, ForceParams};
pub use tree::QuadTree;

/// Operation-count cost constants for the virtual-time machine models.
///
/// The per-interaction mix is integer-dominated (tree traversal, pointer
/// chasing, branching), matching the report's instruction-mix finding
/// that N-body is ~60% integer operations; the absolute scale is
/// calibrated to the serial iteration times of Appendix B tables 1–2.
pub mod cost {
    use paragon::Ops;

    /// One body-cell or body-body interaction during force evaluation.
    pub fn interaction_ops() -> Ops {
        Ops {
            flops: 5,
            intops: 100,
            memops: 8,
        }
    }

    /// Inserting one body into the tree, per tree level descended.
    pub fn insert_ops_per_level() -> Ops {
        Ops {
            flops: 2,
            intops: 24,
            memops: 10,
        }
    }

    /// Centre-of-mass upward pass, per cell.
    pub fn com_ops_per_cell() -> Ops {
        Ops {
            flops: 12,
            intops: 10,
            memops: 8,
        }
    }

    /// Leapfrog update of one body.
    pub fn update_ops_per_body() -> Ops {
        Ops {
            flops: 12,
            intops: 6,
            memops: 10,
        }
    }

    /// Wire size of one body (the report: "the structure representing a
    /// body holds 56 bytes of data in two dimensions").
    pub const BODY_BYTES: usize = 56;

    /// Wire size of one broadcast tree cell (centre of mass, mass, cost,
    /// four child indices).
    pub const CELL_BYTES: usize = 48;
}
