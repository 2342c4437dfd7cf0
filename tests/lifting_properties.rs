//! Property tests pinning the fused lifting engine to the naive
//! lifting oracle, and the reversible integer transforms to bitwise
//! round trips.
//!
//! Three pins, per ISSUE 6:
//!
//! * the engine's fused lifting sweep (selected by a `DwtPlan` built
//!   from a CDF bank) agrees **bitwise** with the hidden straight-line
//!   oracle in `dwt::lifting`, on any number of lanes;
//! * the CDF 9/7 analysis/synthesis round trip is exact to 1e-10;
//! * the rounded integer transforms round-trip **bitwise (0 ULP)** on
//!   random i16-range matrices, across sizes *including odd
//!   dimensions*, where the f64 path cannot even run.

use dwt::engine::{lifting as elift, DwtPlan, KernelKind};
use dwt::lifting::{self, LiftingKind};
use dwt::{Boundary, FilterBank, Matrix};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = LiftingKind> {
    prop_oneof![Just(LiftingKind::Cdf97), Just(LiftingKind::LeGall53)]
}

/// Image rows for `blocks` blocks at depth `levels`; a `tall` image is
/// at least 256 rows, so its finest levels split into two to four
/// stripes when the plan has the lanes.
fn height(blocks: usize, levels: usize, tall: usize) -> usize {
    (blocks + tall * (128 >> (levels - 1))) << levels
}

/// Deterministic image mixing a random texture sample with smooth
/// structure, so wrap rows and pipeline margins see non-trivial data.
fn build_image(rows: usize, cols: usize, noise: &[f64]) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let v = noise[(r * 31 + c * 17) % noise.len()];
        v + (r as f64 * 0.13).sin() * 3.0 - (c as f64 * 0.07).cos() * 2.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine lifting == naive oracle, bitwise, for both banks across
    /// depths, aspect ratios and thread counts. Short levels are one
    /// stripe whose halo wraps onto itself, tall ones several.
    #[test]
    fn engine_lifting_matches_oracle(
        kind in arb_kind(),
        levels in 1usize..=4,
        row_blocks in 1usize..=12,
        col_blocks in 1usize..=12,
        tall in 0usize..=1,
        threads in 1usize..=4,
        noise in prop::collection::vec(-100.0f64..100.0, 64),
    ) {
        let rows = height(row_blocks, levels, tall);
        let cols = col_blocks << levels;
        let img = build_image(rows, cols, &noise);

        let oracle = lifting::decompose_oracle(&img, kind, levels).unwrap();
        let plan = DwtPlan::new(
            rows,
            cols,
            FilterBank::for_lifting(kind),
            levels,
            Boundary::Periodic,
        )
        .unwrap()
        .with_threads(threads);
        prop_assert_eq!(plan.kernel(), KernelKind::Lifting(kind));
        let got = plan.decompose(&img).unwrap();

        let d = got.approx.max_abs_diff(&oracle.approx).unwrap();
        prop_assert!(d == 0.0, "LL differs by {}", d);
        for (g, o) in got.detail.iter().zip(&oracle.detail) {
            for (name, gm, om) in [
                ("LH", &g.lh, &o.lh),
                ("HL", &g.hl, &o.hl),
                ("HH", &g.hh, &o.hh),
            ] {
                let d = gm.max_abs_diff(om).unwrap();
                prop_assert!(d == 0.0, "{} differs by {}", name, d);
            }
        }
    }

    /// Engine lifting synthesis == naive oracle synthesis, bitwise, and
    /// the plan round trip is exact to 1e-10 (relative to the image
    /// magnitude), across thread counts and with workspace reuse.
    #[test]
    fn lifting_round_trip_and_synthesis_oracle(
        kind in arb_kind(),
        levels in 1usize..=4,
        row_blocks in 1usize..=12,
        col_blocks in 1usize..=12,
        tall in 0usize..=1,
        threads in 1usize..=4,
        noise in prop::collection::vec(-100.0f64..100.0, 64),
    ) {
        let rows = height(row_blocks, levels, tall);
        let cols = col_blocks << levels;
        let img = build_image(rows, cols, &noise);

        let plan = DwtPlan::new(
            rows,
            cols,
            FilterBank::for_lifting(kind),
            levels,
            Boundary::Periodic,
        )
        .unwrap()
        .with_threads(threads);
        let mut ws = plan.make_workspace();
        let mut pyr = plan.make_pyramid();
        let mut back = Matrix::zeros(rows, cols);
        let scale = img.data().iter().fold(1.0f64, |a, &v| a.max(v.abs()));
        // Two passes through the same workspace: steady-state reuse must
        // not change the numbers.
        for _ in 0..2 {
            plan.decompose_into(&img, &mut ws, &mut pyr).unwrap();
            plan.reconstruct_into(&pyr, &mut ws, &mut back).unwrap();
            let err = img.max_abs_diff(&back).unwrap();
            prop_assert!(err <= 1e-10 * scale, "round-trip error {}", err);
        }
        let oracle_rec = lifting::reconstruct_oracle(&pyr, kind).unwrap();
        let d = oracle_rec.max_abs_diff(&back).unwrap();
        prop_assert!(d == 0.0, "synthesis differs from oracle by {}", d);
    }

    /// 1-D wrappers (now engine-backed) == 1-D oracles, bitwise.
    #[test]
    fn one_dimensional_wrappers_match_oracle(
        kind in arb_kind(),
        half in 1usize..=96,
        noise in prop::collection::vec(-1000.0f64..1000.0, 16),
    ) {
        let n = 2 * half;
        let x: Vec<f64> = (0..n)
            .map(|i| noise[i % noise.len()] + (i as f64 * 0.3).sin())
            .collect();
        let (a, d) = lifting::forward_1d(&x, kind).unwrap();
        let (oa, od) = lifting::forward_1d_oracle(&x, kind).unwrap();
        prop_assert_eq!(&a, &oa);
        prop_assert_eq!(&d, &od);
        let back = lifting::inverse_1d(&a, &d, kind).unwrap();
        let oback = lifting::inverse_1d_oracle(&oa, &od, kind).unwrap();
        prop_assert_eq!(back, oback);
    }

    /// Reversible integer lifting round-trips bitwise — zero ULP — on
    /// i16-range matrices of any shape, odd dimensions included.
    #[test]
    fn integer_lifting_round_trips_bitwise(
        kind in arb_kind(),
        rows in 1usize..=37,
        cols in 1usize..=37,
        levels in 1usize..=4,
        seed in 0u64..=u64::MAX / 2,
    ) {
        let orig: Vec<i32> = (0..rows * cols)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_add(seed)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) as i32 & 0xffff) - 32768
            })
            .collect();
        let mut data = orig.clone();
        elift::forward_int(&mut data, rows, cols, levels, kind).unwrap();
        elift::inverse_int(&mut data, rows, cols, levels, kind).unwrap();
        prop_assert_eq!(data, orig);
    }
}
