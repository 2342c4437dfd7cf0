//! Property tests pinning the fused cache-blocked engine to the
//! materializing separable oracle.
//!
//! The engine (`dwt::engine`) replaces the two-pass textbook transform as
//! the production path of `dwt2d::decompose` / `parallel::decompose_par`.
//! These tests drive it across every boundary mode, filter length, depth
//! (1–5), ragged tile remainders (band widths that do not divide the
//! image), and thread counts, and require **bitwise** agreement with the
//! independent oracles `dwt2d::{decompose,reconstruct}_separable`: the
//! engine performs the same accumulation chains per coefficient, on any
//! number of lanes.

use dwt::engine::DwtPlan;
use dwt::lifting::{self, LiftingKind};
use dwt::{dwt2d, Boundary, FilterBank, Matrix};
use proptest::prelude::*;

fn arb_filter() -> impl Strategy<Value = FilterBank> {
    prop_oneof![
        Just(FilterBank::daubechies(2).unwrap()),
        Just(FilterBank::daubechies(4).unwrap()),
        Just(FilterBank::daubechies(6).unwrap()),
        Just(FilterBank::daubechies(8).unwrap()),
        Just(FilterBank::daubechies(10).unwrap()),
    ]
}

fn arb_mode() -> impl Strategy<Value = Boundary> {
    prop_oneof![
        Just(Boundary::Periodic),
        Just(Boundary::Symmetric),
        Just(Boundary::Zero),
    ]
}

/// Image rows for `blocks` blocks at depth `levels`; a `tall` image is
/// at least 256 rows, so its finest levels split into two to four
/// stripes when the plan has the lanes.
fn height(blocks: usize, levels: usize, tall: usize) -> usize {
    (blocks + tall * (128 >> (levels - 1))) << levels
}

/// Deterministic image mixing a random texture sample with smooth
/// structure, so boundary windows see non-trivial data.
fn build_image(rows: usize, cols: usize, noise: &[f64]) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let v = noise[(r * 31 + c * 17) % noise.len()];
        v + (r as f64 * 0.13).sin() * 3.0 - (c as f64 * 0.07).cos() * 2.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused engine == separable oracle, bitwise, for every mode and
    /// filter, depths 1-5, odd/even tile remainders and thread counts.
    #[test]
    fn engine_matches_separable_oracle(
        bank in arb_filter(),
        mode in arb_mode(),
        levels in 1usize..=5,
        row_blocks in 5usize..=8,
        col_blocks in 5usize..=8,
        tall in 0usize..=1,
        band_width in 3usize..=50,
        threads in 1usize..=4,
        noise in prop::collection::vec(-100.0f64..100.0, 64),
    ) {
        // Scale the base block count so every level halves evenly and the
        // coarsest input still covers the longest filter (2*5 >= 10).
        let rows = height(row_blocks, levels, tall);
        let cols = col_blocks << levels;
        let img = build_image(rows, cols, &noise);

        let oracle = dwt2d::decompose_separable(&img, &bank, levels, mode).unwrap();
        let plan = DwtPlan::new(rows, cols, bank.clone(), levels, mode)
            .unwrap()
            .with_band_width(band_width)
            .with_threads(threads);
        let got = plan.decompose(&img).unwrap();

        let d = got.approx.max_abs_diff(&oracle.approx).unwrap();
        prop_assert!(d == 0.0, "LL differs by {d}");
        for (g, o) in got.detail.iter().zip(&oracle.detail) {
            for (name, gm, om) in [
                ("LH", &g.lh, &o.lh),
                ("HL", &g.hl, &o.hl),
                ("HH", &g.hh, &o.hh),
            ] {
                let d = gm.max_abs_diff(om).unwrap();
                prop_assert!(d == 0.0, "{name} differs by {d}");
            }
        }
    }

    /// Workspace-backed engine round trip is exact (1e-10 relative) for
    /// the periodic mode, across depths, tile remainders and thread
    /// counts, including workspace reuse across calls.
    #[test]
    fn engine_round_trip(
        bank in arb_filter(),
        levels in 1usize..=5,
        row_blocks in 5usize..=8,
        col_blocks in 5usize..=8,
        tall in 0usize..=1,
        band_width in 3usize..=50,
        threads in 1usize..=4,
        noise in prop::collection::vec(-100.0f64..100.0, 64),
    ) {
        let rows = height(row_blocks, levels, tall);
        let cols = col_blocks << levels;
        let img = build_image(rows, cols, &noise);

        let plan = DwtPlan::new(rows, cols, bank.clone(), levels, Boundary::Periodic)
            .unwrap()
            .with_band_width(band_width)
            .with_threads(threads);
        let mut ws = plan.make_workspace();
        let mut pyr = plan.make_pyramid();
        let mut back = Matrix::zeros(rows, cols);
        let scale = img
            .data()
            .iter()
            .fold(1.0f64, |a, &v| a.max(v.abs()));
        // Two passes through the same workspace: steady-state reuse must
        // not change the numbers.
        for _ in 0..2 {
            plan.decompose_into(&img, &mut ws, &mut pyr).unwrap();
            plan.reconstruct_into(&pyr, &mut ws, &mut back).unwrap();
            let err = img.max_abs_diff(&back).unwrap();
            prop_assert!(err <= 1e-10 * scale, "round-trip error {err}");
        }
    }

    /// The engine's reconstruction agrees bitwise with the separable
    /// synthesis oracle for every boundary mode and thread count
    /// (synthesis is only an exact inverse for periodic, but both paths
    /// must compute the same thing).
    #[test]
    fn engine_reconstruct_matches_separable_oracle(
        bank in arb_filter(),
        mode in arb_mode(),
        levels in 1usize..=3,
        blocks in 5usize..=8,
        tall in 0usize..=1,
        threads in 1usize..=4,
        noise in prop::collection::vec(-100.0f64..100.0, 64),
    ) {
        let (rows, cols) = (height(blocks, levels, tall), blocks << levels);
        let img = build_image(rows, cols, &noise);
        let pyr = dwt2d::decompose_separable(&img, &bank, levels, mode).unwrap();
        let oracle = dwt2d::reconstruct_separable(&pyr, &bank, mode).unwrap();
        let plan = DwtPlan::new(rows, cols, bank.clone(), levels, mode)
            .unwrap()
            .with_threads(threads);
        let got = plan.reconstruct(&pyr).unwrap();
        let d = oracle.max_abs_diff(&got).unwrap();
        prop_assert!(d == 0.0, "reconstruction differs by {d}");
    }
}

/// Fixed texture for the table-driven cases below.
fn fixed_noise() -> Vec<f64> {
    (0..64u64)
        .map(|i| ((i.wrapping_mul(6364136223846793005) >> 33) % 2000) as f64 / 10.0 - 100.0)
        .collect()
}

/// The geometry the kernel benchmarks run, scaled to 1024²/L3: every
/// level has at least 128 sub-band rows, so each stripes on two lanes,
/// and the finest level spans two full default-width bands. D4 against
/// the separable oracles, both CDF banks against the lifting oracles,
/// at one and two lanes, both directions, bitwise.
#[test]
fn measured_geometry_matches_the_oracles_bitwise() {
    let (n, levels) = (1024, 3);
    let img = build_image(n, n, &fixed_noise());
    let d4 = FilterBank::daubechies(4).unwrap();
    let want = dwt2d::decompose_separable(&img, &d4, levels, Boundary::Periodic).unwrap();
    let back = dwt2d::reconstruct_separable(&want, &d4, Boundary::Periodic).unwrap();
    let mut cases = vec![(d4, want, back)];
    for kind in [LiftingKind::LeGall53, LiftingKind::Cdf97] {
        let want = lifting::decompose_oracle(&img, kind, levels).unwrap();
        let back = lifting::reconstruct_oracle(&want, kind).unwrap();
        cases.push((FilterBank::for_lifting(kind), want, back));
    }
    for (bank, want, back) in cases {
        for threads in [1, 2] {
            let plan = DwtPlan::new(n, n, bank.clone(), levels, Boundary::Periodic)
                .unwrap()
                .with_threads(threads);
            let at = format!("{} t{threads}", bank.name());
            assert!(plan.decompose(&img).unwrap() == want, "{at} decompose");
            assert!(plan.reconstruct(&want).unwrap() == back, "{at} reconstruct");
        }
    }
}

/// Every register-block remainder and every row edge of the convolution
/// kernels: each bank under each boundary, every even width from the
/// narrowest valid one to `4·filter_len + 6` (empty, one-block and
/// ragged interiors), depths 1–2, the default band width and three that
/// do not divide the output, both directions, bitwise.
#[test]
fn block_remainders_and_row_edges_match_the_oracles_bitwise() {
    let banks = [
        FilterBank::haar(),
        FilterBank::daubechies(4).unwrap(),
        FilterBank::daubechies(8).unwrap(),
        FilterBank::daubechies(10).unwrap(),
        FilterBank::coiflet(6).unwrap(),
    ];
    let noise = fixed_noise();
    for bank in &banks {
        let flen = bank.len();
        let rows = 4 * flen;
        for mode in Boundary::ALL {
            for levels in 1..=2 {
                let mut checked = 0;
                for cols in (2..=4 * flen + 6).step_by(2) {
                    let Ok(plan) = DwtPlan::new(rows, cols, bank.clone(), levels, mode) else {
                        continue;
                    };
                    let img = build_image(rows, cols, &noise);
                    let want = dwt2d::decompose_separable(&img, bank, levels, mode).unwrap();
                    let back = dwt2d::reconstruct_separable(&want, bank, mode).unwrap();
                    let at = format!("{} {mode:?} L{levels} {rows}x{cols}", bank.name());
                    assert!(plan.reconstruct(&want).unwrap() == back, "{at} reconstruct");
                    for width in [None, Some(5), Some(7), Some(13)] {
                        let plan = match width {
                            Some(w) => plan.clone().with_band_width(w),
                            None => plan.clone(),
                        };
                        let got = plan.decompose(&img).unwrap();
                        assert!(got == want, "{at} band width {width:?} decompose");
                    }
                    checked += 1;
                }
                assert!(
                    checked > 0,
                    "{} {mode:?} L{levels}: no valid width",
                    bank.name()
                );
            }
        }
    }
}
