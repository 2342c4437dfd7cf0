//! The systolic-with-dilution SIMD wavelet decomposition (paper §4.1).
//!
//! Instead of physically decimating (which needs the global router to
//! compact the surviving coefficients), the *filter* is diluted —
//! stretched with `2^k - 1` zeros between taps at level `k` (the à trous
//! construction) — so that it stays aligned with the relevant pixels of
//! the undecimated grid. Data never moves between PEs for decimation;
//! the price is redundant computation on the full-size grid at every
//! level and X-net shifts of growing distance.
//!
//! The undecimated bands are [`dwt::swt::decompose`]'s, sampled on each
//! level's Mallat grid by [`dwt::swt::sample_band`]; this module charges
//! the array operations that compute them.

use dwt::error::Result;
use dwt::filters::FilterBank;
use dwt::matrix::Matrix;
use dwt::pyramid::{Pyramid, Subbands};
use dwt::swt::{self, sample_band};

use crate::machine::SimdMachine;

/// Full multi-level dilution decomposition. Produces the same pyramid
/// as [`crate::systolic::decompose`] (and the sequential transform) to
/// round-off, with a different cost profile and **zero router
/// transactions**.
pub fn decompose(
    machine: &mut SimdMachine,
    img: &Matrix,
    bank: &FilterBank,
    levels: usize,
) -> Result<Pyramid> {
    dwt::dwt2d::validate_dims(img.rows(), img.cols(), bank.len(), levels)?;
    let full = img.rows() * img.cols();
    for level in 0..levels {
        // Two row and four column passes, all on the full grid with the
        // filter diluted to stride `2^level`; then the three detail
        // bands sampled at stride `2^(level+1)`, a PE-local selection.
        for _ in 0..6 {
            machine.charge_pass(full, bank.len(), 1 << level);
        }
        for _ in 0..3 {
            machine.charge_move(full);
        }
    }
    // The last approximation's sample.
    machine.charge_move(full);
    let swt = swt::decompose(img, bank, levels)?;
    let detail = swt
        .levels
        .iter()
        .zip(1..)
        .map(|(lvl, k)| Subbands {
            lh: sample_band(&lvl.lh, k),
            hl: sample_band(&lvl.hl, k),
            hh: sample_band(&lvl.hh, k),
        })
        .collect();
    let approx = sample_band(&swt.levels[levels - 1].ll, levels);
    Ok(Pyramid { approx, detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MasParCost;
    use crate::machine::Virtualization;
    use crate::systolic;
    use dwt::boundary::Boundary;

    fn image(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 11) as f64 + 0.25)
    }

    fn mp2(w: usize, virt: Virtualization) -> SimdMachine {
        SimdMachine::new(w, w, MasParCost::mp2(), virt)
    }

    #[test]
    fn matches_sequential_decomposition() {
        let img = image(32);
        for taps in [2usize, 4, 8] {
            let bank = FilterBank::daubechies(taps).unwrap();
            for levels in 1..=3 {
                let seq = dwt::dwt2d::decompose(&img, &bank, levels, Boundary::Periodic).unwrap();
                let mut m = mp2(8, Virtualization::Hierarchical);
                let got = decompose(&mut m, &img, &bank, levels).unwrap();
                let err = seq.approx.max_abs_diff(&got.approx).unwrap();
                assert!(err < 1e-12, "D{taps} L{levels} approx err {err}");
                for (a, b) in seq.detail.iter().zip(&got.detail) {
                    assert!(a.lh.max_abs_diff(&b.lh).unwrap() < 1e-12);
                    assert!(a.hl.max_abs_diff(&b.hl).unwrap() < 1e-12);
                    assert!(a.hh.max_abs_diff(&b.hh).unwrap() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn never_touches_the_router() {
        let img = image(16);
        let bank = FilterBank::daubechies(4).unwrap();
        let mut m = mp2(4, Virtualization::Hierarchical);
        decompose(&mut m, &img, &bank, 2).unwrap();
        assert_eq!(m.router_transactions(), 0);
    }

    #[test]
    fn agrees_with_systolic_results() {
        let img = image(32);
        let bank = FilterBank::daubechies(8).unwrap();
        let mut ma = mp2(8, Virtualization::Hierarchical);
        let a = systolic::decompose(&mut ma, &img, &bank, 2).unwrap();
        let mut mb = mp2(8, Virtualization::Hierarchical);
        let b = decompose(&mut mb, &img, &bank, 2).unwrap();
        assert!(a.approx.max_abs_diff(&b.approx).unwrap() < 1e-12);
    }

    #[test]
    fn dilution_costs_more_compute_at_depth() {
        // At several levels the dilution algorithm works on the full grid
        // every level, so it burns more MAC time than systolic; its win
        // is the zero router usage.
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let mut sys = mp2(8, Virtualization::Hierarchical);
        systolic::decompose(&mut sys, &img, &bank, 3).unwrap();
        let mut dil = mp2(8, Virtualization::Hierarchical);
        decompose(&mut dil, &img, &bank, 3).unwrap();
        assert!(dil.seconds() > sys.seconds() * 0.5, "sanity");
        assert_eq!(dil.router_transactions(), 0);
        assert!(sys.router_transactions() > 0);
    }
}
