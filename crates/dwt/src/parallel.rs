//! Shared-memory parallel Mallat decomposition and reconstruction.
//!
//! Both entry points are [`DwtPlan`]s with one lane per core of the
//! host. The plan splits each level tall enough to pay for it into
//! contiguous row stripes, one per lane, each reading its neighbours'
//! boundary rows — the shared-memory form of the paper's coarse-grain
//! Paragon algorithm, one stripe per node with guard zones exchanged
//! between them (DESIGN.md "Threading"). Output is bit-identical for
//! every lane count.

use crate::boundary::Boundary;
use crate::engine::DwtPlan;
use crate::error::Result;
use crate::filters::FilterBank;
use crate::matrix::Matrix;
use crate::pyramid::Pyramid;

/// Lanes for a parallel plan: the host's available parallelism.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parallel multi-level decomposition: [`crate::dwt2d::decompose`] on a
/// plan with one lane per core, and bit-identical to it.
pub fn decompose_par(
    img: &Matrix,
    bank: &FilterBank,
    levels: usize,
    mode: Boundary,
) -> Result<Pyramid> {
    DwtPlan::new(img.rows(), img.cols(), bank.clone(), levels, mode)?
        .with_threads(host_threads())
        .decompose(img)
}

/// Parallel multi-level reconstruction: [`crate::dwt2d::reconstruct`]
/// on a plan with one lane per core. Same contract — the inverse of
/// [`decompose_par`] for every bank and boundary a plan accepts — and
/// bit-identical output.
pub fn reconstruct_par(pyr: &Pyramid, bank: &FilterBank, mode: Boundary) -> Result<Matrix> {
    let (rows, cols) = pyr.image_dims();
    DwtPlan::new(rows, cols, bank.clone(), pyr.levels(), mode)?
        .with_threads(host_threads())
        .reconstruct(pyr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dwt2d, lifting};

    fn test_image(r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| ((i * 37 + j * 11) % 19) as f64 - 9.0)
    }

    #[test]
    fn parallel_matches_sequential_decompose() {
        for taps in [2usize, 4, 8] {
            let bank = FilterBank::daubechies(taps).unwrap();
            let img = test_image(64, 32);
            for mode in Boundary::ALL {
                let seq = dwt2d::decompose(&img, &bank, 2, mode).unwrap();
                let par = decompose_par(&img, &bank, 2, mode).unwrap();
                assert_eq!(par, seq, "D{taps} {mode:?}");
            }
        }
    }

    #[test]
    fn parallel_perfect_reconstruction() {
        let bank = FilterBank::daubechies(8).unwrap();
        let img = test_image(64, 64);
        let pyr = decompose_par(&img, &bank, 3, Boundary::Periodic).unwrap();
        let rec = reconstruct_par(&pyr, &bank, Boundary::Periodic).unwrap();
        let err = img.max_abs_diff(&rec).unwrap();
        assert!(err < 1e-9, "round-trip error {err}");
    }

    #[test]
    fn reconstruct_par_matches_separable_oracle() {
        // 272 rows stripe two ways at the finest level on a multi-core
        // host; coarser levels fall back to one lane.
        let img = test_image(272, 64);
        let banks = [
            FilterBank::haar(),
            FilterBank::daubechies(4).unwrap(),
            FilterBank::daubechies(8).unwrap(),
            FilterBank::coiflet(6).unwrap(),
        ];
        for bank in &banks {
            for mode in Boundary::ALL {
                let pyr = dwt2d::decompose_separable(&img, bank, 3, mode).unwrap();
                let want = dwt2d::reconstruct_separable(&pyr, bank, mode).unwrap();
                let got = reconstruct_par(&pyr, bank, mode).unwrap();
                assert_eq!(got, want, "{} {mode:?}", bank.name());
            }
        }
    }

    #[test]
    fn cdf_banks_reconstruct_through_lifting() {
        let img = test_image(64, 64);
        for bank in [FilterBank::cdf53(), FilterBank::cdf97()] {
            let kind = bank.lifting_kind().unwrap();
            let pyr = decompose_par(&img, &bank, 3, Boundary::Periodic).unwrap();
            let want = lifting::reconstruct_oracle(&pyr, kind).unwrap();
            let got = reconstruct_par(&pyr, &bank, Boundary::Periodic).unwrap();
            assert_eq!(got, want, "{}", bank.name());
        }
    }

    #[test]
    fn validates_dimensions() {
        let bank = FilterBank::haar();
        let img = Matrix::zeros(10, 10);
        assert!(decompose_par(&img, &bank, 2, Boundary::Periodic).is_err());
    }
}
