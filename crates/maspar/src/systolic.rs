//! The systolic SIMD wavelet decomposition (paper §4.1).
//!
//! The filter is stored in the ACU and broadcast tap by tap, last to
//! first. After each broadcast every logical PE multiplies the broadcast
//! tap by its pixel and accumulates into a partial sum that is then
//! shifted one position west, so after `f` steps PE `j` holds the full
//! convolution `y[j] = Σ_m f[m] x[j+m]`. Decimation keeps the
//! even-indexed results and compacts them with a **global router**
//! transaction.
//!
//! That schedule is what this module owns: it charges each array
//! operation from the dimensions alone, and the coefficients it returns
//! are [`dwt::dwt2d::decompose`]'s.

use dwt::boundary::Boundary;
use dwt::error::Result;
use dwt::filters::FilterBank;
use dwt::matrix::Matrix;
use dwt::pyramid::Pyramid;

use crate::machine::SimdMachine;

/// Full multi-level systolic decomposition on the SIMD array. The
/// coefficients are [`dwt::dwt2d::decompose`]'s with periodic
/// boundaries; `machine` accumulates the virtual execution time.
pub fn decompose(
    machine: &mut SimdMachine,
    img: &Matrix,
    bank: &FilterBank,
    levels: usize,
) -> Result<Pyramid> {
    dwt::dwt2d::validate_dims(img.rows(), img.cols(), bank.len(), levels)?;
    let f = bank.len();
    let (mut r, mut c) = (img.rows(), img.cols());
    for _ in 0..levels {
        // Row filtering with L and H, then each result's column
        // decimation through the router.
        for _ in 0..2 {
            machine.charge_pass(r * c, f, 1);
        }
        for _ in 0..2 {
            machine.charge_router(r * (c / 2));
        }
        // Column filtering of both halves into LL, LH, HL, HH, then each
        // band's row decimation.
        for _ in 0..4 {
            machine.charge_pass(r * (c / 2), f, 1);
        }
        for _ in 0..4 {
            machine.charge_router(r / 2 * (c / 2));
        }
        r /= 2;
        c /= 2;
    }
    dwt::dwt2d::decompose(img, bank, levels, Boundary::Periodic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MasParCost;
    use crate::machine::Virtualization;

    fn image(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| ((r * 13 + c * 29) % 17) as f64 - 8.0)
    }

    fn mp2(w: usize) -> SimdMachine {
        SimdMachine::new(w, w, MasParCost::mp2(), Virtualization::Hierarchical)
    }

    #[test]
    fn matches_sequential_decomposition() {
        let img = image(32);
        for taps in [2usize, 4, 8] {
            let bank = FilterBank::daubechies(taps).unwrap();
            let seq = dwt::dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
            let mut m = mp2(8);
            let sim = decompose(&mut m, &img, &bank, 2).unwrap();
            assert_eq!(sim, seq, "D{taps} systolic differs");
            assert!(m.seconds() > 0.0);
        }
    }

    #[test]
    fn uses_the_router_for_decimation() {
        let img = image(16);
        let bank = FilterBank::haar();
        let mut m = mp2(4);
        decompose(&mut m, &img, &bank, 1).unwrap();
        // 2 column decimations + 4 row decimations per level.
        assert_eq!(m.router_transactions(), 6);
    }

    #[test]
    fn longer_filters_cost_more_time() {
        let img = image(32);
        let mut m2 = mp2(8);
        decompose(&mut m2, &img, &FilterBank::haar(), 1).unwrap();
        let mut m8 = mp2(8);
        decompose(&mut m8, &img, &FilterBank::daubechies(8).unwrap(), 1).unwrap();
        assert!(m8.seconds() > m2.seconds());
    }

    #[test]
    fn bigger_array_is_faster() {
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let mut small = mp2(8);
        decompose(&mut small, &img, &bank, 2).unwrap();
        let mut big = mp2(32);
        decompose(&mut big, &img, &bank, 2).unwrap();
        assert!(
            big.seconds() < small.seconds(),
            "32x32 array ({}) should beat 8x8 ({})",
            big.seconds(),
            small.seconds()
        );
    }

    #[test]
    fn deeper_levels_add_modest_time() {
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let mut l1 = mp2(8);
        decompose(&mut l1, &img, &bank, 1).unwrap();
        let mut l3 = mp2(8);
        decompose(&mut l3, &img, &bank, 3).unwrap();
        // Deeper levels operate on quarter-size data: extra cost is
        // bounded by ~1/3 of the first level plus fixed overheads.
        assert!(l3.seconds() > l1.seconds());
        assert!(l3.seconds() < 2.0 * l1.seconds());
    }
}
