//! SIMD wavelet **reconstruction** (the paper's figure 2): the reverse
//! systolic process — coefficients are spread back onto the full grid
//! with the global router (un-decimation), then convolved with the
//! synthesis filters in the same broadcast/MAC/shift pattern.
//!
//! The image is [`dwt::dwt2d::reconstruct`]'s; this module charges the
//! array operations that compute it.

use dwt::boundary::Boundary;
use dwt::error::Result;
use dwt::filters::FilterBank;
use dwt::matrix::Matrix;
use dwt::pyramid::Pyramid;

use crate::machine::SimdMachine;

/// Full multi-level systolic reconstruction on the SIMD array —
/// the exact inverse of [`crate::systolic::decompose`]. A pyramid whose
/// bands do not fit together is refused as the engine refuses it.
pub fn reconstruct(machine: &mut SimdMachine, pyr: &Pyramid, bank: &FilterBank) -> Result<Matrix> {
    let image = dwt::dwt2d::reconstruct(pyr, bank, Boundary::Periodic)?;
    let taps = 2 * bank.len();
    let (mut r, mut c) = (pyr.approx.rows(), pyr.approx.cols());
    for _ in &pyr.detail {
        // Invert the column pass: the router spreads LL, LH, HL and HH
        // onto the even rows of a double-height grid, then one synthesis
        // pass applies both filters.
        for _ in 0..4 {
            machine.charge_router(r * c);
        }
        machine.charge_pass(2 * r * c, taps, 1);
        // Invert the row pass the same way on the two halves.
        for _ in 0..2 {
            machine.charge_router(2 * r * c);
        }
        machine.charge_pass(4 * r * c, taps, 1);
        r *= 2;
        c *= 2;
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systolic;
    use crate::SimdMachine;
    use dwt::DwtError;

    fn image(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| ((r * 11 + c * 3) % 17) as f64 - 8.0)
    }

    #[test]
    fn inverts_the_systolic_decomposition() {
        let img = image(32);
        for taps in [2usize, 4, 8] {
            let bank = FilterBank::daubechies(taps).unwrap();
            let mut m = SimdMachine::mp2_16k();
            let pyr = systolic::decompose(&mut m, &img, &bank, 2).unwrap();
            let rec = reconstruct(&mut m, &pyr, &bank).unwrap();
            let err = img.max_abs_diff(&rec).unwrap();
            assert!(err < 1e-9, "D{taps}: round-trip error {err}");
        }
    }

    #[test]
    fn reconstruction_charges_router_and_compute_time() {
        let img = image(16);
        let bank = FilterBank::haar();
        let mut m = SimdMachine::mp2_16k();
        let pyr = systolic::decompose(&mut m, &img, &bank, 1).unwrap();
        let after_decompose = m.seconds();
        let routers_before = m.router_transactions();
        reconstruct(&mut m, &pyr, &bank).unwrap();
        assert!(m.seconds() > after_decompose);
        // 4 row expansions + 2 column expansions per level.
        assert_eq!(m.router_transactions() - routers_before, 6);
    }

    #[test]
    fn rejects_detail_bands_of_another_pyramid() {
        let bank = FilterBank::daubechies(4).unwrap();
        let mut m = SimdMachine::mp2_16k();
        let mut pyr = systolic::decompose(&mut m, &image(16), &bank, 1).unwrap();
        let other = systolic::decompose(&mut m, &image(32), &bank, 1).unwrap();
        pyr.detail[0] = other.detail[0].clone();
        assert!(matches!(
            reconstruct(&mut m, &pyr, &bank),
            Err(DwtError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn decompose_reconstruct_time_is_symmetric_in_order_of_magnitude() {
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let mut md = SimdMachine::mp2_16k();
        systolic::decompose(&mut md, &img, &bank, 2).unwrap();
        let mut mr = SimdMachine::mp2_16k();
        let pyr = {
            let mut tmp = SimdMachine::mp2_16k();
            systolic::decompose(&mut tmp, &img, &bank, 2).unwrap()
        };
        reconstruct(&mut mr, &pyr, &bank).unwrap();
        let ratio = mr.seconds() / md.seconds();
        assert!(
            (0.3..4.0).contains(&ratio),
            "reconstruction/decomposition time ratio {ratio}"
        );
    }
}
