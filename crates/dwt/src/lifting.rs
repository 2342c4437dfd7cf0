//! Biorthogonal wavelets by the lifting scheme: the CDF 9/7 and LeGall
//! 5/3 transforms at the core of JPEG 2000 — the direction image
//! compression took after the paper's era. Lifting factorizations are
//! perfectly invertible by construction (every predict/update step is
//! reversed by its negation), need no boundary-dependent filter algebra,
//! and run in place.
//!
//! Periodic boundaries, even-length signals.
//!
//! The entry points here are thin wrappers over the fused engine kernel
//! in [`crate::engine::lifting`]: the 1-D transforms run the engine's
//! vectorized half-signal kernels, and the 2-D transforms build a
//! [`crate::engine::DwtPlan`] (which selects the lifting kernel for the
//! CDF banks) so multi-level decomposition allocates nothing per level.
//! The original naive implementations are kept, hidden, as the
//! `*_oracle` functions — the property suite pins the engine to them
//! bit for bit.

use crate::engine::{self, DwtPlan};
use crate::error::{DwtError, Result};
use crate::filters::FilterBank;
use crate::matrix::Matrix;
use crate::pyramid::{Pyramid, Subbands};

/// Which biorthogonal transform to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiftingKind {
    /// Cohen–Daubechies–Feauveau 9/7 (lossy JPEG 2000).
    Cdf97,
    /// LeGall 5/3 (lossless JPEG 2000).
    LeGall53,
}

// CDF 9/7 lifting constants (Daubechies & Sweldens factorization).
// Shared with the engine kernel so both paths use identical literals.
pub(crate) const ALPHA: f64 = -1.586_134_342_059_924;
pub(crate) const BETA: f64 = -0.052_980_118_572_961;
pub(crate) const GAMMA: f64 = 0.882_911_075_530_934;
pub(crate) const DELTA: f64 = 0.443_506_852_043_971;
pub(crate) const ZETA: f64 = 1.230_174_104_914_001;

/// One lifting step: `target[i] += c * (other[i] + other[i ± 1])` with
/// periodic wrap, where `target`/`other` are the odd/even phases.
fn predict(odd: &mut [f64], even: &[f64], c: f64) {
    // odd[i] += c * (even[i] + even[i+1]), periodic in the half-length.
    let h = even.len();
    for i in 0..h {
        odd[i] += c * (even[i] + even[(i + 1) % h]);
    }
}

fn update(even: &mut [f64], odd: &[f64], c: f64) {
    // even[i] += c * (odd[i-1] + odd[i]), periodic.
    let h = odd.len();
    for i in 0..h {
        even[i] += c * (odd[(i + h - 1) % h] + odd[i]);
    }
}

/// Forward 1-D lifting transform: returns `(approx, detail)` halves.
pub fn forward_1d(x: &[f64], kind: LiftingKind) -> Result<(Vec<f64>, Vec<f64>)> {
    let n = x.len();
    if n < 2 || !n.is_multiple_of(2) {
        return Err(DwtError::OddLength { len: n, level: 1 });
    }
    let mut approx = vec![0.0; n / 2];
    let mut detail = vec![0.0; n / 2];
    engine::lifting::forward_1d_into(x, kind, &mut approx, &mut detail)?;
    Ok((approx, detail))
}

/// Inverse of [`forward_1d`].
pub fn inverse_1d(approx: &[f64], detail: &[f64], kind: LiftingKind) -> Result<Vec<f64>> {
    let mut out = vec![0.0; approx.len() + detail.len()];
    engine::lifting::inverse_1d_into(approx, detail, kind, &mut out)?;
    Ok(out)
}

fn check_even_image(rows: usize, cols: usize) -> Result<()> {
    if rows < 2 || !rows.is_multiple_of(2) {
        return Err(DwtError::OddLength {
            len: rows,
            level: 1,
        });
    }
    if cols < 2 || !cols.is_multiple_of(2) {
        return Err(DwtError::OddLength {
            len: cols,
            level: 1,
        });
    }
    Ok(())
}

/// One 2-D lifting analysis step, through the engine's fused kernel.
pub fn analyze_step(img: &Matrix, kind: LiftingKind) -> Result<(Matrix, Subbands)> {
    check_even_image(img.rows(), img.cols())?;
    let (rows, cols) = (img.rows(), img.cols());
    let (r2, c2) = (rows / 2, cols / 2);
    let mut ll = Matrix::zeros(r2, c2);
    let mut lh = Matrix::zeros(r2, c2);
    let mut hl = Matrix::zeros(r2, c2);
    let mut hh = Matrix::zeros(r2, c2);
    let mut buf = vec![0.0; engine::lifting::staging_len(kind, cols)];
    engine::lifting::forward_level(
        img.data(),
        rows,
        cols,
        kind,
        0..r2,
        [ll.data_mut(), lh.data_mut(), hl.data_mut(), hh.data_mut()],
        &mut buf,
    );
    Ok((ll, Subbands { lh, hl, hh }))
}

/// One 2-D lifting synthesis step, through the engine's fused kernel.
pub fn synthesize_step(ll: &Matrix, bands: &Subbands, kind: LiftingKind) -> Result<Matrix> {
    let (r, c) = (ll.rows(), ll.cols());
    if bands.rows() != r || bands.cols() != c {
        return Err(DwtError::DimensionMismatch {
            detail: format!(
                "LL is {r}x{c} but detail bands are {}x{}",
                bands.rows(),
                bands.cols()
            ),
        });
    }
    let (rows, cols) = (2 * r, 2 * c);
    let mut out = Matrix::zeros(rows, cols);
    let mut buf = vec![0.0; engine::lifting::staging_len(kind, cols)];
    let dst = out.data_mut();
    engine::lifting::inverse_level(ll.data(), bands, rows, cols, kind, 0..r, dst, &mut buf);
    Ok(out)
}

/// Full multi-level 2-D decomposition with the lifting transform.
/// Routed through a [`DwtPlan`], so per-level work allocates nothing.
pub fn decompose(img: &Matrix, kind: LiftingKind, levels: usize) -> Result<Pyramid> {
    let bank = FilterBank::for_lifting(kind);
    let plan = DwtPlan::new(
        img.rows(),
        img.cols(),
        bank,
        levels,
        crate::Boundary::Periodic,
    )?;
    plan.decompose(img)
}

/// Invert [`decompose`].
pub fn reconstruct(pyr: &Pyramid, kind: LiftingKind) -> Result<Matrix> {
    let Some(finest) = pyr.detail.first() else {
        return Ok(pyr.approx.clone());
    };
    let (rows, cols) = (finest.rows() * 2, finest.cols() * 2);
    let bank = FilterBank::for_lifting(kind);
    let plan = DwtPlan::new(rows, cols, bank, pyr.levels(), crate::Boundary::Periodic)?;
    plan.reconstruct(pyr)
}

// ---------------------------------------------------------------------
// Hidden correctness oracles: the original straight-line lifting code,
// kept verbatim so property tests can pin the fused engine kernel to it
// bit for bit (the same pattern as `dwt2d::decompose_separable`).
// ---------------------------------------------------------------------

/// Original allocating forward transform (oracle).
#[doc(hidden)]
pub fn forward_1d_oracle(x: &[f64], kind: LiftingKind) -> Result<(Vec<f64>, Vec<f64>)> {
    let n = x.len();
    if n < 2 || !n.is_multiple_of(2) {
        return Err(DwtError::OddLength { len: n, level: 1 });
    }
    let h = n / 2;
    let mut even: Vec<f64> = (0..h).map(|i| x[2 * i]).collect();
    let mut odd: Vec<f64> = (0..h).map(|i| x[2 * i + 1]).collect();
    match kind {
        LiftingKind::Cdf97 => {
            predict(&mut odd, &even, ALPHA);
            update(&mut even, &odd, BETA);
            predict(&mut odd, &even, GAMMA);
            update(&mut even, &odd, DELTA);
            for v in &mut even {
                *v *= ZETA;
            }
            for v in &mut odd {
                *v /= ZETA;
            }
        }
        LiftingKind::LeGall53 => {
            predict(&mut odd, &even, -0.5);
            update(&mut even, &odd, 0.25);
        }
    }
    Ok((even, odd))
}

/// Original allocating inverse transform (oracle).
#[doc(hidden)]
pub fn inverse_1d_oracle(approx: &[f64], detail: &[f64], kind: LiftingKind) -> Result<Vec<f64>> {
    if approx.len() != detail.len() {
        return Err(DwtError::DimensionMismatch {
            detail: format!(
                "approx has {} samples, detail {}",
                approx.len(),
                detail.len()
            ),
        });
    }
    let mut even = approx.to_vec();
    let mut odd = detail.to_vec();
    match kind {
        LiftingKind::Cdf97 => {
            for v in &mut even {
                *v /= ZETA;
            }
            for v in &mut odd {
                *v *= ZETA;
            }
            update(&mut even, &odd, -DELTA);
            predict(&mut odd, &even, -GAMMA);
            update(&mut even, &odd, -BETA);
            predict(&mut odd, &even, -ALPHA);
        }
        LiftingKind::LeGall53 => {
            update(&mut even, &odd, -0.25);
            predict(&mut odd, &even, 0.5);
        }
    }
    let mut out = vec![0.0; even.len() * 2];
    for i in 0..even.len() {
        out[2 * i] = even[i];
        out[2 * i + 1] = odd[i];
    }
    Ok(out)
}

fn rows_pass(img: &Matrix, kind: LiftingKind) -> Result<(Matrix, Matrix)> {
    let half = img.cols() / 2;
    let mut low = Matrix::zeros(img.rows(), half);
    let mut high = Matrix::zeros(img.rows(), half);
    for r in 0..img.rows() {
        let (a, d) = forward_1d_oracle(img.row(r), kind)?;
        low.row_mut(r).copy_from_slice(&a);
        high.row_mut(r).copy_from_slice(&d);
    }
    Ok((low, high))
}

fn cols_pass(img: &Matrix, kind: LiftingKind) -> Result<(Matrix, Matrix)> {
    let half = img.rows() / 2;
    let mut low = Matrix::zeros(half, img.cols());
    let mut high = Matrix::zeros(half, img.cols());
    let mut col = vec![0.0; img.rows()];
    for c in 0..img.cols() {
        img.copy_col_into(c, &mut col);
        let (a, d) = forward_1d_oracle(&col, kind)?;
        low.set_col(c, &a);
        high.set_col(c, &d);
    }
    Ok((low, high))
}

/// Original 2-D analysis step (oracle).
#[doc(hidden)]
pub fn analyze_step_oracle(img: &Matrix, kind: LiftingKind) -> Result<(Matrix, Subbands)> {
    let (low, high) = rows_pass(img, kind)?;
    let (ll, lh) = cols_pass(&low, kind)?;
    let (hl, hh) = cols_pass(&high, kind)?;
    Ok((ll, Subbands { lh, hl, hh }))
}

/// Original 2-D synthesis step (oracle).
#[doc(hidden)]
pub fn synthesize_step_oracle(ll: &Matrix, bands: &Subbands, kind: LiftingKind) -> Result<Matrix> {
    let (r, c) = (ll.rows(), ll.cols());
    // Invert columns.
    let rebuild_cols = |a: &Matrix, d: &Matrix| -> Result<Matrix> {
        let mut out = Matrix::zeros(2 * r, c);
        let mut ac = vec![0.0; r];
        let mut dc = vec![0.0; r];
        for cc in 0..c {
            a.copy_col_into(cc, &mut ac);
            d.copy_col_into(cc, &mut dc);
            out.set_col(cc, &inverse_1d_oracle(&ac, &dc, kind)?);
        }
        Ok(out)
    };
    let low = rebuild_cols(ll, &bands.lh)?;
    let high = rebuild_cols(&bands.hl, &bands.hh)?;
    // Invert rows.
    let mut out = Matrix::zeros(2 * r, 2 * c);
    for rr in 0..2 * r {
        let x = inverse_1d_oracle(low.row(rr), high.row(rr), kind)?;
        out.row_mut(rr).copy_from_slice(&x);
    }
    Ok(out)
}

/// Original multi-level decomposition (oracle).
#[doc(hidden)]
pub fn decompose_oracle(img: &Matrix, kind: LiftingKind, levels: usize) -> Result<Pyramid> {
    if levels == 0 {
        return Err(DwtError::ZeroLevels);
    }
    let mut approx = img.clone();
    let mut detail = Vec::with_capacity(levels);
    for level in 1..=levels {
        if !approx.rows().is_multiple_of(2) || !approx.cols().is_multiple_of(2) {
            return Err(DwtError::OddLength {
                len: approx.rows().min(approx.cols()),
                level,
            });
        }
        let (ll, bands) = analyze_step_oracle(&approx, kind)?;
        detail.push(bands);
        approx = ll;
    }
    Ok(Pyramid { approx, detail })
}

/// Original multi-level reconstruction (oracle).
#[doc(hidden)]
pub fn reconstruct_oracle(pyr: &Pyramid, kind: LiftingKind) -> Result<Matrix> {
    let mut approx = pyr.approx.clone();
    for bands in pyr.detail.iter().rev() {
        approx = synthesize_step_oracle(&approx, bands, kind)?;
    }
    Ok(approx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 29 + 5) % 23) as f64 - 11.0 + (i as f64 * 0.4).sin())
            .collect()
    }

    fn image(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| {
            100.0 + 40.0 * ((r as f64 * 0.2).sin() + (c as f64 * 0.17).cos())
        })
    }

    #[test]
    fn perfect_reconstruction_1d() {
        for kind in [LiftingKind::Cdf97, LiftingKind::LeGall53] {
            let x = signal(64);
            let (a, d) = forward_1d(&x, kind).unwrap();
            let back = inverse_1d(&a, &d, kind).unwrap();
            for (u, v) in x.iter().zip(&back) {
                assert!((u - v).abs() < 1e-10, "{kind:?}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn perfect_reconstruction_2d_multilevel() {
        for kind in [LiftingKind::Cdf97, LiftingKind::LeGall53] {
            let img = image(32);
            for levels in 1..=3 {
                let pyr = decompose(&img, kind, levels).unwrap();
                let rec = reconstruct(&pyr, kind).unwrap();
                let err = img.max_abs_diff(&rec).unwrap();
                assert!(err < 1e-9, "{kind:?} L{levels}: {err}");
            }
        }
    }

    #[test]
    fn wrappers_match_oracles_bitwise() {
        for kind in [LiftingKind::Cdf97, LiftingKind::LeGall53] {
            let x = signal(48);
            let (a, d) = forward_1d(&x, kind).unwrap();
            let (oa, od) = forward_1d_oracle(&x, kind).unwrap();
            assert_eq!(a, oa, "{kind:?} approx");
            assert_eq!(d, od, "{kind:?} detail");
            assert_eq!(
                inverse_1d(&a, &d, kind).unwrap(),
                inverse_1d_oracle(&oa, &od, kind).unwrap(),
                "{kind:?} inverse"
            );
            let img = image(24);
            let pyr = decompose(&img, kind, 2).unwrap();
            let opyr = decompose_oracle(&img, kind, 2).unwrap();
            assert_eq!(pyr, opyr, "{kind:?} pyramid");
            assert_eq!(
                reconstruct(&pyr, kind).unwrap(),
                reconstruct_oracle(&opyr, kind).unwrap(),
                "{kind:?} reconstruction"
            );
        }
    }

    #[test]
    fn legall_53_maps_integers_to_dyadic_rationals() {
        // 5/3 lifting uses only /2 and /4: exact in binary floating point
        // for integer inputs (the basis of lossless JPEG 2000).
        let x: Vec<f64> = (0..32).map(|i| ((i * 37) % 256) as f64).collect();
        let (a, d) = forward_1d(&x, LiftingKind::LeGall53).unwrap();
        let back = inverse_1d(&a, &d, LiftingKind::LeGall53).unwrap();
        assert_eq!(x, back, "5/3 round trip must be bit exact");
    }

    #[test]
    fn smooth_signals_have_tiny_details() {
        // CDF 9/7 has four vanishing moments: a cubic is annihilated in
        // the interior (and everywhere, with periodic wrap, for a
        // constant signal).
        let x = vec![7.5; 64];
        let (_, d) = forward_1d(&x, LiftingKind::Cdf97).unwrap();
        for v in &d {
            assert!(v.abs() < 1e-12);
        }
        let lin: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let (_, d) = forward_1d(&lin, LiftingKind::Cdf97).unwrap();
        // Interior details vanish (boundary wrap excites the ends).
        for v in &d[2..28] {
            assert!(v.abs() < 1e-9, "interior detail {v}");
        }
    }

    #[test]
    fn cdf97_compacts_energy_better_than_haar_on_smooth_images() {
        let img = image(64);
        let pyr97 = decompose(&img, LiftingKind::Cdf97, 3).unwrap();
        let haar = crate::dwt2d::decompose(
            &img,
            &crate::filters::FilterBank::haar(),
            3,
            crate::boundary::Boundary::Periodic,
        )
        .unwrap();
        let detail_energy = |p: &Pyramid| p.detail.iter().map(|b| b.energy()).sum::<f64>();
        // Normalize by total energy (the two transforms scale LL alike
        // enough for this comparison).
        let frac97 = detail_energy(&pyr97) / pyr97.energy();
        let frach = detail_energy(&haar) / haar.energy();
        assert!(
            frac97 < frach,
            "9/7 detail fraction {frac97} !< Haar {frach}"
        );
    }

    #[test]
    fn rejects_odd_lengths() {
        assert!(forward_1d(&signal(63), LiftingKind::Cdf97).is_err());
        assert!(decompose(&Matrix::zeros(12, 12), LiftingKind::Cdf97, 3).is_err());
        assert!(inverse_1d(&[1.0], &[1.0, 2.0], LiftingKind::Cdf97).is_err());
    }
}
