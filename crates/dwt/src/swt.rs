//! The stationary (undecimated, à trous) wavelet transform.
//!
//! This is the transform the MasPar *dilution* algorithm computes: no
//! decimation, filters stretched by `2^level` instead. It is redundant
//! (every level is full size) and **shift-invariant**, which makes it
//! the right tool for feature extraction; sampling its bands on the
//! `2^level` grid recovers exactly the Mallat coefficients.
//!
//! Periodic boundaries only — the à trous reconstruction identity
//! (`Σ_d l[m]l[m+d] + h[m]h[m+d] = 2δ_d`) needs circular convolution.

use crate::boundary::Boundary;
use crate::conv;
use crate::error::{DwtError, Result};
use crate::filters::FilterBank;
use crate::matrix::Matrix;

/// The four undecimated bands of one SWT level (all full size).
#[derive(Debug, Clone, PartialEq)]
pub struct SwtLevel {
    /// Low/low (approximation at this scale).
    pub ll: Matrix,
    /// Low rows / high columns.
    pub lh: Matrix,
    /// High rows / low columns.
    pub hl: Matrix,
    /// High/high.
    pub hh: Matrix,
}

/// A full undecimated decomposition: `levels[k]` holds scale `k+1`.
/// The final approximation is `levels.last().ll`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwtPyramid {
    /// Per-level bands, finest first.
    pub levels: Vec<SwtLevel>,
}

/// A line filter: `taps` applied to one periodic line, same length out.
type Line = fn(&[f64], &[f64]) -> Vec<f64>;

/// Filter every row of `img` with `line`.
fn map_rows(img: &Matrix, taps: &[f64], line: Line) -> Matrix {
    let mut out = Matrix::zeros(img.rows(), img.cols());
    for r in 0..img.rows() {
        out.row_mut(r).copy_from_slice(&line(img.row(r), taps));
    }
    out
}

/// Filter every column of `img` with `line`.
fn map_cols(img: &Matrix, taps: &[f64], line: Line) -> Matrix {
    let mut out = Matrix::zeros(img.rows(), img.cols());
    let mut col = vec![0.0; img.rows()];
    for c in 0..img.cols() {
        img.copy_col_into(c, &mut col);
        out.set_col(c, &line(&col, taps));
    }
    out
}

/// Analysis convolution of one periodic line: `y[i] = Σ_m taps[m] x[i + m]`.
fn forward(x: &[f64], taps: &[f64]) -> Vec<f64> {
    conv::convolve(x, taps, Boundary::Periodic)
}

/// Backward (synthesis) convolution of one periodic line:
/// `y[i] = Σ_m taps[m] x[i - m]`. Together with [`forward`], the filter
/// autocorrelation identity of orthonormal QMF banks makes
/// `(L∘ + H∘)/2` the exact à trous inverse.
fn backward(x: &[f64], taps: &[f64]) -> Vec<f64> {
    let n = x.len() as isize;
    (0..n)
        .map(|i| {
            let mut acc = 0.0;
            for (m, &t) in taps.iter().enumerate() {
                if t != 0.0 {
                    acc += t * x[(i - m as isize).rem_euclid(n) as usize];
                }
            }
            acc
        })
        .collect()
}

/// Undecimated multi-level decomposition of `img`.
pub fn decompose(img: &Matrix, bank: &FilterBank, levels: usize) -> Result<SwtPyramid> {
    if levels == 0 {
        return Err(DwtError::ZeroLevels);
    }
    let support = (bank.len() - 1) * (1 << (levels - 1)) + 1;
    if img.rows() < support || img.cols() < support {
        return Err(DwtError::SignalTooShort {
            len: img.rows().min(img.cols()),
            filter_len: support,
        });
    }
    let mut out: Vec<SwtLevel> = Vec::with_capacity(levels);
    for level in 0..levels as u32 {
        let approx = out.last().map_or(img, |prev| &prev.ll);
        let dl = bank.dilated_low(level);
        let dh = bank.dilated_high(level);
        let low = map_rows(approx, &dl, forward);
        let high = map_rows(approx, &dh, forward);
        out.push(SwtLevel {
            ll: map_cols(&low, &dl, forward),
            lh: map_cols(&low, &dh, forward),
            hl: map_cols(&high, &dl, forward),
            hh: map_cols(&high, &dh, forward),
        });
    }
    Ok(SwtPyramid { levels: out })
}

/// One inverse level: reconstruct scale-`level` approximation from the
/// four bands of scale `level+1`.
fn inverse_level(lvl: &SwtLevel, bank: &FilterBank, level: u32) -> Matrix {
    let dl = bank.dilated_low(level);
    let dh = bank.dilated_high(level);
    // Invert columns: low = (L∘ ll + H∘ lh)/2, high likewise.
    let low = add_scaled(
        &map_cols(&lvl.ll, &dl, backward),
        &map_cols(&lvl.lh, &dh, backward),
        0.5,
    );
    let high = add_scaled(
        &map_cols(&lvl.hl, &dl, backward),
        &map_cols(&lvl.hh, &dh, backward),
        0.5,
    );
    // Invert rows.
    add_scaled(
        &map_rows(&low, &dl, backward),
        &map_rows(&high, &dh, backward),
        0.5,
    )
}

fn add_scaled(a: &Matrix, b: &Matrix, scale: f64) -> Matrix {
    Matrix::from_fn(a.rows(), a.cols(), |r, c| {
        scale * (a.get(r, c) + b.get(r, c))
    })
}

/// Invert [`decompose`] exactly (periodic boundaries).
pub fn reconstruct(pyr: &SwtPyramid, bank: &FilterBank) -> Result<Matrix> {
    let Some(last) = pyr.levels.last() else {
        return Err(DwtError::ZeroLevels);
    };
    let mut approx = last.ll.clone();
    for (level, lvl) in pyr.levels.iter().enumerate().rev() {
        let merged = SwtLevel {
            ll: approx,
            lh: lvl.lh.clone(),
            hl: lvl.hl.clone(),
            hh: lvl.hh.clone(),
        };
        approx = inverse_level(&merged, bank, level as u32);
    }
    Ok(approx)
}

/// Sample an SWT band at the Mallat grid of its level (stride
/// `2^level`), recovering decimated coefficients.
pub fn sample_band(band: &Matrix, level: usize) -> Matrix {
    let stride = 1usize << level;
    Matrix::from_fn(band.rows() / stride, band.cols() / stride, |r, c| {
        band.get(r * stride, c * stride)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwt2d;

    fn image(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| {
            ((r * 13 + c * 7) % 19) as f64 + (r as f64 * 0.3).sin()
        })
    }

    #[test]
    fn perfect_reconstruction() {
        let img = image(32);
        for taps in [2usize, 4, 8] {
            let bank = FilterBank::daubechies(taps).unwrap();
            for levels in 1..=3 {
                let pyr = decompose(&img, &bank, levels).unwrap();
                let rec = reconstruct(&pyr, &bank).unwrap();
                let err = img.max_abs_diff(&rec).unwrap();
                assert!(err < 1e-9, "D{taps} L{levels}: {err}");
            }
        }
    }

    #[test]
    fn sampling_recovers_mallat_coefficients() {
        let img = image(32);
        let bank = FilterBank::daubechies(4).unwrap();
        let swt = decompose(&img, &bank, 2).unwrap();
        let dwt = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        // Level 1 bands sampled at stride 2, level 2 at stride 4.
        for (k, bands) in dwt.detail.iter().enumerate() {
            let lvl = k + 1;
            let s = &swt.levels[k];
            assert!(sample_band(&s.lh, lvl).max_abs_diff(&bands.lh).unwrap() < 1e-12);
            assert!(sample_band(&s.hl, lvl).max_abs_diff(&bands.hl).unwrap() < 1e-12);
            assert!(sample_band(&s.hh, lvl).max_abs_diff(&bands.hh).unwrap() < 1e-12);
        }
        assert!(
            sample_band(&swt.levels[1].ll, 2)
                .max_abs_diff(&dwt.approx)
                .unwrap()
                < 1e-12
        );
    }

    #[test]
    fn bands_are_full_size() {
        let img = image(16);
        let bank = FilterBank::haar();
        let pyr = decompose(&img, &bank, 3).unwrap();
        for lvl in &pyr.levels {
            assert_eq!(lvl.ll.rows(), 16);
            assert_eq!(lvl.hh.cols(), 16);
        }
    }

    #[test]
    fn shift_invariance_of_band_energy() {
        // The decimated DWT is famously shift-variant; the SWT's band
        // energies are exactly invariant under circular shifts.
        let img = image(32);
        let shifted = Matrix::from_fn(32, 32, |r, c| img.get((r + 1) % 32, (c + 3) % 32));
        let bank = FilterBank::daubechies(4).unwrap();
        let a = decompose(&img, &bank, 2).unwrap();
        let b = decompose(&shifted, &bank, 2).unwrap();
        for (la, lb) in a.levels.iter().zip(&b.levels) {
            assert!((la.lh.energy() - lb.lh.energy()).abs() < 1e-6);
            assert!((la.hh.energy() - lb.hh.energy()).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_zero_levels_and_tiny_images() {
        let img = image(8);
        let bank = FilterBank::daubechies(8).unwrap();
        assert!(decompose(&img, &bank, 0).is_err());
        // D8 dilated twice spans 29 samples > 8.
        assert!(decompose(&img, &bank, 3).is_err());
    }
}
