//! The local oracle every output is checked against: a direct
//! `DwtPlan::decompose` of the same input, computed in the harness.

use dwt::{Matrix, Pyramid};

use crate::config::ShapeSpec;

/// The exact decomposition a correct service must return for `image`.
pub fn expected(image: &Matrix, spec: ShapeSpec) -> Pyramid {
    spec.plan()
        .decompose(image)
        .expect("the image has its spec's size")
}

fn planes(p: &Pyramid) -> impl Iterator<Item = &Matrix> {
    std::iter::once(&p.approx).chain(p.detail.iter().flat_map(|b| [&b.lh, &b.hl, &b.hh]))
}

fn same_geometry(a: &Pyramid, b: &Pyramid) -> bool {
    a.levels() == b.levels()
        && planes(a)
            .zip(planes(b))
            .all(|(x, y)| x.rows() == y.rows() && x.cols() == y.cols())
}

/// Largest `|a - b|`; infinite if any element is NaN, so a NaN output
/// can never pass a tolerance (`f64::max` alone would skip it).
pub fn max_abs_err(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut worst = 0.0f64;
    let mut nan = false;
    for (x, y) in a.iter().zip(b) {
        let d = (x - y).abs();
        nan |= d.is_nan();
        worst = worst.max(d);
    }
    if nan {
        f64::INFINITY
    } else {
        worst
    }
}

/// Bit-for-bit equality (`-0.0 != 0.0`, and a NaN equals only the same
/// NaN): what a monolithic response owes the oracle.
pub fn bit_identical(a: &Pyramid, b: &Pyramid) -> bool {
    same_geometry(a, b)
        && planes(a).zip(planes(b)).all(|(x, y)| {
            x.data()
                .iter()
                .zip(y.data())
                .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Largest coefficient error of `got` against `want`; infinite on a
/// geometry mismatch. A progressive response owes the oracle an error
/// within its own reported bound.
pub fn pyramid_err(got: &Pyramid, want: &Pyramid) -> f64 {
    if !same_geometry(got, want) {
        return f64::INFINITY;
    }
    planes(got)
        .zip(planes(want))
        .map(|(x, y)| max_abs_err(x.data(), y.data()))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Bank;

    #[test]
    fn the_oracle_tells_bits_from_values_and_never_passes_nan() {
        let img = Matrix::from_fn(16, 16, |r, c| (r * 16 + c) as f64);
        let spec = ShapeSpec {
            size: 16,
            bank: Bank::Cdf53,
            levels: 2,
        };
        let want = expected(&img, spec);
        assert!(bit_identical(&want, &want.clone()));
        assert_eq!(pyramid_err(&want, &want), 0.0);

        let mut off = want.clone();
        off.detail[0].hh.data_mut()[3] += 0.25;
        assert!(!bit_identical(&off, &want));
        assert_eq!(pyramid_err(&off, &want), 0.25);

        let mut nan = want.clone();
        nan.approx.data_mut()[0] = f64::NAN;
        assert!(!bit_identical(&nan, &want));
        assert_eq!(pyramid_err(&nan, &want), f64::INFINITY);

        let other = expected(&img, ShapeSpec { levels: 1, ..spec });
        assert_eq!(pyramid_err(&other, &want), f64::INFINITY);
    }
}
