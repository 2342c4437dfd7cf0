//! Lossy wavelet compression of role checkpoints.
//!
//! A role checkpoint shipped at a crash handoff carries two kinds of
//! state: the role's current LL stripe/block (the *input* of every
//! remaining level) and the detail planes of completed levels. The LL
//! plane must ship exactly — any error there is amplified by the
//! remaining analysis levels — but the detail planes are final outputs
//! that tolerate the same threshold + quantization the compression
//! pipeline (`dwt::compress`) applies to delivered pyramids.
//!
//! [`CheckpointCodec::WaveletQuant`] therefore hard-thresholds and
//! uniformly quantizes the detail planes in place before the state is
//! serialized onto the recovery channel, and bills the wire the
//! sparse-encoded size (value + coordinate per surviving coefficient)
//! when that is smaller than the dense plane. Encoding and decoding
//! compute is charged to the [`perfbudget::Category::FaultRecovery`]
//! budget lane: the codec exists only because a crash is being
//! recovered from.
//!
//! The codec is opt-in (default [`CheckpointCodec::Raw`]) because it
//! trades the recovery layer's 0-ULP guarantee for bounded error: after
//! a compressed handoff the recovered pyramid's detail coefficients may
//! differ from the fault-free oracle by up to `threshold + step / 2`.

use dwt::Matrix;
use paragon::Ops;

/// How role checkpoints are encoded for the recovery channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointCodec {
    /// Ship detail planes as dense f64 matrices (exact; the default).
    Raw,
    /// Hard-threshold then uniformly quantize detail planes before
    /// shipping. Per-coefficient error is bounded by
    /// `threshold + step / 2`; the LL plane always ships raw.
    WaveletQuant {
        /// Magnitudes at or below this are zeroed (hard threshold).
        threshold: f64,
        /// Uniform quantizer step for survivors; `0.0` disables
        /// quantization and keeps surviving values exact.
        step: f64,
    },
}

impl CheckpointCodec {
    /// Largest absolute error the codec can introduce into one detail
    /// coefficient (zero for [`CheckpointCodec::Raw`]).
    pub fn tolerance(&self) -> f64 {
        match *self {
            CheckpointCodec::Raw => 0.0,
            CheckpointCodec::WaveletQuant { threshold, step } => threshold + step / 2.0,
        }
    }

    /// Whether the codec parameters are usable (finite, non-negative).
    pub fn is_valid(&self) -> bool {
        match *self {
            CheckpointCodec::Raw => true,
            CheckpointCodec::WaveletQuant { threshold, step } => {
                threshold.is_finite() && threshold >= 0.0 && step.is_finite() && step >= 0.0
            }
        }
    }
}

/// Outcome of encoding one detail plane.
///
/// Public because the `wserv` progressive-delivery path reuses this
/// codec to quantize response planes on the wire with the exact same
/// arithmetic (and therefore the exact same `threshold + step / 2`
/// error bound) as checkpoint shipping.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaneStats {
    /// Coefficients that survived the threshold (nonzero after coding).
    pub kept: usize,
    /// Total coefficients in the plane.
    pub total: usize,
}

impl PlaneStats {
    /// Fold another plane's counts into this one.
    pub fn absorb(&mut self, other: PlaneStats) {
        self.kept += other.kept;
        self.total += other.total;
    }
}

/// Threshold + quantize one detail plane in place.
pub fn encode_plane(m: &mut Matrix, threshold: f64, step: f64) -> PlaneStats {
    let mut kept = 0;
    let total = m.rows() * m.cols();
    for v in m.data_mut() {
        if v.abs() <= threshold {
            *v = 0.0;
        } else if step > 0.0 {
            *v = (*v / step).round() * step;
        }
        if *v != 0.0 {
            kept += 1;
        }
    }
    PlaneStats { kept, total }
}

/// Wire bytes of the encoded detail planes: a sparse (value +
/// 32-bit coordinate) encoding when it wins, the dense plane otherwise.
pub fn encoded_bytes(stats: PlaneStats, pixel_bytes: usize) -> usize {
    let dense = stats.total * pixel_bytes;
    let sparse = stats.kept * (pixel_bytes + 4);
    dense.min(sparse)
}

/// Compute charged per codec pass (encode or decode) over `coeffs`
/// detail coefficients: a compare + scale/round per coefficient and a
/// read-modify-write of the plane.
pub(crate) fn codec_ops(coeffs: usize) -> Ops {
    Ops {
        flops: 3 * coeffs as u64,
        intops: coeffs as u64,
        memops: 2 * coeffs as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_codec_is_exact_and_valid() {
        assert_eq!(CheckpointCodec::Raw.tolerance(), 0.0);
        assert!(CheckpointCodec::Raw.is_valid());
        assert!(!CheckpointCodec::WaveletQuant {
            threshold: -1.0,
            step: 0.0
        }
        .is_valid());
    }

    #[test]
    fn encode_respects_tolerance_and_counts_survivors() {
        let mut m = Matrix::from_vec(2, 3, vec![0.05, -0.2, 1.234, -0.9, 0.0, 0.11]).unwrap();
        let orig = m.clone();
        let (threshold, step) = (0.1, 0.25);
        let stats = encode_plane(&mut m, threshold, step);
        assert_eq!(stats.total, 6);
        // 0.05 zeroed by the threshold, 0.0 already zero; the rest survive
        // (0.11 quantizes to 0.0 as well: kept counts post-coding nonzeros).
        for (a, b) in orig.data().iter().zip(m.data()) {
            assert!(
                (a - b).abs() <= threshold + step / 2.0 + 1e-12,
                "coded {b} too far from {a}"
            );
        }
        assert_eq!(stats.kept, m.data().iter().filter(|v| **v != 0.0).count());
    }

    #[test]
    fn sparse_encoding_only_wins_when_sparse() {
        let dense = PlaneStats {
            kept: 100,
            total: 100,
        };
        assert_eq!(encoded_bytes(dense, 4), 400);
        let sparse = PlaneStats {
            kept: 10,
            total: 100,
        };
        assert_eq!(encoded_bytes(sparse, 4), 80);
    }
}
