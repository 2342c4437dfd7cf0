//! Progressive, prioritized response delivery.
//!
//! The paper's banded pyramid is naturally progressive: the LL plane
//! carries most of the energy and each detail plane refines it. This
//! module turns a [`DecomposeResponse`] into an ordered plane sequence
//! — the header frame ships the exact LL plane plus all serving
//! metadata, then detail planes follow in decreasing order of the bound
//! each one removes — and reassembles the sequence on the receiving
//! side with a running, provable error bound, so a client can stop (and
//! cancel the request) the moment its tolerance is met. The server
//! quantizes and sends a plane only once the reader asks for it.
//!
//! Detail planes are optionally compressed on the wire with
//! [`CheckpointCodec::WaveletQuant`] — the exact arithmetic the
//! recovery layer uses for checkpoints, so the codec's
//! `threshold + step / 2` bound carries over verbatim. With
//! [`CheckpointCodec::Raw`] (or an all-zero quantizer) planes ship
//! untouched and a complete reassembly is **bitwise identical** to the
//! monolithic response.
//!
//! Bound bookkeeping: each frame carries `bound_after`, the largest
//! absolute per-coefficient error of the partial reassembly *versus
//! the shipped (post-codec) pyramid* once that frame is applied —
//! `max(codec tolerance, max |original coefficient| over planes still
//! outstanding)`. The outstanding set only shrinks along the sequence,
//! so the bound is monotone nonincreasing by construction. The bound
//! versus the *exact* decomposition adds the server-side
//! `base_error_bound` (triangle inequality); [`Reassembler::bound`]
//! reports that sum.

use dwt::{Matrix, Pyramid, Subbands};
use dwt_mimd::{encode_plane, encoded_bytes, CheckpointCodec, PlaneStats};

use crate::request::DecomposeResponse;
use crate::wire::{
    corrupt, PlaneBand, PlaneCoeffs, ProgressiveHeader, ProgressivePlane, WireError,
};

fn max_abs(data: &[f64]) -> f64 {
    data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

fn band_of(sb: &Subbands, band: PlaneBand) -> &Matrix {
    match band {
        PlaneBand::Lh => &sb.lh,
        PlaneBand::Hl => &sb.hl,
        PlaneBand::Hh => &sb.hh,
    }
}

/// Whether a sparse plane carries `v` as an entry: every bit pattern
/// but `+0.0`, the value a reassembly fills in, so `-0.0` survives.
fn ships(v: &f64) -> bool {
    v.to_bits() != 0
}

/// Sparse (value + 32-bit coordinate) when that is strictly smaller
/// than the dense plane — the breakeven [`encoded_bytes`] bills for
/// checkpoints. `kept` is how many values of `data` [`ships`] keeps.
fn pick_coeffs(data: Vec<f64>, kept: usize) -> PlaneCoeffs {
    let (total, pixel) = (data.len(), std::mem::size_of::<f64>());
    if encoded_bytes(PlaneStats { kept, total }, pixel) < total * pixel {
        let entries = data.iter().enumerate().filter(|(_, v)| ships(v));
        PlaneCoeffs::Sparse(entries.map(|(i, v)| (i as u32, *v)).collect())
    } else {
        PlaneCoeffs::Dense(data)
    }
}

/// A response cut into its progressive sequence: the header, and the
/// detail planes in bound order, each quantized only when it is asked
/// for — a sequence its reader stops early never pays for the planes it
/// did not read.
///
/// Plane order is descending largest original coefficient; on ties the
/// smaller plane goes first, then `(level, band)` so the order is total
/// and deterministic. A reader with tolerance `T` over base bound
/// `base` needs exactly the planes with `max |c| > T − base`: the bound
/// after any prefix is the largest coefficient still outstanding (or
/// the codec tolerance), so every plane above that line must arrive
/// and none below it helps. This order puts the whole set first, for
/// every `T` at once, so each prefix is the fewest planes — and bytes,
/// since every one of them must be paid for anyway — for its bound.
pub(crate) struct PlaneSequence<'a> {
    resp: &'a DecomposeResponse,
    codec: CheckpointCodec,
    header: ProgressiveHeader,
    /// `(level, band, bound_after)` of each plane, in sequence order.
    order: Vec<(usize, PlaneBand, f64)>,
}

impl<'a> PlaneSequence<'a> {
    pub(crate) fn new(
        resp: &'a DecomposeResponse,
        codec: CheckpointCodec,
    ) -> Result<PlaneSequence<'a>, WireError> {
        if !codec.is_valid() {
            return Err(corrupt("invalid progressive codec parameters"));
        }
        let mut cands = Vec::with_capacity(3 * resp.pyramid.levels());
        for (i, sb) in resp.pyramid.detail.iter().enumerate() {
            for band in [PlaneBand::Lh, PlaneBand::Hl, PlaneBand::Hh] {
                let m = band_of(sb, band);
                cands.push((i + 1, band, m.data().len(), max_abs(m.data())));
            }
        }
        cands.sort_by(|a, b| {
            b.3.total_cmp(&a.3)
                .then(a.2.cmp(&b.2))
                .then(a.0.cmp(&b.0))
                .then((a.1 as u8).cmp(&(b.1 as u8)))
        });
        // bound_after[j] = max(codec tolerance, largest orig_max over
        // planes strictly after j) — under this order, the next plane's.
        let tol = codec.tolerance();
        let bound = |j: usize| cands.get(j).map_or(tol, |c| tol.max(c.3));
        let order = (0..cands.len())
            .map(|j| (cands[j].0, cands[j].1, bound(j + 1)))
            .collect();
        let (rows, cols) = resp.pyramid.image_dims();
        let header = ProgressiveHeader {
            cache_hit: resp.cache_hit,
            degraded: resp.degraded,
            batch_size: resp.batch_size,
            wait_s: resp.wait_s,
            service_s: resp.service_s,
            base_error_bound: resp.error_bound,
            rows,
            cols,
            levels: resp.pyramid.levels(),
            planes_total: cands.len(),
            codec_tolerance: tol,
            bound_after: bound(0),
            approx: resp.pyramid.approx.clone(),
        };
        Ok(PlaneSequence {
            resp,
            codec,
            header,
            order,
        })
    }

    /// The header frame's payload.
    pub(crate) fn header(&self) -> &ProgressiveHeader {
        &self.header
    }

    /// Detail planes in the sequence.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Plane `seq` (1-based), quantized now. With a lossless codec
    /// (`Raw`, or `WaveletQuant` with `threshold == 0 && step == 0`) it
    /// ships untouched — byte-for-byte the monolithic coefficients,
    /// including signed zeros.
    pub(crate) fn plane(&self, seq: usize) -> ProgressivePlane {
        let (level, band, bound_after) = self.order[seq - 1];
        let m = band_of(&self.resp.pyramid.detail[level - 1], band);
        let mut kept = 0;
        let mut count = |v: &f64| kept += usize::from(ships(v));
        let data = match self.codec {
            CheckpointCodec::WaveletQuant { threshold, step } if self.codec.tolerance() > 0.0 => {
                let mut coded = m.clone();
                // Its own count passes over a -0.0 its rounding yields.
                encode_plane(&mut coded, threshold, step);
                coded.data().iter().for_each(count);
                coded.into_vec()
            }
            // encode_plane normalizes -0.0 to +0.0; bypass it so a
            // complete lossless reassembly stays bitwise identical.
            _ => m.data().iter().inspect(|v| count(v)).copied().collect(),
        };
        ProgressivePlane {
            seq,
            level,
            band,
            rows: m.rows(),
            cols: m.cols(),
            bound_after,
            coeffs: pick_coeffs(data, kept),
        }
    }
}

/// Split a successful response into a progressive header + detail-plane
/// sequence, quantizing detail planes with `codec` on the way out: the
/// order a progressive server sends — descending largest original
/// coefficient, ties to the smaller plane, then `(level, band)` — with
/// every plane realized, where the server realizes only the planes its
/// client asks for. Each plane's `bound_after` is computed from the
/// **original** coefficient magnitudes of the planes still outstanding,
/// so the sequence of bounds is honest for a receiver that reads
/// missing planes as zero.
pub fn split_response(
    resp: &DecomposeResponse,
    codec: CheckpointCodec,
) -> Result<(ProgressiveHeader, Vec<ProgressivePlane>), WireError> {
    let seq = PlaneSequence::new(resp, codec)?;
    let planes = (1..=seq.len()).map(|s| seq.plane(s)).collect();
    Ok((seq.header, planes))
}

/// What the reader of a progressive sequence does after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Read the next frame, first sending a `Credit` for `credit` planes
    /// (cumulative; `u32::MAX` is the whole sequence) when it is set.
    Read { credit: Option<u32> },
    /// Every plane is in, or the sender ended the sequence.
    Finished,
    /// Stop reading and Cancel the request: the tolerance is met, or
    /// (`budget`) the byte budget is spent with the tolerance unmet.
    Cancel { budget: bool },
}

/// Incremental client-side reassembly of a progressive response.
///
/// Applying planes is idempotent (a replayed sequence after a retry
/// re-applies planes already held without changing the result), and
/// [`Reassembler::bound`] is monotone nonincreasing as planes land.
#[derive(Debug, Clone)]
pub struct Reassembler {
    header: ProgressiveHeader,
    pyramid: Pyramid,
    applied: Vec<bool>,
    /// Tightest `bound_after` seen so far (progressive part only).
    progressive_bound: f64,
}

impl Reassembler {
    /// Start a reassembly from the header frame's payload.
    pub fn new(header: ProgressiveHeader) -> Result<Reassembler, WireError> {
        let mut pyramid = Pyramid::zeros(header.rows, header.cols, header.levels)
            .map_err(|e| corrupt(format!("progressive header geometry: {e}")))?;
        pyramid.approx = header.approx.clone();
        let applied = vec![false; header.planes_total];
        let progressive_bound = header.bound_after;
        Ok(Reassembler {
            header,
            pyramid,
            applied,
            progressive_bound,
        })
    }

    /// Apply one detail-plane frame. Duplicate `seq` values (dedup
    /// replays resend the whole sequence) are no-ops.
    pub fn apply(&mut self, plane: &ProgressivePlane) -> Result<(), WireError> {
        if plane.seq == 0 || plane.seq > self.header.planes_total {
            return Err(corrupt(format!(
                "plane seq {} outside 1..={}",
                plane.seq, self.header.planes_total
            )));
        }
        if plane.level == 0 || plane.level > self.header.levels {
            return Err(corrupt(format!(
                "plane level {} outside 1..={}",
                plane.level, self.header.levels
            )));
        }
        let sb = &mut self.pyramid.detail[plane.level - 1];
        let (rows, cols) = (sb.rows(), sb.cols());
        if plane.rows != rows || plane.cols != cols {
            return Err(corrupt(format!(
                "plane is {}x{}, level {} demands {}x{}",
                plane.rows, plane.cols, plane.level, rows, cols
            )));
        }
        let target = match plane.band {
            PlaneBand::Lh => &mut sb.lh,
            PlaneBand::Hl => &mut sb.hl,
            PlaneBand::Hh => &mut sb.hh,
        };
        match &plane.coeffs {
            PlaneCoeffs::Dense(data) => {
                if data.len() != rows * cols {
                    return Err(corrupt("dense plane length mismatch"));
                }
                target.data_mut().copy_from_slice(data);
            }
            PlaneCoeffs::Sparse(entries) => {
                let out = target.data_mut();
                out.fill(0.0);
                for &(ix, v) in entries {
                    let ix = ix as usize;
                    if ix >= out.len() {
                        return Err(corrupt("sparse plane index out of range"));
                    }
                    out[ix] = v;
                }
            }
        }
        if !self.applied[plane.seq - 1] {
            self.applied[plane.seq - 1] = true;
            // min() keeps the bound monotone even if frames land out of
            // the canonical order after a replay.
            self.progressive_bound = self.progressive_bound.min(plane.bound_after);
        }
        Ok(())
    }

    /// Largest absolute per-coefficient error of the current partial
    /// pyramid versus the **exact** decomposition: the server-side
    /// degradation bound plus the progressive truncation/codec bound.
    pub fn bound(&self) -> f64 {
        self.header.base_error_bound + self.progressive_bound
    }

    /// The reader's stop and credit rules for the bound-ordered stream,
    /// asked by the client after the header and after every plane.
    /// `ended` says the sender marked this frame the sequence's last;
    /// `got_bytes` is the on-wire response bytes the call has received
    /// so far. A sequence that is over is
    /// never cancelled, and the tolerance is asked before the byte
    /// budget, so a budget stop means the tolerance was *not* met.
    ///
    /// A plane leaves the server only once a `Credit` covers it. Every
    /// plane so far arrived in order, so a reader with a stop rule pulls
    /// the next one alone; a reader without one reads every plane, so
    /// one credit after the header covers the sequence.
    pub(crate) fn step(
        &self,
        ended: bool,
        got_bytes: usize,
        tolerance: Option<f64>,
        byte_budget: Option<usize>,
    ) -> Step {
        if ended || self.complete() {
            Step::Finished
        } else if tolerance.is_some_and(|tol| self.bound() <= tol) {
            Step::Cancel { budget: false }
        } else if byte_budget.is_some_and(|budget| got_bytes >= budget) {
            Step::Cancel { budget: true }
        } else {
            let held = self.applied.iter().filter(|a| **a).count() as u32;
            let credit = if tolerance.is_some() || byte_budget.is_some() {
                Some(held + 1)
            } else {
                (held == 0).then_some(u32::MAX)
            };
            Step::Read { credit }
        }
    }

    /// Whether every detail plane has arrived.
    pub fn complete(&self) -> bool {
        self.applied.iter().all(|a| *a)
    }

    /// The serving metadata carried by the header frame.
    pub fn header(&self) -> &ProgressiveHeader {
        &self.header
    }

    /// Finish the reassembly into a [`DecomposeResponse`]. Partial
    /// reassemblies read missing planes as zero; `error_bound` is
    /// [`Reassembler::bound`] and `degraded` reflects any nonzero
    /// bound, whether server-side or progressive.
    pub fn into_response(self) -> DecomposeResponse {
        let error_bound = self.bound();
        DecomposeResponse {
            pyramid: self.pyramid,
            cache_hit: self.header.cache_hit,
            batch_size: self.header.batch_size,
            wait_s: self.header.wait_s,
            service_s: self.header.service_s,
            degraded: self.header.degraded || error_bound > 0.0,
            error_bound,
        }
    }
}

/// Max-abs difference between two pyramids of identical geometry
/// (useful for asserting delivered error bounds in tests/benches).
pub fn pyramid_max_abs_diff(a: &Pyramid, b: &Pyramid) -> Option<f64> {
    let mut worst = a.approx.max_abs_diff(&b.approx)?;
    if a.detail.len() != b.detail.len() {
        return None;
    }
    for (sa, sb) in a.detail.iter().zip(&b.detail) {
        for (ma, mb) in [(&sa.lh, &sb.lh), (&sa.hl, &sb.hl), (&sa.hh, &sb.hh)] {
            worst = worst.max(ma.max_abs_diff(mb)?);
        }
    }
    Some(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_progressive_header, encode_progressive_plane};
    use dwt::engine::DwtPlan;
    use dwt::{Boundary, FilterBank};
    use proptest::prelude::*;

    fn exact_response(rows: usize, cols: usize, levels: usize) -> DecomposeResponse {
        let img = Matrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 17) % 23) as f64 - 11.0 + if (r + c) % 5 == 0 { 0.25 } else { 0.0 }
        });
        let plan = DwtPlan::new(rows, cols, FilterBank::cdf97(), levels, Boundary::Periodic)
            .expect("plan");
        exact_response_of(plan.decompose(&img).expect("decompose"))
    }

    #[test]
    fn lossless_reassembly_is_bitwise_identical() {
        let resp = exact_response(16, 16, 3);
        let (header, planes) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        assert_eq!(planes.len(), 9);
        let mut r = Reassembler::new(header).unwrap();
        for p in &planes {
            r.apply(p).unwrap();
        }
        assert!(r.complete());
        assert_eq!(r.bound(), 0.0);
        let got = r.into_response();
        assert_eq!(got.pyramid, resp.pyramid, "bitwise-equal pyramids");
        assert!(!got.degraded);
    }

    /// A plane that is all zeros but one by value still carries its
    /// signed zeros: `==` cannot tell `-0.0` from `0.0`, so compare bits.
    #[test]
    fn a_lossless_plane_keeps_its_signed_zeros() {
        let mut pyramid = Pyramid::zeros(8, 8, 1).unwrap();
        let lh = pyramid.detail[0].lh.data_mut();
        lh.fill(-0.0);
        lh[5] = 3.0;
        let resp = exact_response_of(pyramid);
        let (header, planes) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        let mut r = Reassembler::new(header).unwrap();
        for p in &planes {
            r.apply(p).unwrap();
        }
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (got, sent) = (
            &r.into_response().pyramid.detail[0],
            &resp.pyramid.detail[0],
        );
        assert_eq!(bits(&got.lh), bits(&sent.lh));
        assert_eq!(bits(&got.hl), bits(&sent.hl));
        assert_eq!(bits(&got.hh), bits(&sent.hh));
    }

    #[test]
    fn bounds_are_monotone_and_honest() {
        let resp = exact_response(32, 32, 2);
        let codec = CheckpointCodec::WaveletQuant {
            threshold: 0.05,
            step: 0.1,
        };
        let (header, planes) = split_response(&resp, codec).unwrap();
        let mut r = Reassembler::new(header).unwrap();
        let mut prev = r.bound();
        for p in &planes {
            r.apply(p).unwrap();
            let now = r.bound();
            assert!(now <= prev, "bound rose from {prev} to {now}");
            prev = now;
            // Honesty: the partial pyramid is within the reported bound
            // of the exact decomposition at every step.
            let partial = r.clone().into_response();
            let diff = pyramid_max_abs_diff(&partial.pyramid, &resp.pyramid).unwrap();
            assert!(
                diff <= now + 1e-12,
                "actual error {diff} exceeds reported bound {now}"
            );
        }
        assert!(r.complete());
        assert!((r.bound() - codec.tolerance()).abs() < 1e-15);
    }

    #[test]
    fn duplicate_planes_are_idempotent() {
        let resp = exact_response(8, 8, 1);
        let (header, planes) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        let mut r = Reassembler::new(header.clone()).unwrap();
        for p in &planes {
            r.apply(p).unwrap();
        }
        let bound = r.bound();
        let snapshot = r.clone().into_response();
        for p in &planes {
            r.apply(p).unwrap(); // full replay
        }
        assert_eq!(r.bound(), bound);
        assert_eq!(r.into_response().pyramid, snapshot.pyramid);
    }

    fn response(n: usize, bank: u8, levels: usize, salt: u64, base: f64) -> DecomposeResponse {
        let img = Matrix::from_fn(n, n, |r, c| {
            ((r as u64 * 31 + c as u64 * 17 + salt * 7) % 61) as f64 - 30.5
                + ((r * c) as u64 % (salt % 13 + 2)) as f64 * (salt % 5) as f64
        });
        let bank = match bank % 4 {
            0 => FilterBank::haar(),
            1 => FilterBank::daubechies(4).expect("D4 exists"),
            2 => FilterBank::cdf53(),
            _ => FilterBank::cdf97(),
        };
        let plan = DwtPlan::new(n, n, bank, levels, Boundary::Periodic).expect("plan");
        DecomposeResponse {
            degraded: base > 0.0,
            error_bound: base,
            ..exact_response_of(plan.decompose(&img).expect("decompose"))
        }
    }

    fn exact_response_of(pyramid: Pyramid) -> DecomposeResponse {
        DecomposeResponse {
            pyramid,
            cache_hit: false,
            batch_size: 1,
            wait_s: 0.0,
            service_s: 0.001,
            degraded: false,
            error_bound: 0.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The order is byte-minimal for every tolerance at once: a
        /// reader with tolerance `T` that applies planes until
        /// `bound() <= T` has applied exactly the planes with
        /// `max |p| > T − base` (computed as the bound is, `base +
        /// max |p| > T`) — whatever the pyramid, codec and degraded-mode
        /// base, and for `T` on a plane's own maximum too.
        #[test]
        fn a_reader_applies_exactly_the_planes_its_tolerance_needs(
            n_tag in 0usize..2,
            bank in 0u8..4,
            levels in 1usize..4,
            salt in 0u64..1000,
            threshold in 0.0f64..0.5,
            step in 0.0f64..0.5,
            degraded in 0u8..2,
            pick in 0usize..12,
            frac in 0.0f64..1.0,
        ) {
            let base = 0.375 * degraded as f64;
            let resp = response([16, 32][n_tag], bank, levels, salt, base);
            let codec = CheckpointCodec::WaveletQuant { threshold, step };
            let (header, planes) = split_response(&resp, codec).expect("valid codec");
            let max_of = |p: &ProgressivePlane| {
                max_abs(band_of(&resp.pyramid.detail[p.level - 1], p.band).data())
            };
            let floor = base + codec.tolerance();
            let top = planes.iter().map(max_of).fold(0.0, f64::max);
            // On a plane's maximum for a quarter of the cases, inside
            // the reachable range otherwise.
            let t = match planes.get(pick) {
                Some(p) if pick % 4 == 0 && base + max_of(p) >= floor => base + max_of(p),
                _ => floor + frac * top,
            };

            let mut r = Reassembler::new(header).expect("own header");
            let mut applied = Vec::new();
            for p in &planes {
                if r.bound() <= t {
                    break;
                }
                r.apply(p).expect("own plane");
                applied.push((p.level, p.band as u8));
            }
            prop_assert!(r.bound() <= t, "bound {} never met {t}", r.bound());
            let mut needed: Vec<_> = planes
                .iter()
                .filter(|p| base + max_of(p) > t)
                .map(|p| (p.level, p.band as u8))
                .collect();
            applied.sort_unstable();
            needed.sort_unstable();
            prop_assert_eq!(applied, needed);
        }
    }

    #[test]
    fn lossy_split_shrinks_wire_bytes() {
        let resp = exact_response(32, 32, 2);
        let (lossless_h, lossless_p) = split_response(&resp, CheckpointCodec::Raw).unwrap();
        let codec = CheckpointCodec::WaveletQuant {
            threshold: 2.0,
            step: 0.5,
        };
        let (lossy_h, lossy_p) = split_response(&resp, codec).unwrap();
        let bytes = |h: &ProgressiveHeader, planes: &[ProgressivePlane]| {
            let header = encode_progressive_header(0, h).unwrap().payload.len();
            let frames = planes
                .iter()
                .map(|p| encode_progressive_plane(0, p, true).unwrap());
            header + frames.map(|f| f.payload.len()).sum::<usize>()
        };
        let full = bytes(&lossless_h, &lossless_p);
        let lossy = bytes(&lossy_h, &lossy_p);
        assert!(
            lossy < full,
            "quantized sequence ({lossy} B) should undercut lossless ({full} B)"
        );
    }

    #[test]
    fn invalid_codec_is_rejected() {
        let resp = exact_response(8, 8, 1);
        let bad = CheckpointCodec::WaveletQuant {
            threshold: f64::NAN,
            step: 0.0,
        };
        assert!(split_response(&resp, bad).is_err());
    }
}
