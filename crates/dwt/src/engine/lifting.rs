//! Fused lifting kernels for the CDF biorthogonal banks.
//!
//! The convolution engine in [`crate::engine`] performs
//! `2 · filter_len` multiply-adds per pixel per direction. A lifting
//! factorization (Daubechies & Sweldens) of the same transform needs
//! roughly half the arithmetic *and* half the memory traffic, because
//! every predict/update step is an in-place `x += c · (a + b)` — the
//! direction Barina et al. take to beat separable convolution on both
//! CPUs and GPUs.
//!
//! # Kernel structure
//!
//! One stripe of row pairs of one level, either direction, runs as a
//! **single fused `sweep`**:
//!
//! * *fill* — analysis row-lifts each input row into a staging row
//!   packed as `[low | high]` halves; synthesis gathers the matching
//!   sub-band rows (any 9/7 scaling fused into that copy);
//! * the column transform runs as a software pipeline over the staged
//!   rows: stage `k` of the predict/update schedule trails stage `k-1`
//!   by one row pair, so every row is touched while still cache-hot.
//!   The sweep stages the stripe plus a *halo* of one (5/3) or two (9/7)
//!   row pairs at each edge, fetched modulo the level height, so no
//!   stage ever wraps: the periodic wrap is one more stripe edge,
//!   recomputed the way the paper's guard zones are;
//! * *drain* — as soon as a row pair leaves the last stage it is
//!   scattered to the four sub-bands, the 9/7 scaling fused into the
//!   copy (analysis), or row-unlifted into the output image (synthesis).
//!
//! The working set is at most a dozen buffer rows regardless of image
//! height — the lifting analogue of the convolution engine's
//! ring-buffer halo — and stripes share nothing, so the engine runs one
//! per thread lane. Interior loops go through [`lift_step`], a plain
//! zipped `dst[i] += c · (a[i] + b[i])` over contiguous rows that LLVM
//! vectorizes (vertical vectorization); the row transforms' wraps are
//! scalar, and their deinterleave and interleave are zipped loops with
//! no per-index bounds checks.
//!
//! Per element the arithmetic is the *same sequence of operations* as
//! the (hidden) oracle in [`crate::lifting`], so results are
//! bit-identical; the property suite pins that.
//!
//! # Integer lifting
//!
//! [`forward_int`] / [`inverse_int`] implement the reversible
//! (rounded) integer transforms on `i32` samples. Both banks run the
//! float path's forward stage table through one rounded step that adds
//! `floor(c · (a + b) + 1/2)`; the inverse runs the same stages last to
//! first and subtracts them. It cannot use the float inverse schedule,
//! whose negated `c` would round the other way: `floor(x + 1/2)` is not
//! odd-symmetric. A dyadic `c` rounds in integers: 5/3's `c = -1/2, 1/4`
//! run the JPEG 2000 `-((a + b) >> 1)` / `(a + b + 2) >> 2`. 9/7 omits
//! the final `ζ` scaling. Both use whole-sample symmetric extension, so
//! **odd** lengths round-trip exactly too.

use std::ops::Range;

use crate::error::{DwtError, Result};
use crate::lifting::{LiftingKind, ALPHA, BETA, DELTA, GAMMA, ZETA};
use crate::pyramid::Subbands;

/// One lifting step of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `odd[j] += c · (even[j] + even[j+1])`, periodic.
    Predict,
    /// `even[j] += c · (odd[j-1] + odd[j])`, periodic.
    Update,
}

#[derive(Debug, Clone, Copy)]
struct Stage {
    op: Op,
    c: f64,
}

const fn predict(c: f64) -> Stage {
    Stage { op: Op::Predict, c }
}

const fn update(c: f64) -> Stage {
    Stage { op: Op::Update, c }
}

/// The inverse of a schedule: its steps undone last to first, each by
/// the same step with the coefficient negated.
const fn undo<const N: usize>(fwd: [Stage; N]) -> [Stage; N] {
    let mut inv = fwd;
    let mut k = 0;
    while k < N {
        inv[k] = Stage {
            op: fwd[N - 1 - k].op,
            c: -fwd[N - 1 - k].c,
        };
        k += 1;
    }
    inv
}

const FWD_53: [Stage; 2] = [predict(-0.5), update(0.25)];
const INV_53: [Stage; 2] = undo(FWD_53);
const FWD_97: [Stage; 4] = [predict(ALPHA), update(BETA), predict(GAMMA), update(DELTA)];
const INV_97: [Stage; 4] = undo(FWD_97);

fn stages(kind: LiftingKind, inverse: bool) -> &'static [Stage] {
    match (kind, inverse) {
        (LiftingKind::LeGall53, false) => &FWD_53,
        (LiftingKind::LeGall53, true) => &INV_53,
        (LiftingKind::Cdf97, false) => &FWD_97,
        (LiftingKind::Cdf97, true) => &INV_97,
    }
}

/// The 9/7 normalization, `None` for the unnormalized 5/3.
fn zeta(kind: LiftingKind) -> Option<f64> {
    match kind {
        LiftingKind::Cdf97 => Some(ZETA),
        LiftingKind::LeGall53 => None,
    }
}

/// `dst[i] += c · (a[i] + b[i])` over contiguous slices — the vertical
/// lifting update. A plain zipped loop: no bounds checks, and LLVM
/// vectorizes it as it stands.
#[inline]
pub fn lift_step(dst: &mut [f64], a: &[f64], b: &[f64], c: f64) {
    debug_assert!(a.len() >= dst.len() && b.len() >= dst.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += c * (x + y);
    }
}

/// `row[i] *= z` — the 9/7 normalization of a low half (analysis) or a
/// high half (synthesis).
fn scale(row: &mut [f64], z: f64) {
    for v in row {
        *v *= z;
    }
}

/// `row[i] /= z` — the other half. A true division, not a multiply by
/// the reciprocal: the oracle divides.
fn unscale(row: &mut [f64], z: f64) {
    for v in row {
        *v /= z;
    }
}

/// `dst = src` with any 9/7 normalization fused into the copy:
/// [`scale`] when `times`, else [`unscale`] (still a true division).
fn copy_normalized(dst: &mut [f64], src: &[f64], z: Option<f64>, times: bool) {
    match z {
        Some(z) if times => {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v * z;
            }
        }
        Some(z) => {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v / z;
            }
        }
        None => dst.copy_from_slice(src),
    }
}

/// Run a predict/update schedule over split even/odd halves of one
/// signal, periodic in the half length. The interior of each stage is a
/// single [`lift_step`]; only the wrap element is scalar.
fn lift_halves(e: &mut [f64], o: &mut [f64], stages: &[Stage]) {
    let h = e.len();
    debug_assert_eq!(o.len(), h);
    if h == 0 {
        return;
    }
    for st in stages {
        match st.op {
            Op::Predict => {
                // o[j] += c · (e[j] + e[j+1]); j = h-1 wraps to e[0].
                lift_step(&mut o[..h - 1], &e[..h - 1], &e[1..], st.c);
                o[h - 1] += st.c * (e[h - 1] + e[0]);
            }
            Op::Update => {
                // e[j] += c · (o[j-1] + o[j]); j = 0 wraps to o[h-1].
                e[0] += st.c * (o[h - 1] + o[0]);
                lift_step(&mut e[1..], &o[..h - 1], &o[1..], st.c);
            }
        }
    }
}

/// Run a schedule in place on an interleaved signal (`x[2j]` even,
/// `x[2j+1]` odd). Used by the 1-D inverse so the caller needs no
/// scratch.
fn lift_interleaved(x: &mut [f64], stages: &[Stage]) {
    let h = x.len() / 2;
    if h == 0 {
        return;
    }
    for st in stages {
        match st.op {
            Op::Predict => {
                for j in 0..h - 1 {
                    x[2 * j + 1] += st.c * (x[2 * j] + x[2 * j + 2]);
                }
                x[2 * h - 1] += st.c * (x[2 * h - 2] + x[0]);
            }
            Op::Update => {
                x[0] += st.c * (x[2 * h - 1] + x[1]);
                for j in 1..h {
                    x[2 * j] += st.c * (x[2 * j - 1] + x[2 * j + 1]);
                }
            }
        }
    }
}

/// Forward 1-D lifting transform into preallocated halves
/// (`approx.len() == detail.len() == x.len() / 2`). Allocation-free.
pub fn forward_1d_into(
    x: &[f64],
    kind: LiftingKind,
    approx: &mut [f64],
    detail: &mut [f64],
) -> Result<()> {
    let n = x.len();
    if n < 2 || !n.is_multiple_of(2) {
        return Err(DwtError::OddLength { len: n, level: 1 });
    }
    let h = n / 2;
    if approx.len() != h || detail.len() != h {
        return Err(DwtError::DimensionMismatch {
            detail: format!(
                "halves of length {} and {} for a signal of length {n}",
                approx.len(),
                detail.len()
            ),
        });
    }
    for (i, pair) in x.chunks_exact(2).enumerate() {
        approx[i] = pair[0];
        detail[i] = pair[1];
    }
    lift_halves(approx, detail, stages(kind, false));
    if let Some(z) = zeta(kind) {
        scale(approx, z);
        unscale(detail, z);
    }
    Ok(())
}

/// Inverse of [`forward_1d_into`], writing the interleaved signal into
/// `out` (`out.len() == 2 · approx.len()`). Allocation-free.
pub fn inverse_1d_into(
    approx: &[f64],
    detail: &[f64],
    kind: LiftingKind,
    out: &mut [f64],
) -> Result<()> {
    let h = approx.len();
    if detail.len() != h {
        return Err(DwtError::DimensionMismatch {
            detail: format!("approx has {h} samples, detail {}", detail.len()),
        });
    }
    if out.len() != 2 * h {
        return Err(DwtError::DimensionMismatch {
            detail: format!("output of length {} for {h}-sample halves", out.len()),
        });
    }
    if h == 0 {
        return Ok(());
    }
    for (pair, (&a, &d)) in out.chunks_exact_mut(2).zip(approx.iter().zip(detail)) {
        pair[0] = a;
        pair[1] = d;
    }
    if let Some(z) = zeta(kind) {
        for pair in out.chunks_exact_mut(2) {
            pair[0] /= z;
            pair[1] *= z;
        }
    }
    lift_interleaved(out, stages(kind, true));
    Ok(())
}

/// Longest schedule ([`FWD_97`] / [`INV_97`]).
const MAX_STAGES: usize = 4;

/// Staging-buffer length (in `f64`s) of one lane's sweep over a level
/// `cols` wide: the ring of in-flight row pairs, two rows each.
pub(crate) fn staging_len(kind: LiftingKind, cols: usize) -> usize {
    2 * Pipeline::new(stages(kind, false)).ring * cols
}

/// Window arithmetic of one schedule's sweep — where each stage runs,
/// how wide the halo is, how many pairs are in flight.
///
/// A sweep stages a *window* of row pairs and runs the column stages on
/// it with no wrap: the periodic neighbour of a pair is the next window
/// position, fetched modulo `h` by the fill. A stage can only run where
/// its inputs already hold the previous stage's values, so the valid
/// part of the window shrinks stage by stage. Its `(head, tail)`
/// margins, kept separately for the even (`s`) and odd (`d`) rows:
///
/// * a predict `d[w] += c · (s[w] + s[w+1])` reads `s` one pair further
///   down: `d = (max(d.head, s.head), max(d.tail, s.tail + 1))`;
/// * an update `s[w] += c · (d[w-1] + d[w])` reads `d` one pair further
///   up: `s = (max(s.head, d.head + 1), max(s.tail, d.tail))`.
///
/// The halo is the widest final margin — 1 pair for CDF 5/3, 2 for
/// 9/7, either direction. A stripe that fetches `halo` pairs beyond
/// each of its edges holds every stage's value on all of its own pairs:
/// the constant-width guard zone of the paper's stripe decomposition,
/// recomputed by each side instead of exchanged. The periodic wrap is
/// just another stripe edge.
struct Pipeline {
    /// Per stage, the `(head, tail)` margins of the window positions it
    /// runs at; entries past the schedule stay `(0, 0)`.
    reach: [(usize, usize); MAX_STAGES],
    /// Pairs fetched beyond each stripe edge.
    halo: usize,
    /// Pairs live at once: the fill's newest, the one each stage
    /// reaches back to, and the drain's.
    ring: usize,
}

impl Pipeline {
    fn new(stages: &[Stage]) -> Self {
        let mut reach = [(0, 0); MAX_STAGES];
        let (mut s, mut d) = ((0usize, 0usize), (0usize, 0usize));
        for (k, st) in stages.iter().enumerate() {
            reach[k] = match st.op {
                Op::Predict => {
                    d = (d.0.max(s.0), d.1.max(s.1 + 1));
                    d
                }
                Op::Update => {
                    s = (s.0.max(d.0 + 1), s.1.max(d.1));
                    s
                }
            };
        }
        Pipeline {
            reach,
            halo: s.0.max(s.1).max(d.0).max(d.1),
            ring: stages.len() + 2,
        }
    }
}

/// Split three distinct rows of `buf` (row-major, `cols` wide) into one
/// mutable row and two shared rows (`a` and `b` may coincide).
fn row3<'a>(
    buf: &'a mut [f64],
    cols: usize,
    dst: usize,
    a: usize,
    b: usize,
) -> (&'a mut [f64], &'a [f64], &'a [f64]) {
    debug_assert!(dst != a && dst != b);
    let (left, rest) = buf.split_at_mut(dst * cols);
    let (drow, right) = rest.split_at_mut(cols);
    let left: &[f64] = left;
    let right: &[f64] = right;
    let fetch = move |idx: usize| -> &'a [f64] {
        if idx < dst {
            &left[idx * cols..(idx + 1) * cols]
        } else {
            let off = (idx - dst - 1) * cols;
            &right[off..off + cols]
        }
    };
    (drow, fetch(a), fetch(b))
}

/// Apply column stage `st` at window position `w`: one [`lift_step`]
/// across the full row. Pair `w` lives in staging rows `2·slot(w)` (`s`)
/// and `2·slot(w) + 1` (`d`); its periodic neighbours are the window
/// positions `w ± 1`, so nothing here wraps.
fn col_stage(buf: &mut [f64], cols: usize, st: Stage, w: usize, slot: impl Fn(usize) -> usize) {
    let (dst, a, b) = match st.op {
        // d[w] += c · (s[w] + s[w+1]).
        Op::Predict => (2 * slot(w) + 1, 2 * slot(w), 2 * slot(w + 1)),
        // s[w] += c · (d[w-1] + d[w]).
        Op::Update => (2 * slot(w), 2 * slot(w - 1) + 1, 2 * slot(w) + 1),
    };
    let (drow, a, b) = row3(buf, cols, dst, a, b);
    lift_step(drow, a, b, st.c);
}

/// Row pairs `pairs` of one level (`h` pairs, `cols` wide), either
/// direction: `fill(buf, t, bt)` stages logical row `t` into staging
/// row `bt`, the column schedule `st` runs over the staged rows, and
/// `drain(buf, q, bq)` consumes the stripe's `q`-th pair from staging
/// slot `bq` (rows `2·bq`, `2·bq + 1`). Analysis fills by row-lifting
/// the image and drains by scattering to the sub-bands; synthesis fills
/// by gathering the sub-bands and drains by row-unlifting into the
/// image. Both closures are monomorphised.
///
/// The window is the stripe plus [`Pipeline`]'s halo at each end,
/// fetched modulo `h`. A whole level is the stripe `0..h`: it recomputes
/// its own wrap exactly as two stripes recompute their shared edge, so
/// one lane and many run this same loop. It is one top-down pass — the
/// fill stages pair `i`, stage `k` trails it by `k + 1` pairs, and the
/// drain trails the last stage by one more, so nothing reads a pair
/// after it drains (the synthesis drain unlifts its rows in place).
/// Only [`Pipeline`]'s `ring` pairs are ever live, so the staging rows
/// stay cache-resident while source and outputs stream through memory
/// once.
fn sweep(
    h: usize,
    cols: usize,
    pairs: Range<usize>,
    st: &[Stage],
    buf: &mut [f64],
    mut fill: impl FnMut(&mut [f64], usize, usize),
    mut drain: impl FnMut(&mut [f64], usize, usize),
) {
    debug_assert!(pairs.end <= h && cols >= 2 && cols.is_multiple_of(2));
    let pipe = Pipeline::new(st);
    let (halo, ring, nst) = (pipe.halo, pipe.ring, st.len());
    let buf = &mut buf[..2 * ring * cols];
    let slot = |w: usize| w % ring;
    // Window position `w` holds pair `pairs.start - halo + w` (mod h).
    let first = pairs.start + h - halo % h;
    let width = pairs.len() + 2 * halo;
    for i in 0..width - halo + nst + 1 {
        if i < width {
            let p = (first + i) % h;
            fill(buf, 2 * p, 2 * slot(i));
            fill(buf, 2 * p + 1, 2 * slot(i) + 1);
        }
        for (k, (stage, &(head, tail))) in st.iter().zip(&pipe.reach).enumerate() {
            match i.checked_sub(k + 1) {
                Some(w) if w >= head && w + tail < width => col_stage(buf, cols, *stage, w, slot),
                _ => {}
            }
        }
        if let Some(w) = i.checked_sub(nst + 1) {
            if w >= halo && w + halo < width {
                drain(buf, w - halo, slot(w));
            }
        }
    }
}

/// Row-lift input row `r` into staging row `brow`: deinterleave into its
/// `[low | high]` halves, run the forward schedule on them in place,
/// then apply the 9/7 scaling.
fn row_lift(
    src: &[f64],
    cols: usize,
    r: usize,
    brow: usize,
    st: &[Stage],
    z: Option<f64>,
    buf: &mut [f64],
) {
    let x = &src[r * cols..(r + 1) * cols];
    let (e, o) = buf[brow * cols..(brow + 1) * cols].split_at_mut(cols / 2);
    for ((pair, e), o) in x.chunks_exact(2).zip(e.iter_mut()).zip(o.iter_mut()) {
        *e = pair[0];
        *o = pair[1];
    }
    lift_halves(e, o, st);
    if let Some(z) = z {
        scale(e, z);
        unscale(o, z);
    }
}

/// Scatter finished staging pair (slot `bp`) into row `p` of the four
/// sub-bands, applying the column-pass 9/7 scaling in the same pass.
#[allow(clippy::too_many_arguments)]
fn scatter_pair(
    buf: &[f64],
    cols: usize,
    bp: usize,
    p: usize,
    z: Option<f64>,
    ll: &mut [f64],
    lh: &mut [f64],
    hl: &mut [f64],
    hh: &mut [f64],
) {
    let c2 = cols / 2;
    let at = p * c2..(p + 1) * c2;
    let (s, d) = buf[2 * bp * cols..(2 * bp + 2) * cols].split_at(cols);
    // Even (`s`) rows feed LL/HL, scaled by ζ; odd (`d`) rows LH/HH, divided.
    for (dst, src, times) in [
        (&mut ll[at.clone()], &s[..c2], true),
        (&mut hl[at.clone()], &s[c2..], true),
        (&mut lh[at.clone()], &d[..c2], false),
        (&mut hh[at], &d[c2..], false),
    ] {
        copy_normalized(dst, src, z, times);
    }
}

/// Row pairs `pairs` of one level of fused lifting analysis: `src`
/// (`rows x cols`) into the stripe's rows of the four sub-bands
/// (`[ll, lh, hl, hh]`, `pairs.len()` rows each), staged through `buf`
/// ([`staging_len`] elements). Allocation-free; bit-identical to the
/// oracle.
pub(crate) fn forward_level(
    src: &[f64],
    rows: usize,
    cols: usize,
    kind: LiftingKind,
    pairs: Range<usize>,
    [ll, lh, hl, hh]: [&mut [f64]; 4],
    buf: &mut [f64],
) {
    debug_assert!(src.len() >= rows * cols);
    let st = stages(kind, false);
    let z = zeta(kind);
    sweep(
        rows / 2,
        cols,
        pairs,
        st,
        buf,
        |buf, r, brow| row_lift(src, cols, r, brow, st, z, buf),
        |buf, q, bq| scatter_pair(buf, cols, bq, q, z, ll, lh, hl, hh),
    );
}

/// Gather logical staging row `t` (into buffer row `bt`) for the
/// synthesis sweep: even rows come from `LL`/`HL` (column unscale
/// `/ζ`), odd rows from `LH`/`HH` (`·ζ`).
fn gather_row(
    bands: (&[f64], &[f64], &[f64], &[f64]),
    cols: usize,
    t: usize,
    bt: usize,
    z: Option<f64>,
    buf: &mut [f64],
) {
    let (ll, lh, hl, hh) = bands;
    let c2 = cols / 2;
    let at = t / 2 * c2..(t / 2 + 1) * c2;
    let row = &mut buf[bt * cols..(bt + 1) * cols];
    let even = t.is_multiple_of(2);
    let (left, right) = if even { (ll, hl) } else { (lh, hh) };
    for (dst, src) in row
        .chunks_exact_mut(c2)
        .zip([&left[at.clone()], &right[at]])
    {
        copy_normalized(dst, src, z, !even);
    }
}

/// Finish staging row `bt` of the synthesis sweep as output row `t`:
/// row unscale, inverse row schedule on the `[low | high]` halves,
/// interleave into `dst`.
fn finalize_row(
    buf: &mut [f64],
    cols: usize,
    t: usize,
    bt: usize,
    st: &[Stage],
    z: Option<f64>,
    dst: &mut [f64],
) {
    let c2 = cols / 2;
    let row = &mut buf[bt * cols..(bt + 1) * cols];
    let (e, o) = row.split_at_mut(c2);
    if let Some(z) = z {
        unscale(e, z);
        scale(o, z);
    }
    lift_halves(e, o, st);
    let out = &mut dst[t * cols..(t + 1) * cols];
    for ((pair, &e), &o) in out.chunks_exact_mut(2).zip(&*e).zip(&*o) {
        pair[0] = e;
        pair[1] = o;
    }
}

/// Row pairs `pairs` of one level of fused lifting synthesis: the four
/// sub-bands (`rows/2 x cols/2` each) into the stripe's rows of the
/// image (`dst`, `2 · pairs.len()` rows of `cols`) — the same [`sweep`]
/// as [`forward_level`] with the inverse schedule: gathered sub-band
/// rows stream through the inverse column stages, and each finished row
/// is inverse-row-lifted straight into `dst`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn inverse_level(
    ll: &[f64],
    bands: &Subbands,
    rows: usize,
    cols: usize,
    kind: LiftingKind,
    pairs: Range<usize>,
    dst: &mut [f64],
    buf: &mut [f64],
) {
    debug_assert!(dst.len() >= 2 * pairs.len() * cols);
    let st = stages(kind, true);
    let z = zeta(kind);
    let src = (ll, bands.lh.data(), bands.hl.data(), bands.hh.data());
    sweep(
        rows / 2,
        cols,
        pairs,
        st,
        buf,
        |buf, t, bt| gather_row(src, cols, t, bt, z, buf),
        |buf, q, bq| {
            finalize_row(buf, cols, 2 * q, 2 * bq, st, z, dst);
            finalize_row(buf, cols, 2 * q + 1, 2 * bq + 1, st, z, dst);
        },
    );
}

// ---------------------------------------------------------------------
// Reversible integer lifting (JPEG 2000 style).
// ---------------------------------------------------------------------

/// One rounded integer lifting step, added (`SIGN = 1`) or undone
/// (`SIGN = -1`): a predict `o[i] ± ⌊c·(e[i] + e[i+1]) + ½⌋`, an update
/// `e[i] ± ⌊c·(o[i-1] + o[i]) + ½⌋`. A dyadic `c = k/2^m` (5/3's −½
/// and ¼) rounds in integers, `(k·s + 2^(m−1)) >> m`, which are the
/// JPEG 2000 shifts; any other `c` (9/7) rounds the f64 product.
fn int_step<const SIGN: i32>(e: &mut [i32], o: &mut [i32], st: Stage) {
    match (1..=4).find(|&m| (st.c * f64::from(1 << m)).fract() == 0.0) {
        Some(m) => {
            let k = (st.c * f64::from(1 << m)) as i32;
            lift_int(e, o, st.op, |s| SIGN * ((k * s + (1 << (m - 1))) >> m));
        }
        None => lift_int(e, o, st.op, |s| {
            SIGN * (st.c * f64::from(s) + 0.5).floor() as i32
        }),
    }
}

/// Adds `step(neighbour sum)` to every sample `op` lifts: the interior
/// in a zipped loop (the integer rounding vectorizes), a neighbour past
/// either end being the edge sample itself (whole-sample symmetric
/// extension), so every length, odd included, is exactly reversible.
#[inline]
fn lift_int(e: &mut [i32], o: &mut [i32], op: Op, step: impl Fn(i32) -> i32) {
    let (ne, no) = (e.len(), o.len());
    match op {
        Op::Predict => {
            for ((oi, &a), &b) in o.iter_mut().zip(&*e).zip(&e[1..]) {
                *oi += step(a + b);
            }
            if no == ne {
                o[no - 1] += step(e[ne - 1] + e[ne - 1]);
            }
        }
        Op::Update => {
            e[0] += step(o[0] + o[0]);
            for ((ei, &a), &b) in e[1..].iter_mut().zip(&*o).zip(&o[1..]) {
                *ei += step(a + b);
            }
            if ne > no {
                e[ne - 1] += step(o[no - 1] + o[no - 1]);
            }
        }
    }
}

/// Rounded lifting of one line in place. Forward (`SIGN = 1`) splits it
/// into packed `[S | D]` and adds every stage of the float forward
/// schedule; inverse (`SIGN = -1`) subtracts them last to first and
/// interleaves back.
fn int_1d<const SIGN: i32>(x: &mut [i32], scratch: &mut [i32], kind: LiftingKind) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let ne = n.div_ceil(2);
    let (e, o) = scratch[..n].split_at_mut(ne);
    if SIGN > 0 {
        for i in 0..ne {
            e[i] = x[2 * i];
        }
        for i in 0..n / 2 {
            o[i] = x[2 * i + 1];
        }
        for &st in stages(kind, false) {
            int_step::<SIGN>(e, o, st);
        }
        x[..ne].copy_from_slice(e);
        x[ne..].copy_from_slice(o);
    } else {
        e.copy_from_slice(&x[..ne]);
        o.copy_from_slice(&x[ne..]);
        for &st in stages(kind, false).iter().rev() {
            int_step::<SIGN>(e, o, st);
        }
        for i in 0..ne {
            x[2 * i] = e[i];
        }
        for i in 0..n / 2 {
            x[2 * i + 1] = o[i];
        }
    }
}

/// [`int_1d`] over every level of a row-major `rows x cols` image in
/// place: forward, each level's rows then columns, finest first, the
/// `ceil(r/2) x ceil(c/2)` approximation corner recursing; inverse, the
/// exact reverse.
fn int_levels<const SIGN: i32>(
    data: &mut [i32],
    rows: usize,
    cols: usize,
    levels: usize,
    kind: LiftingKind,
) -> Result<()> {
    if levels == 0 {
        return Err(DwtError::ZeroLevels);
    }
    if data.len() != rows * cols {
        return Err(DwtError::DimensionMismatch {
            detail: format!("buffer of {} samples for a {rows}x{cols} image", data.len()),
        });
    }
    let mut dims: Vec<_> = std::iter::successors(Some((rows, cols)), |&(r, c)| {
        Some((r.div_ceil(2), c.div_ceil(2)))
    })
    .take(levels)
    .collect();
    if SIGN < 0 {
        dims.reverse();
    }
    let mut colbuf = vec![0i32; rows];
    let mut scratch = vec![0i32; rows.max(cols)];
    for (r, c) in dims {
        // Rows first forward, columns first inverse.
        for by_rows in [SIGN > 0, SIGN < 0] {
            if by_rows {
                for rr in 0..r {
                    int_1d::<SIGN>(&mut data[rr * cols..rr * cols + c], &mut scratch, kind);
                }
            } else {
                for cc in 0..c {
                    for rr in 0..r {
                        colbuf[rr] = data[rr * cols + cc];
                    }
                    int_1d::<SIGN>(&mut colbuf[..r], &mut scratch, kind);
                    for rr in 0..r {
                        data[rr * cols + cc] = colbuf[rr];
                    }
                }
            }
        }
    }
    Ok(())
}

/// In-place multi-level reversible integer lifting analysis of a
/// row-major `rows x cols` image. Each level packs `[S | D]` halves
/// (rows then columns); the `ceil(r/2) x ceil(c/2)` approximation
/// corner recurses. Any dimensions (odd included) round-trip exactly
/// through [`inverse_int`] — zero ULP, by construction.
pub fn forward_int(
    data: &mut [i32],
    rows: usize,
    cols: usize,
    levels: usize,
    kind: LiftingKind,
) -> Result<()> {
    int_levels::<1>(data, rows, cols, levels, kind)
}

/// Exact inverse of [`forward_int`].
pub fn inverse_int(
    data: &mut [i32],
    rows: usize,
    cols: usize,
    levels: usize,
    kind: LiftingKind,
) -> Result<()> {
    int_levels::<-1>(data, rows, cols, levels, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifting as oracle;
    use crate::matrix::Matrix;

    fn signal(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                ((x >> 33) % 1000) as f64 / 37.0 - 13.0
            })
            .collect()
    }

    fn image(r: usize, c: usize, salt: u64) -> Matrix {
        let data = signal(r * c, salt);
        Matrix::from_vec(r, c, data).unwrap()
    }

    const KINDS: [LiftingKind; 2] = [LiftingKind::Cdf97, LiftingKind::LeGall53];

    #[test]
    fn forward_1d_matches_oracle_bitwise() {
        for kind in KINDS {
            for n in [2usize, 4, 6, 10, 64, 130] {
                let x = signal(n, 7);
                let (oa, od) = oracle::forward_1d_oracle(&x, kind).unwrap();
                let mut a = vec![0.0; n / 2];
                let mut d = vec![0.0; n / 2];
                forward_1d_into(&x, kind, &mut a, &mut d).unwrap();
                assert_eq!(a, oa, "{kind:?} n={n} approx");
                assert_eq!(d, od, "{kind:?} n={n} detail");
            }
        }
    }

    #[test]
    fn inverse_1d_matches_oracle_bitwise() {
        for kind in KINDS {
            for n in [2usize, 4, 6, 10, 64, 130] {
                let a = signal(n / 2, 3);
                let d = signal(n / 2, 11);
                let want = oracle::inverse_1d_oracle(&a, &d, kind).unwrap();
                let mut got = vec![0.0; n];
                inverse_1d_into(&a, &d, kind, &mut got).unwrap();
                assert_eq!(got, want, "{kind:?} n={n}");
            }
        }
    }

    /// One level of analysis run as consecutive stripes ending at
    /// `ends`, each through its own staging buffer, the way separate
    /// lanes run it: `[ll, lh, hl, hh]`.
    fn forward_stripes(img: &Matrix, kind: LiftingKind, ends: &[usize]) -> [Vec<f64>; 4] {
        let (rows, cols) = (img.rows(), img.cols());
        let mut bands: [Vec<f64>; 4] = std::array::from_fn(|_| vec![0.0; rows * cols / 4]);
        let mut start = 0;
        for &end in ends {
            let at = start * cols / 2..end * cols / 2;
            let outs = bands.each_mut().map(|b| &mut b[at.clone()]);
            let mut buf = vec![0.0; staging_len(kind, cols)];
            forward_level(img.data(), rows, cols, kind, start..end, outs, &mut buf);
            start = end;
        }
        bands
    }

    /// [`forward_stripes`] for one level of synthesis: the image.
    fn inverse_stripes(
        ll: &Matrix,
        bands: &Subbands,
        kind: LiftingKind,
        ends: &[usize],
    ) -> Vec<f64> {
        let (rows, cols) = (2 * ll.rows(), 2 * ll.cols());
        let mut dst = vec![0.0; rows * cols];
        let mut start = 0;
        for &end in ends {
            let mut buf = vec![0.0; staging_len(kind, cols)];
            let out = &mut dst[2 * start * cols..2 * end * cols];
            inverse_level(
                ll.data(),
                bands,
                rows,
                cols,
                kind,
                start..end,
                out,
                &mut buf,
            );
            start = end;
        }
        dst
    }

    /// Every way to cut a level of `h` pairs into one, two or three
    /// stripes: edges on the wrap, next to it and away from it.
    fn cuts(h: usize) -> Vec<Vec<usize>> {
        let mut all = vec![vec![h]];
        for a in 1..h {
            all.push(vec![a, h]);
            all.extend((a + 1..h).map(|b| vec![a, b, h]));
        }
        all
    }

    #[test]
    fn stripes_match_the_oracle_bitwise_wherever_their_edges_fall() {
        // Heights from one pair (every halo pair a copy of it) up to 48
        // pairs, both schedules, both directions.
        for kind in KINDS {
            for rows in [2usize, 4, 6, 8, 10, 16, 24, 34, 48, 96] {
                let cols = 12;
                let img = image(rows, cols, 31);
                let (ll, bands) = oracle::analyze_step_oracle(&img, kind).unwrap();
                let want = [ll.data(), bands.lh.data(), bands.hl.data(), bands.hh.data()];
                let back = oracle::synthesize_step_oracle(&ll, &bands, kind).unwrap();
                for ends in cuts(rows / 2) {
                    let got = forward_stripes(&img, kind, &ends);
                    for ((name, g), w) in ["LL", "LH", "HL", "HH"].into_iter().zip(&got).zip(want) {
                        assert_eq!(g, w, "{kind:?} rows={rows} stripes={ends:?} {name}");
                    }
                    let got = inverse_stripes(&ll, &bands, kind, &ends);
                    assert_eq!(
                        got,
                        back.data(),
                        "{kind:?} rows={rows} stripes={ends:?} inverse"
                    );
                }
            }
        }
    }

    #[test]
    fn halo_and_ring_per_schedule() {
        // The figures the docs quote: a one-pair halo for 5/3 and two
        // for 9/7, both directions; `stages + 2` pairs live at once.
        for (kind, halo) in [(LiftingKind::LeGall53, 1), (LiftingKind::Cdf97, 2)] {
            for inverse in [false, true] {
                let st = stages(kind, inverse);
                let pipe = Pipeline::new(st);
                assert_eq!(pipe.halo, halo, "{kind:?} inverse={inverse}");
                assert_eq!(pipe.ring, st.len() + 2, "{kind:?} inverse={inverse}");
            }
        }
    }

    #[test]
    fn integer_round_trip_is_bitwise_including_odd_dims() {
        for kind in KINDS {
            for (r, c) in [(1usize, 7usize), (5, 1), (7, 7), (8, 9), (33, 17), (64, 64)] {
                let orig: Vec<i32> = (0..r * c)
                    .map(|i| {
                        let x = (i as u64)
                            .wrapping_mul(2862933555777941757)
                            .wrapping_add(17);
                        ((x >> 40) as i32 % 65536) - 32768
                    })
                    .collect();
                for levels in 1..=3 {
                    let mut data = orig.clone();
                    forward_int(&mut data, r, c, levels, kind).unwrap();
                    if (r > 1 || c > 1) && levels == 1 {
                        assert_ne!(data, orig, "{kind:?} {r}x{c}: transform is not identity");
                    }
                    inverse_int(&mut data, r, c, levels, kind).unwrap();
                    assert_eq!(data, orig, "{kind:?} {r}x{c} L{levels}");
                }
            }
        }
    }

    #[test]
    fn integer_entry_points_validate() {
        let mut d = vec![0i32; 12];
        assert!(forward_int(&mut d, 3, 4, 0, LiftingKind::LeGall53).is_err());
        assert!(forward_int(&mut d, 5, 4, 1, LiftingKind::LeGall53).is_err());
        assert!(inverse_int(&mut d, 3, 5, 1, LiftingKind::Cdf97).is_err());
    }

    #[test]
    fn lift_step_handles_remainders() {
        for n in 0..9usize {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
            let mut dst = vec![1.0; n];
            lift_step(&mut dst, &a, &b, 0.5);
            for i in 0..n {
                assert_eq!(dst[i], 1.0 + 0.5 * (a[i] + b[i]));
            }
        }
    }
}
