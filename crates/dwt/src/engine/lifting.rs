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
//! One level of either direction runs as a **single fused `sweep`**:
//!
//! * *fill* — analysis row-lifts each input row into a staging row
//!   packed as `[low | high]` halves; synthesis gathers the matching
//!   sub-band rows (any 9/7 scaling applied in the staging row);
//! * the column transform runs as a software pipeline over the staged
//!   rows: stage `k` of the predict/update schedule trails stage `k-1`
//!   by one row pair, so every row is touched while still cache-hot.
//!   The periodic wrap rows that a stage cannot process mid-stream
//!   (a *deferral set* derived per stage, see `Pipeline`) are
//!   finished in a short epilogue;
//! * *drain* — as soon as a row pair leaves the last stage it is
//!   scattered to the four sub-bands (analysis) or row-unlifted into
//!   the output image (synthesis).
//!
//! The working set is a dozen buffer rows regardless of image height —
//! the lifting analogue of the convolution engine's ring-buffer halo.
//! Interior loops go through [`lift_step`], a manually 4-way unrolled
//! `dst[i] += c · (a[i] + b[i])` over contiguous rows (vertical
//! vectorization); boundary wraps take the scalar prologue/epilogue.
//!
//! Per element the arithmetic is the *same sequence of operations* as
//! the (hidden) oracle in [`crate::lifting`], so results are
//! bit-identical; the property suite pins that.
//!
//! # Integer lifting
//!
//! [`forward_int`] / [`inverse_int`] implement the reversible
//! (rounded) integer transforms on `i32` samples: LeGall 5/3 with the
//! JPEG 2000 `>> 1` / `(· + 2) >> 2` floors, and a rounded 9/7 where
//! every step adds `floor(c · (a + b) + 1/2)` and the final `ζ` scaling
//! is omitted. Both use whole-sample symmetric extension, so **odd**
//! lengths round-trip exactly too.

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
/// lifting update. Manually unrolled 4-wide so the compiler keeps four
/// independent f64 lanes in flight; the remainder runs scalar.
#[inline]
pub fn lift_step(dst: &mut [f64], a: &[f64], b: &[f64], c: f64) {
    let n = dst.len();
    debug_assert!(a.len() >= n && b.len() >= n);
    let quads = n - n % 4;
    let mut i = 0usize;
    while i < quads {
        let a4 = &a[i..i + 4];
        let b4 = &b[i..i + 4];
        let d4 = &mut dst[i..i + 4];
        d4[0] += c * (a4[0] + b4[0]);
        d4[1] += c * (a4[1] + b4[1]);
        d4[2] += c * (a4[2] + b4[2]);
        d4[3] += c * (a4[3] + b4[3]);
        i += 4;
    }
    while i < n {
        dst[i] += c * (a[i] + b[i]);
        i += 1;
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

/// Row cap of the staging buffer: no schedule's [`Pipeline`] touches
/// more staging rows than this, whichever path a level takes (the
/// deepest, the 9/7 inverse, stages up to 38 rows plain and 26
/// blocked). [`sweep`] `debug_assert`s it and a unit test checks it
/// against every schedule.
const STAGING_ROW_CAP: usize = 40;

/// Staging-buffer length (in `f64`s) that covers both level paths of
/// every schedule for a `rows x cols` level.
pub(crate) fn staging_len(rows: usize, cols: usize) -> usize {
    rows.min(STAGING_ROW_CAP) * cols
}

/// Staging geometry of one schedule's [`sweep`] — the one place the
/// deferral table, the plain-path threshold and the blocked window are
/// computed.
///
/// Rows stream through the column stages top-down, so stage `k` cannot
/// process the first `p_k` and last `q_k` row pairs mid-sweep: those
/// positions read periodic-wrap neighbours that either have not been
/// produced yet or are themselves deferred in stage `k-1`. The
/// recurrence (`(p, q)` per stage, in schedule order):
///
/// * stage 0: `p = 1` if it is an update (its `j = 0` wraps onto the
///   *last* odd row, which has not streamed in yet), else `p = 0`;
///   `q = 0` (a predict's `j = h-1` wraps onto row 0, long available);
/// * an update inherits `(p+1, q)` — its `j = p` input `d[p-1]` is
///   deferred upstream;
/// * a predict inherits `p` and grows `q` by one (or to one, the first
///   time a wrap-onto-deferred-row appears).
///
/// Deferred positions run in the epilogue, in schedule order — by then
/// every upstream value is final and, because later stages defer
/// supersets, nothing downstream has overwritten an input.
struct Pipeline {
    /// Per-stage `(p, q)`; entries past the schedule stay `(0, 0)`.
    table: [(usize, usize); MAX_STAGES],
    /// The last stage's — the largest — `p` and `q`.
    maxp: usize,
    maxq: usize,
    /// Levels with fewer row pairs than this run plain per-stage passes
    /// over a whole-level staging buffer.
    plain_below: usize,
    /// Head pairs that persist for the epilogue (also the wrap target of
    /// in-sweep `j = h-1` predicts).
    stash: usize,
    /// Sliding window of in-flight pairs, sized past the deepest stage's
    /// reach plus the deferred tail.
    ring: usize,
}

impl Pipeline {
    fn new(stages: &[Stage]) -> Self {
        let mut table = [(0, 0); MAX_STAGES];
        let (mut p, mut q) = (0usize, 0usize);
        for (k, st) in stages.iter().enumerate() {
            match st.op {
                Op::Update => {
                    if k == 0 {
                        p = 1;
                    } else {
                        p += 1;
                    }
                }
                Op::Predict => {
                    if k > 0 {
                        if q > 0 {
                            q += 1;
                        } else if p > 0 {
                            q = 1;
                        }
                    }
                }
            }
            table[k] = (p, q);
        }
        Pipeline {
            table,
            maxp: p,
            maxq: q,
            plain_below: 2 * (stages.len() + p + q) + 4,
            stash: p + 1,
            ring: stages.len() + q + 4,
        }
    }

    /// Staging rows a level of `rows` rows touches.
    fn staging_rows(&self, rows: usize) -> usize {
        if rows / 2 < self.plain_below {
            rows
        } else {
            2 * (self.stash + self.ring)
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

/// Apply column stage `st` at row-pair index `j`: one [`lift_step`]
/// across the full row. `map` translates a logical row-pair index into
/// a staging-buffer slot (identity for the full buffer, a ring map for
/// the cache-blocked pipeline); pair `p` lives in rows
/// `2·map(p)`/`2·map(p)+1`.
fn col_stage(
    buf: &mut [f64],
    cols: usize,
    h: usize,
    st: Stage,
    j: usize,
    map: impl Fn(usize) -> usize,
) {
    match st.op {
        Op::Predict => {
            // d[j] += c · (s[j] + s[j+1]).
            let above = 2 * map(j);
            let below = 2 * map(if j + 1 == h { 0 } else { j + 1 });
            let (drow, s0, s1) = row3(buf, cols, 2 * map(j) + 1, above, below);
            lift_step(drow, s0, s1, st.c);
        }
        Op::Update => {
            // s[j] += c · (d[j-1] + d[j]).
            let above = 2 * map(if j == 0 { h - 1 } else { j - 1 }) + 1;
            let below = 2 * map(j) + 1;
            let (srow, d0, d1) = row3(buf, cols, 2 * map(j), above, below);
            lift_step(srow, d0, d1, st.c);
        }
    }
}

/// One level of either direction: `fill(buf, t, bt)` stages logical row
/// `t` into staging row `bt`, the column schedule `st` runs over the
/// staged rows, and `drain(buf, p, bp)` consumes finished row pair `p`
/// from staging slot `bp` (rows `2·bp`, `2·bp + 1`). Analysis fills by
/// row-lifting the image and drains by scattering to the sub-bands;
/// synthesis fills by gathering the sub-bands and drains by
/// row-unlifting into the image. Both closures are monomorphised.
///
/// Short levels run plain per-stage passes over a whole-level staging
/// buffer. Otherwise the level is one fused pipeline: the fill feeds the
/// column stages, each trailing the previous by one row pair, and a
/// pair drains as soon as it leaves the last stage; the positions the
/// [`Pipeline`] table postpones run in an epilogue.
///
/// `margin` widens the drain's own deferral past the stages' `(maxp,
/// maxq)`: a drain that *mutates* its staging rows (synthesis unlifts
/// them in place) must also wait for the epilogue stages, which still
/// read the neighbours of their deferred positions — pairs `maxp` and
/// `h - maxq - 1` — so it passes `1`; a read-only drain passes `0`.
fn sweep(
    rows: usize,
    cols: usize,
    st: &[Stage],
    buf: &mut [f64],
    margin: usize,
    mut fill: impl FnMut(&mut [f64], usize, usize),
    mut drain: impl FnMut(&mut [f64], usize, usize),
) {
    debug_assert!(rows >= 2 && rows.is_multiple_of(2) && cols >= 2 && cols.is_multiple_of(2));
    let h = rows / 2;
    let pipe = Pipeline::new(st);
    let staged = pipe.staging_rows(rows) * cols;
    debug_assert!(staged <= staging_len(rows, cols));
    let buf = &mut buf[..staged];

    if h < pipe.plain_below {
        // Short image: plain per-stage passes (identical arithmetic).
        for t in 0..rows {
            fill(buf, t, t);
        }
        for stage in st {
            for j in 0..h {
                col_stage(buf, cols, h, *stage, j, |p| p);
            }
        }
        for p in 0..h {
            drain(buf, p, p);
        }
        return;
    }

    // Cache-blocked staging: the pipeline only ever touches the head
    // pairs the epilogue will revisit (the stash) plus a sliding window
    // of in-flight pairs (the ring), so the staging rows stay
    // cache-resident instead of streaming a second `rows x cols` image
    // through memory.
    let (stash, ring) = (pipe.stash, pipe.ring);
    let map = |p: usize| {
        if p < stash {
            p
        } else {
            stash + (p - stash) % ring
        }
    };

    let nst = st.len();
    let (head, tail) = (pipe.maxp + margin, pipe.maxq + margin);
    let mut next_row = 0usize;
    for i in 0..h + nst - 1 {
        if i < h {
            // Stage 0 at pair i reaches rows 2i+1 (update) or 2i+2
            // (predict); its row-0 wrap is always available.
            let need = (2 * i + 2).min(rows - 1);
            while next_row <= need {
                fill(buf, next_row, 2 * map(next_row / 2) + next_row % 2);
                next_row += 1;
            }
        }
        for (k, (stage, &(p, q))) in st.iter().zip(&pipe.table).enumerate() {
            if i < k {
                break;
            }
            let j = i - k;
            if j >= p && j + q < h {
                col_stage(buf, cols, h, *stage, j, map);
            }
        }
        if i + 1 >= nst {
            let p = i + 1 - nst;
            if p >= head && p + tail < h {
                drain(buf, p, map(p));
            }
        }
    }
    // Epilogue: deferred wrap positions, in schedule order.
    for (stage, &(p, q)) in st.iter().zip(&pipe.table) {
        for j in (0..p).chain(h - q..h) {
            col_stage(buf, cols, h, *stage, j, map);
        }
    }
    for p in (0..head).chain(h - tail..h) {
        drain(buf, p, map(p));
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
    for (i, pair) in x.chunks_exact(2).enumerate() {
        e[i] = pair[0];
        o[i] = pair[1];
    }
    lift_halves(e, o, st);
    if let Some(z) = z {
        scale(e, z);
        unscale(o, z);
    }
}

/// Scatter finished staging pair (slot `bp`) into row `p` of the four
/// sub-bands, applying the column-pass 9/7 scaling.
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
    let s = &buf[2 * bp * cols..(2 * bp + 1) * cols];
    let d = &buf[(2 * bp + 1) * cols..(2 * bp + 2) * cols];
    let llr = &mut ll[p * c2..(p + 1) * c2];
    let hlr = &mut hl[p * c2..(p + 1) * c2];
    let lhr = &mut lh[p * c2..(p + 1) * c2];
    let hhr = &mut hh[p * c2..(p + 1) * c2];
    llr.copy_from_slice(&s[..c2]);
    hlr.copy_from_slice(&s[c2..]);
    lhr.copy_from_slice(&d[..c2]);
    hhr.copy_from_slice(&d[c2..]);
    if let Some(z) = z {
        scale(llr, z);
        scale(hlr, z);
        unscale(lhr, z);
        unscale(hhr, z);
    }
}

/// One level of fused lifting analysis: `src` (`rows x cols`) into the
/// four sub-band slices, staged through `buf` ([`staging_len`]
/// elements). Allocation-free; bit-identical to the oracle.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_level(
    src: &[f64],
    rows: usize,
    cols: usize,
    kind: LiftingKind,
    ll: &mut [f64],
    lh: &mut [f64],
    hl: &mut [f64],
    hh: &mut [f64],
    buf: &mut [f64],
) {
    debug_assert!(src.len() >= rows * cols);
    let st = stages(kind, false);
    let z = zeta(kind);
    sweep(
        rows,
        cols,
        st,
        buf,
        0,
        |buf, r, brow| row_lift(src, cols, r, brow, st, z, buf),
        |buf, p, bp| scatter_pair(buf, cols, bp, p, z, ll, lh, hl, hh),
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
    row[..c2].copy_from_slice(&left[at.clone()]);
    row[c2..].copy_from_slice(&right[at]);
    match z {
        Some(z) if even => unscale(row, z),
        Some(z) => scale(row, z),
        None => {}
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
    for i in 0..c2 {
        out[2 * i] = e[i];
        out[2 * i + 1] = o[i];
    }
}

/// One level of fused lifting synthesis: the four sub-bands
/// (`rows/2 x cols/2` each) into `dst` (`rows x cols`) — the same
/// [`sweep`] as [`forward_level`] with the inverse schedule: gathered
/// sub-band rows stream through the inverse column stages, and each
/// finished row is inverse-row-lifted straight into `dst`.
pub(crate) fn inverse_level(
    ll: &[f64],
    bands: &Subbands,
    rows: usize,
    cols: usize,
    kind: LiftingKind,
    dst: &mut [f64],
    buf: &mut [f64],
) {
    debug_assert!(dst.len() >= rows * cols);
    let st = stages(kind, true);
    let z = zeta(kind);
    let src = (ll, bands.lh.data(), bands.hl.data(), bands.hh.data());
    sweep(
        rows,
        cols,
        st,
        buf,
        1,
        |buf, t, bt| gather_row(src, cols, t, bt, z, buf),
        |buf, p, bp| {
            finalize_row(buf, cols, 2 * p, 2 * bp, st, z, dst);
            finalize_row(buf, cols, 2 * p + 1, 2 * bp + 1, st, z, dst);
        },
    );
}

// ---------------------------------------------------------------------
// Reversible integer lifting (JPEG 2000 style).
// ---------------------------------------------------------------------

/// `floor(v + 1/2)` as `i32` — the rounding of every 9/7 integer step.
#[inline]
fn iround(v: f64) -> i32 {
    (v + 0.5).floor() as i32
}

/// Whole-sample symmetric neighbour clamps: `e[min(i+1, ne-1)]` to the
/// right, `d[max(i-1, 0)]` / `d[min(i, no-1)]` around an update. These
/// make every length (odd included) exactly reversible.
fn fwd_int_1d(x: &mut [i32], scratch: &mut [i32], kind: LiftingKind) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let ne = n.div_ceil(2);
    let no = n / 2;
    let (e, o) = scratch[..n].split_at_mut(ne);
    for i in 0..ne {
        e[i] = x[2 * i];
    }
    for i in 0..no {
        o[i] = x[2 * i + 1];
    }
    match kind {
        LiftingKind::LeGall53 => {
            for i in 0..no {
                o[i] -= (e[i] + e[(i + 1).min(ne - 1)]) >> 1;
            }
            for i in 0..ne {
                o_update_53(e, o, no, i);
            }
        }
        LiftingKind::Cdf97 => {
            int_predict(e, o, ne, no, ALPHA);
            int_update(e, o, ne, no, BETA);
            int_predict(e, o, ne, no, GAMMA);
            int_update(e, o, ne, no, DELTA);
        }
    }
    x[..ne].copy_from_slice(e);
    x[ne..].copy_from_slice(o);
}

#[inline]
fn o_update_53(e: &mut [i32], o: &[i32], no: usize, i: usize) {
    let prev = o[i.saturating_sub(1)];
    let cur = o[i.min(no - 1)];
    e[i] += (prev + cur + 2) >> 2;
}

fn int_predict(e: &[i32], o: &mut [i32], ne: usize, no: usize, c: f64) {
    debug_assert!(no >= 1);
    for i in 0..no {
        let sum = e[i] + e[(i + 1).min(ne - 1)];
        o[i] += iround(c * sum as f64);
    }
}

fn int_update(e: &mut [i32], o: &[i32], _ne: usize, no: usize, c: f64) {
    for (i, ei) in e.iter_mut().enumerate() {
        let sum = o[i.saturating_sub(1)] + o[i.min(no - 1)];
        *ei += iround(c * sum as f64);
    }
}

fn inv_int_1d(x: &mut [i32], scratch: &mut [i32], kind: LiftingKind) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let ne = n.div_ceil(2);
    let no = n / 2;
    let (e, o) = scratch[..n].split_at_mut(ne);
    e.copy_from_slice(&x[..ne]);
    o.copy_from_slice(&x[ne..]);
    match kind {
        LiftingKind::LeGall53 => {
            for i in 0..ne {
                let prev = o[i.saturating_sub(1)];
                let cur = o[i.min(no - 1)];
                e[i] -= (prev + cur + 2) >> 2;
            }
            for i in 0..no {
                o[i] += (e[i] + e[(i + 1).min(ne - 1)]) >> 1;
            }
        }
        LiftingKind::Cdf97 => {
            int_undo_update(e, o, no, DELTA);
            int_undo_predict(e, o, ne, no, GAMMA);
            int_undo_update(e, o, no, BETA);
            int_undo_predict(e, o, ne, no, ALPHA);
        }
    }
    for i in 0..ne {
        x[2 * i] = e[i];
    }
    for i in 0..no {
        x[2 * i + 1] = o[i];
    }
}

fn int_undo_update(e: &mut [i32], o: &[i32], no: usize, c: f64) {
    for (i, ei) in e.iter_mut().enumerate() {
        let sum = o[i.saturating_sub(1)] + o[i.min(no - 1)];
        *ei -= iround(c * sum as f64);
    }
}

fn int_undo_predict(e: &[i32], o: &mut [i32], ne: usize, no: usize, c: f64) {
    for i in 0..no {
        let sum = e[i] + e[(i + 1).min(ne - 1)];
        o[i] -= iround(c * sum as f64);
    }
}

fn check_int_args(len: usize, rows: usize, cols: usize, levels: usize) -> Result<()> {
    if levels == 0 {
        return Err(DwtError::ZeroLevels);
    }
    if len != rows * cols {
        return Err(DwtError::DimensionMismatch {
            detail: format!("buffer of {len} samples for a {rows}x{cols} image"),
        });
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
    check_int_args(data.len(), rows, cols, levels)?;
    let mut colbuf = vec![0i32; rows];
    let mut scratch = vec![0i32; rows.max(cols)];
    let (mut r, mut c) = (rows, cols);
    for _ in 0..levels {
        for rr in 0..r {
            fwd_int_1d(&mut data[rr * cols..rr * cols + c], &mut scratch, kind);
        }
        for cc in 0..c {
            for rr in 0..r {
                colbuf[rr] = data[rr * cols + cc];
            }
            fwd_int_1d(&mut colbuf[..r], &mut scratch, kind);
            for rr in 0..r {
                data[rr * cols + cc] = colbuf[rr];
            }
        }
        r = r.div_ceil(2);
        c = c.div_ceil(2);
    }
    Ok(())
}

/// Exact inverse of [`forward_int`].
pub fn inverse_int(
    data: &mut [i32],
    rows: usize,
    cols: usize,
    levels: usize,
    kind: LiftingKind,
) -> Result<()> {
    check_int_args(data.len(), rows, cols, levels)?;
    let mut dims = Vec::with_capacity(levels);
    let (mut r, mut c) = (rows, cols);
    for _ in 0..levels {
        dims.push((r, c));
        r = r.div_ceil(2);
        c = c.div_ceil(2);
    }
    let mut colbuf = vec![0i32; rows];
    let mut scratch = vec![0i32; rows.max(cols)];
    for &(r, c) in dims.iter().rev() {
        for cc in 0..c {
            for rr in 0..r {
                colbuf[rr] = data[rr * cols + cc];
            }
            inv_int_1d(&mut colbuf[..r], &mut scratch, kind);
            for rr in 0..r {
                data[rr * cols + cc] = colbuf[rr];
            }
        }
        for rr in 0..r {
            inv_int_1d(&mut data[rr * cols..rr * cols + c], &mut scratch, kind);
        }
    }
    Ok(())
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

    #[test]
    fn fused_level_matches_oracle_across_heights() {
        // Covers the short-image path, the fused pipeline, and the
        // switchover, for both schedules.
        for kind in KINDS {
            for rows in [2usize, 4, 8, 16, 24, 32, 48, 64, 96] {
                let cols = 12;
                let img = image(rows, cols, 31);
                let (oll, obands) = oracle::analyze_step_oracle(&img, kind).unwrap();
                let (h, c2) = (rows / 2, cols / 2);
                let mut ll = vec![0.0; h * c2];
                let mut lh = vec![0.0; h * c2];
                let mut hl = vec![0.0; h * c2];
                let mut hh = vec![0.0; h * c2];
                let mut buf = vec![0.0; rows * cols];
                forward_level(
                    img.data(),
                    rows,
                    cols,
                    kind,
                    &mut ll,
                    &mut lh,
                    &mut hl,
                    &mut hh,
                    &mut buf,
                );
                assert_eq!(ll, oll.data(), "{kind:?} rows={rows} LL");
                assert_eq!(lh, obands.lh.data(), "{kind:?} rows={rows} LH");
                assert_eq!(hl, obands.hl.data(), "{kind:?} rows={rows} HL");
                assert_eq!(hh, obands.hh.data(), "{kind:?} rows={rows} HH");
            }
        }
    }

    #[test]
    fn fused_inverse_matches_oracle_across_heights() {
        for kind in KINDS {
            for rows in [2usize, 4, 8, 16, 32, 48, 96] {
                let cols = 8;
                let img = image(rows, cols, 5);
                let (ll, bands) = oracle::analyze_step_oracle(&img, kind).unwrap();
                let want = oracle::synthesize_step_oracle(&ll, &bands, kind).unwrap();
                let mut dst = vec![0.0; rows * cols];
                let mut buf = vec![0.0; rows * cols];
                inverse_level(ll.data(), &bands, rows, cols, kind, &mut dst, &mut buf);
                assert_eq!(dst, want.data(), "{kind:?} rows={rows}");
            }
        }
    }

    #[test]
    fn staging_row_cap_covers_every_schedule_on_both_paths() {
        // Heights up to 4x the cap reach the plain path, the switchover
        // and the (height-independent) blocked window of each schedule.
        let mut worst = 0;
        for kind in KINDS {
            for inverse in [false, true] {
                let pipe = Pipeline::new(stages(kind, inverse));
                for rows in (2..=4 * STAGING_ROW_CAP).step_by(2) {
                    let need = pipe.staging_rows(rows);
                    assert!(
                        need * 6 <= staging_len(rows, 6),
                        "{kind:?} inverse={inverse} rows={rows}: {need} staging rows"
                    );
                    worst = worst.max(need);
                }
            }
        }
        // The figure the cap's doc quotes: the 9/7 inverse, plain path.
        assert_eq!(worst, 38);
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
