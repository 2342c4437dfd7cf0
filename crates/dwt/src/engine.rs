//! Fused, cache-blocked 2-D DWT engine with reusable plans and
//! zero-allocation workspaces.
//!
//! # Why
//!
//! The paper's central observation is that wavelet throughput on real
//! machines is decided by **memory traffic and work partitioning**, not
//! FLOPs — its Paragon stripe algorithm exists precisely to keep filter
//! passes local to each node, shipping only a guard zone of
//! `filter_len - 2` rows between neighbours. The legacy separable path in
//! [`crate::dwt2d`] ignores that lesson on a single node: every level
//! materializes two full row-filtered intermediates, allocates fresh
//! matrices, and walks columns with a strided copy.
//!
//! This module is the shared-memory translation of the paper's guard-zone
//! design:
//!
//! * a [`DwtPlan`] precomputes everything the transform needs (validated
//!   geometry per level, tile/band width, thread-lane partitioning, the
//!   synthesis tap lists);
//! * a [`DwtWorkspace`] owns every scratch buffer (per thread lane, the
//!   analysis rings and one synthesis row, or the lifting staging
//!   window; the ping-pong approximation pair), so steady-state
//!   decomposition and reconstruction perform **zero allocations**;
//! * the analysis kernel **fuses** the row and column passes: the image is
//!   processed in column *bands* (cache-sized tiles), and within a band a
//!   ring buffer of `filter_len` row-filtered rows — the tile's *halo*,
//!   the exact analogue of the paper's guard zone — slides down the image.
//!   Each input row is row-filtered once into the ring; each output row is
//!   produced by a column filter over **contiguous output columns**
//!   (vertical vectorization), which LLVM auto-vectorizes without any
//!   `unsafe`;
//! * the synthesis kernel is the same sweep run backwards: each output row
//!   gathers its column taps from **contiguous coefficient rows** into
//!   one intermediate row and row-synthesizes it in the same visit — no
//!   strided column walk, no half-image intermediates.
//!
//! Every inner loop is **register-blocked**: a block of adjacent outputs
//! (columns in the column stages, row positions in the row stages) keeps
//! its accumulation chains in registers over all taps and stores each
//! element once, instead of streaming a partial sum through memory per
//! tap. The arithmetic performed per coefficient is still the *same
//! sequence of operations* as the separable reference, so results are
//! bit-identical — [`crate::dwt2d::decompose_separable`] and
//! [`crate::dwt2d::reconstruct_separable`] are kept (hidden) as the
//! test oracles.
//!
//! # Quickstart
//!
//! ```
//! use dwt::{engine::DwtPlan, matrix::Matrix, FilterBank, Boundary};
//!
//! let img = Matrix::from_fn(64, 64, |r, c| (r * c) as f64);
//! let bank = FilterBank::daubechies(4).unwrap();
//! let plan = DwtPlan::new(64, 64, bank, 3, Boundary::Periodic).unwrap();
//!
//! // Reusable state: allocate once, transform many frames.
//! let mut ws = plan.make_workspace();
//! let mut pyr = plan.make_pyramid();
//! plan.decompose_into(&img, &mut ws, &mut pyr).unwrap();
//!
//! let mut back = Matrix::zeros(64, 64);
//! plan.reconstruct_into(&pyr, &mut ws, &mut back).unwrap();
//! assert!(img.max_abs_diff(&back).unwrap() < 1e-9);
//! ```

use crate::boundary::Boundary;
use crate::conv;
use crate::dwt2d::validate_dims;
use crate::error::{DwtError, Result};
use crate::filters::FilterBank;
use crate::lifting::LiftingKind;
use crate::matrix::Matrix;
use crate::pyramid::{Pyramid, Subbands};
use std::ops::Range;

pub mod lifting;

/// Default band (tile) width in output columns. 256 output columns keep
/// the ring working set — `2 rings × filter_len rows × 8 B` — inside L1
/// for every built-in filter while leaving room for the input rows
/// streaming through L2.
pub const DEFAULT_BAND_WIDTH: usize = 256;

/// Low-level vector loops for the machine-simulation crate
/// (`dwt-mimd`), whose per-rank filter passes run through them; the
/// engine's own register-blocked sweeps do not use them.
pub mod kernel {
    /// `dst[i] += t · src[i]` over contiguous slices — the vertical
    /// column-filter update. Auto-vectorizes.
    #[inline]
    pub fn axpy(dst: &mut [f64], src: &[f64], t: f64) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += t * s;
        }
    }

    /// `dst[i] += ta · a[i] + tb · b[i]` — the synthesis pair update.
    #[inline]
    pub fn axpy_pair(dst: &mut [f64], a: &[f64], b: &[f64], ta: f64, tb: f64) {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d += ta * x + tb * y;
        }
    }

    /// The four-way column-filter update of one tap: the low/high
    /// intermediate rows `lrow`/`hrow` contribute to all four sub-band
    /// rows at once.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_quad(
        ll: &mut [f64],
        lh: &mut [f64],
        hl: &mut [f64],
        hh: &mut [f64],
        lrow: &[f64],
        hrow: &[f64],
        tl: f64,
        th: f64,
    ) {
        axpy(ll, lrow, tl);
        axpy(lh, lrow, th);
        axpy(hl, hrow, tl);
        axpy(hh, hrow, th);
    }
}

/// Which arithmetic a plan executes. Selected per filter bank at plan
/// construction: the CDF biorthogonal banks carry a lifting
/// factorization and run through the fused [`lifting`] kernel (about
/// half the work of convolution); every orthonormal bank runs the
/// convolution kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Fused ring-buffer convolution (any [`Boundary`]).
    Convolution,
    /// Fused predict/update lifting sweep ([`Boundary::Periodic`] only).
    Lifting(LiftingKind),
}

/// Geometry of one decomposition level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LevelDims {
    rows_in: usize,
    cols_in: usize,
}

impl LevelDims {
    #[inline]
    fn rows_out(&self) -> usize {
        self.rows_in / 2
    }
    #[inline]
    fn cols_out(&self) -> usize {
        self.cols_in / 2
    }
}

/// Cheap, hashable identity of the geometry and arithmetic a [`DwtPlan`]
/// serves. Two plans with equal shapes produce bit-identical outputs for
/// the same input, so a shape is a sound cache key for plan/workspace
/// reuse (the serving layer's plan cache keys on this).
///
/// Filter identity is captured by the bank's name *and* the exact bit
/// patterns of its low-pass taps, so two distinct banks that happen to
/// share a name can never alias in a cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanShape {
    /// Image rows.
    pub rows: usize,
    /// Image columns.
    pub cols: usize,
    /// Decomposition depth.
    pub levels: usize,
    /// Boundary extension policy.
    pub mode: Boundary,
    /// Filter bank name (e.g. `"db4"`).
    pub filter: String,
    /// Exact low-pass taps as IEEE-754 bit patterns.
    filter_bits: Vec<u64>,
}

impl PlanShape {
    /// The shape a plan built from these parameters would have. Does not
    /// validate the geometry — [`DwtPlan::new`] still decides whether a
    /// plan for this shape can exist.
    pub fn new(rows: usize, cols: usize, bank: &FilterBank, levels: usize, mode: Boundary) -> Self {
        PlanShape {
            rows,
            cols,
            levels,
            mode,
            filter: bank.name().to_string(),
            filter_bits: bank.low().iter().map(|t| t.to_bits()).collect(),
        }
    }

    /// Total coefficients one decomposition of this shape produces
    /// (equal to `rows * cols`); the natural unit for per-request cost
    /// models and batch accounting.
    pub fn coeffs(&self) -> usize {
        self.rows * self.cols
    }

    /// Filter length in taps.
    pub fn filter_len(&self) -> usize {
        self.filter_bits.len()
    }
}

/// A reusable, pre-validated plan for multi-level 2-D decomposition and
/// reconstruction of images of one fixed geometry.
///
/// Building the plan performs all validation and sizing once; executing
/// it through [`DwtPlan::decompose_into`] / [`DwtPlan::reconstruct_into`]
/// with a [`DwtWorkspace`] allocates nothing.
#[derive(Debug, Clone)]
pub struct DwtPlan {
    rows: usize,
    cols: usize,
    levels: usize,
    bank: FilterBank,
    mode: Boundary,
    band_width: usize,
    threads: usize,
    kernel: KernelKind,
    level_dims: Vec<LevelDims>,
    /// Per-level synthesis tap tables (convolution plans only): one over
    /// the level's rows for the column pass, one over its columns for the
    /// row pass.
    synth_taps: Vec<[SynthTaps; 2]>,
}

/// Lifting needs every level's dimensions even and at least 2, but has
/// no minimum-length-vs-filter constraint: the periodic predict/update
/// wraps are well defined for any half length.
fn validate_dims_lifting(rows: usize, cols: usize, levels: usize) -> Result<()> {
    if levels == 0 {
        return Err(DwtError::ZeroLevels);
    }
    let (mut r, mut c) = (rows, cols);
    for level in 1..=levels {
        if r < 2 || r % 2 != 0 {
            return Err(DwtError::OddLength { len: r, level });
        }
        if c < 2 || c % 2 != 0 {
            return Err(DwtError::OddLength { len: c, level });
        }
        r /= 2;
        c /= 2;
    }
    Ok(())
}

impl DwtPlan {
    /// Validate the geometry and build a single-threaded plan. Banks
    /// with a lifting factorization ([`FilterBank::lifting_kind`])
    /// select the fused lifting kernel, which supports
    /// [`Boundary::Periodic`] only.
    pub fn new(
        rows: usize,
        cols: usize,
        bank: FilterBank,
        levels: usize,
        mode: Boundary,
    ) -> Result<Self> {
        let kernel = match bank.lifting_kind() {
            Some(kind) => {
                if mode != Boundary::Periodic {
                    return Err(DwtError::UnsupportedBoundary {
                        detail: format!(
                            "lifting bank {} supports Periodic only, got {mode:?}",
                            bank.name()
                        ),
                    });
                }
                validate_dims_lifting(rows, cols, levels)?;
                KernelKind::Lifting(kind)
            }
            None => {
                validate_dims(rows, cols, bank.len(), levels)?;
                KernelKind::Convolution
            }
        };
        let mut level_dims = Vec::with_capacity(levels);
        let (mut r, mut c) = (rows, cols);
        for _ in 0..levels {
            level_dims.push(LevelDims {
                rows_in: r,
                cols_in: c,
            });
            r /= 2;
            c /= 2;
        }
        let synth_taps = match kernel {
            KernelKind::Convolution => level_dims
                .iter()
                .map(|d| {
                    [d.rows_out(), d.cols_out()].map(|len| SynthTaps::new(len, bank.len(), mode))
                })
                .collect(),
            KernelKind::Lifting(_) => Vec::new(),
        };
        Ok(DwtPlan {
            rows,
            cols,
            levels,
            bank,
            mode,
            band_width: DEFAULT_BAND_WIDTH,
            threads: 1,
            kernel,
            level_dims,
            synth_taps,
        })
    }

    /// Use up to `threads` worker lanes (clamped to at least 1). Lane
    /// workspaces are sized when the [`DwtWorkspace`] is created, so set
    /// this before calling [`DwtPlan::make_workspace`].
    ///
    /// Every level of both kernels, in both directions, splits its
    /// sub-band rows into contiguous stripes, one per lane, each lane on
    /// its own scoped thread (the caller runs the last). A level uses
    /// fewer lanes when it has too few rows to give each one a
    /// worthwhile stripe, so small images and coarse levels run on the
    /// calling thread whatever this says. Results are bit-identical for
    /// every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Override the band (tile) width in output columns. Values are
    /// clamped to at least the filter length and at least 8.
    pub fn with_band_width(mut self, width: usize) -> Self {
        self.band_width = width.max(self.bank.len()).max(8);
        self
    }

    /// Image rows the plan was built for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Image columns the plan was built for.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Decomposition depth.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Boundary policy.
    pub fn mode(&self) -> Boundary {
        self.mode
    }

    /// The filter bank.
    pub fn bank(&self) -> &FilterBank {
        &self.bank
    }

    /// Worker-lane count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Which kernel this plan executes.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The plan's cache key. Tuning knobs ([`DwtPlan::with_threads`],
    /// [`DwtPlan::with_band_width`]) are deliberately excluded: they
    /// change execution strategy, not results, and a cache should not
    /// fragment on them.
    pub fn shape(&self) -> PlanShape {
        PlanShape::new(self.rows, self.cols, &self.bank, self.levels, self.mode)
    }

    /// Band width actually used at the finest level.
    fn effective_band_width(&self) -> usize {
        self.band_width.min(self.cols / 2).max(1)
    }

    /// Rows per ring buffer: the column filter's window.
    fn ring_rows(&self) -> usize {
        self.bank.len().max(2)
    }

    /// What a workspace for this plan is sized by: one lane of scratch
    /// per thread, whichever the kernel — every path stripes.
    fn workspace_geometry(&self) -> WorkspaceGeometry {
        WorkspaceGeometry {
            rows: self.rows,
            cols: self.cols,
            filter_len: self.bank.len(),
            kernel: self.kernel,
            lanes: self.threads,
            band_width: self.effective_band_width(),
        }
    }

    /// Allocate the workspace holding every scratch buffer the plan's
    /// execution needs. Reuse it across calls for zero steady-state
    /// allocations.
    pub fn make_workspace(&self) -> DwtWorkspace {
        let built_for = self.workspace_geometry();
        // Ping-pong LL buffers. Decomposition alternates shrinking levels
        // between them, but reconstruction grows the approximation back up
        // through the same pair, so both must hold the largest
        // intermediate: the level-1 LL of rows/2 x cols/2.
        let ll_elems = (self.rows / 2) * (self.cols / 2);
        let (ring_elems, row_elems) = match self.kernel {
            KernelKind::Lifting(kind) => (0, lifting::staging_len(kind, self.cols)),
            KernelKind::Convolution => (self.ring_rows() * built_for.band_width, self.cols),
        };
        DwtWorkspace {
            built_for,
            lanes: (0..built_for.lanes)
                .map(|_| LaneBuf {
                    low_ring: vec![0.0; ring_elems],
                    high_ring: vec![0.0; ring_elems],
                    rows: vec![0.0; row_elems],
                })
                .collect(),
            ll_a: vec![0.0; ll_elems],
            ll_b: vec![0.0; ll_elems],
        }
    }

    /// Allocate a pyramid with the shapes this plan produces.
    pub fn make_pyramid(&self) -> Pyramid {
        Pyramid::zeros(self.rows, self.cols, self.levels)
            .expect("plan geometry validated at construction")
    }

    /// Check that `img` matches the planned geometry.
    fn check_image(&self, img: &Matrix) -> Result<()> {
        if img.rows() != self.rows || img.cols() != self.cols {
            return Err(DwtError::DimensionMismatch {
                detail: format!(
                    "plan is for {}x{} images but got {}x{}",
                    self.rows,
                    self.cols,
                    img.rows(),
                    img.cols()
                ),
            });
        }
        Ok(())
    }

    /// Check that `ws` was created by a plan of identical geometry.
    /// Compared exactly: two geometries can agree on every buffer
    /// *length* (100x1024 and 200x512 do) and still index differently.
    fn check_workspace(&self, ws: &DwtWorkspace) -> Result<()> {
        if ws.built_for != self.workspace_geometry() {
            return Err(DwtError::DimensionMismatch {
                detail: "workspace was built by a plan with different geometry".to_string(),
            });
        }
        Ok(())
    }

    /// Check that `pyr` has the shapes [`DwtPlan::make_pyramid`] creates:
    /// the check [`DwtPlan::decompose_into`] runs on its output, for a
    /// caller deciding whether storage it holds can be decomposed into.
    pub fn check_pyramid(&self, pyr: &Pyramid) -> Result<()> {
        let ok =
            pyr.levels() == self.levels
                && pyr.approx.rows() == self.rows >> self.levels
                && pyr.approx.cols() == self.cols >> self.levels
                && pyr.detail.iter().enumerate().all(|(i, b)| {
                    b.rows() == self.rows >> (i + 1) && b.cols() == self.cols >> (i + 1)
                });
        if !ok {
            return Err(DwtError::DimensionMismatch {
                detail: format!(
                    "pyramid shapes do not match a {}-level plan for {}x{} images",
                    self.levels, self.rows, self.cols
                ),
            });
        }
        Ok(())
    }

    /// Full multi-level decomposition into preallocated storage.
    /// Performs no heap allocation on one lane (a level striped across
    /// several spawns scoped threads).
    pub fn decompose_into(
        &self,
        img: &Matrix,
        ws: &mut DwtWorkspace,
        out: &mut Pyramid,
    ) -> Result<()> {
        self.check_image(img)?;
        self.check_workspace(ws)?;
        self.check_pyramid(out)?;
        for level in 0..self.levels {
            let dims = self.level_dims[level];
            let (prev, next) = ping_pong(&mut ws.ll_a, &mut ws.ll_b, level);
            let src = if level == 0 {
                img.data()
            } else {
                &prev[..dims.rows_in * dims.cols_in]
            };
            let ll_dst = if level + 1 == self.levels {
                out.approx.data_mut()
            } else {
                &mut next[..dims.rows_out() * dims.cols_out()]
            };
            let (lh, hl, hh) = out.detail[level].split_mut();
            let outs = [ll_dst, lh.data_mut(), hl.data_mut(), hh.data_mut()];
            let lanes = &mut ws.lanes;
            match self.kernel {
                KernelKind::Lifting(kind) => {
                    stripe(dims.rows_out(), outs, lanes, |pairs, outs, lane| {
                        lifting::forward_level(
                            src,
                            dims.rows_in,
                            dims.cols_in,
                            kind,
                            pairs,
                            outs,
                            &mut lane.rows,
                        )
                    })
                }
                KernelKind::Convolution => stripe(dims.rows_out(), outs, lanes, |k, outs, lane| {
                    fused_band_sweep(
                        src,
                        dims,
                        &self.bank,
                        self.mode,
                        k,
                        outs,
                        lane,
                        self.ring_rows(),
                        self.effective_band_width(),
                    )
                }),
            }
        }
        Ok(())
    }

    /// Convenience wrapper allocating the workspace and pyramid.
    pub fn decompose(&self, img: &Matrix) -> Result<Pyramid> {
        let mut ws = self.make_workspace();
        let mut out = self.make_pyramid();
        self.decompose_into(img, &mut ws, &mut out)?;
        Ok(out)
    }

    /// Full multi-level reconstruction into a preallocated image.
    /// Allocates no more than [`DwtPlan::decompose_into`]; exact inverse
    /// of it for [`Boundary::Periodic`].
    pub fn reconstruct_into(
        &self,
        pyr: &Pyramid,
        ws: &mut DwtWorkspace,
        out: &mut Matrix,
    ) -> Result<()> {
        self.check_pyramid(pyr)?;
        self.check_workspace(ws)?;
        self.check_image(out)?;
        // Walk coarsest -> finest, ping-ponging the growing approximation
        // between the workspace LL buffers; the last step writes `out`.
        for (step, level) in (0..self.levels).rev().enumerate() {
            let dims = self.level_dims[level];
            let (prev, next) = ping_pong(&mut ws.ll_a, &mut ws.ll_b, step);
            let ll = if step == 0 {
                pyr.approx.data()
            } else {
                &prev[..dims.rows_out() * dims.cols_out()]
            };
            let dst = if level == 0 {
                out.data_mut()
            } else {
                &mut next[..dims.rows_in * dims.cols_in]
            };
            let bands = &pyr.detail[level];
            let lanes = &mut ws.lanes;
            match self.kernel {
                KernelKind::Lifting(kind) => {
                    stripe(dims.rows_out(), [dst], lanes, |pairs, [dst], lane| {
                        lifting::inverse_level(
                            ll,
                            bands,
                            dims.rows_in,
                            dims.cols_in,
                            kind,
                            pairs,
                            dst,
                            &mut lane.rows,
                        )
                    })
                }
                KernelKind::Convolution => {
                    stripe(dims.rows_out(), [dst], lanes, |k, [dst], lane| {
                        self.synthesize_rows(level, ll, bands, 2 * k.start, dst, &mut lane.rows)
                    })
                }
            }
        }
        Ok(())
    }

    /// The fused synthesis kernel — [`fused_band_sweep`] run backwards.
    /// Each output row of `level`, from row `first` on, is produced in
    /// one visit: the column synthesis gathers the row's [`SynthTaps`]
    /// from contiguous coefficient rows into the `[low | high]`
    /// intermediate row `scratch`, a block of adjacent columns at a time,
    /// and [`synthesize_row`] gathers that row straight into `dst`. Per
    /// element that is the accumulation chain of the separable
    /// reference's scatter — low-filter taps of `LL` (`HL`), then
    /// high-filter taps of `LH` (`HH`), `(k, m)` ascending, from `+0.0` —
    /// so results are bit-identical. The reference skips zero
    /// coefficients; adding their `±0.0` products is the same, because an
    /// accumulator that starts at `+0.0` never becomes `-0.0`. A stripe
    /// needs no halo: every row reads whole coefficient rows only.
    fn synthesize_rows(
        &self,
        level: usize,
        ll: &[f64],
        bands: &Subbands,
        first: usize,
        dst: &mut [f64],
        scratch: &mut [f64],
    ) {
        let c = self.level_dims[level].cols_out();
        let [row_taps, col_taps] = &self.synth_taps[level];
        let (low, high) = (self.bank.low(), self.bank.high());
        let coeffs = [ll, bands.lh.data(), bands.hl.data(), bands.hh.data()];
        let (low_row, high_row) = scratch[..2 * c].split_at_mut(c);
        for (i, drow) in (first..).zip(dst.chunks_exact_mut(2 * c)) {
            let pairs = row_taps.of(i);
            let mut x = 0;
            while x + PAIR_BLOCK <= c {
                synth_column_block::<PAIR_BLOCK>(pairs, low, high, coeffs, c, x, low_row, high_row);
                x += PAIR_BLOCK;
            }
            for x in x..c {
                synth_column_block::<1>(pairs, low, high, coeffs, c, x, low_row, high_row);
            }
            synthesize_row(low_row, high_row, low, high, col_taps, drow);
        }
    }

    /// Convenience wrapper allocating the workspace and output image.
    pub fn reconstruct(&self, pyr: &Pyramid) -> Result<Matrix> {
        let mut ws = self.make_workspace();
        let mut out = Matrix::zeros(self.rows, self.cols);
        self.reconstruct_into(pyr, &mut ws, &mut out)?;
        Ok(out)
    }
}

/// One thread lane's scratch. Convolution plans: the ring buffers
/// holding `ring_rows` row-filtered intermediate rows of one band (the
/// tile halo) and the synthesis sweep's `[low | high]` intermediate row
/// (`cols` elements). Lifting plans: the staging window
/// ([`lifting::staging_len`] elements) and no rings.
#[derive(Debug, Clone)]
struct LaneBuf {
    low_ring: Vec<f64>,
    high_ring: Vec<f64>,
    rows: Vec<f64>,
}

/// The geometry a [`DwtWorkspace`] was sized for. A plan accepts only a
/// workspace whose record equals its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkspaceGeometry {
    rows: usize,
    cols: usize,
    filter_len: usize,
    kernel: KernelKind,
    lanes: usize,
    band_width: usize,
}

/// All scratch storage for executing a [`DwtPlan`]. Create once with
/// [`DwtPlan::make_workspace`], reuse for every frame.
#[derive(Debug, Clone)]
pub struct DwtWorkspace {
    built_for: WorkspaceGeometry,
    /// One per thread lane.
    lanes: Vec<LaneBuf>,
    ll_a: Vec<f64>,
    ll_b: Vec<f64>,
}

/// Fewest sub-band rows a lane is given: a level of `rows` rows runs on
/// at most `rows / MIN_STRIPE_ROWS` lanes, so one shorter than
/// `2 · MIN_STRIPE_ROWS` runs on the calling thread alone. Chosen on the
/// two-core host of `BENCH_dwt.json` by timing one periodic level of a
/// square image with this clamp at 1, median µs one lane → two: a lane
/// costs ~27 µs to start and join (32², D4 3.6 → 30.4); at 128² (64
/// rows, 32 a lane) two lanes still lose for every bank (D4 43.8 → 51.0,
/// CDF 5/3 22.6 → 39.3, CDF 9/7 48.5 → 52.7, reconstruction alike); at
/// 256² (128 rows, 64 a lane) every bank wins in both directions (D4
/// 170 → 118, CDF 5/3 96.5 → 84.3, CDF 9/7 228 → 151).
const MIN_STRIPE_ROWS: usize = 64;

/// The one striping driver, shared by both kernels in both directions.
/// Splits a level's `rows` sub-band rows into contiguous stripes, one
/// per lane used, hands each stripe its rows of every slice in `outs`
/// (each `rows` equal rows long) and its lane's scratch, and runs
/// `work` on them: the last stripe on the calling thread, the others on
/// scoped threads — the shared-memory analogue of the paper's row-stripe
/// distribution. Stripes share nothing writable; each re-derives the
/// halo rows it reads.
fn stripe<const N: usize>(
    rows: usize,
    mut outs: [&mut [f64]; N],
    lanes: &mut [LaneBuf],
    work: impl Fn(Range<usize>, [&mut [f64]; N], &mut LaneBuf) + Sync,
) {
    let used = lanes.len().min(rows / MIN_STRIPE_ROWS).max(1);
    if used == 1 {
        // No scope either: it allocates, and one lane must not.
        return work(0..rows, outs, &mut lanes[0]);
    }
    let work = &work;
    std::thread::scope(|s| {
        let mut start = 0;
        for (lane, buf) in lanes[..used].iter_mut().enumerate() {
            let take = rows / used + usize::from(lane < rows % used);
            let left = rows - start;
            let mine = outs.each_mut().map(|rest| {
                let at = rest.len() / left * take;
                let (head, tail) = std::mem::take(rest).split_at_mut(at);
                *rest = tail;
                head
            });
            let range = start..start + take;
            start += take;
            if lane + 1 == used {
                work(range, mine, buf);
            } else {
                s.spawn(move || work(range, mine, buf));
            }
        }
    });
}

/// Buffers of step `step` of a level walk through the ping-pong pair:
/// `(the previous step's output, this step's output)`. Step 0 has no
/// previous output — its caller reads the walk's own input instead.
fn ping_pong<'a>(a: &'a mut [f64], b: &'a mut [f64], step: usize) -> (&'a [f64], &'a mut [f64]) {
    if step.is_multiple_of(2) {
        (b, a)
    } else {
        (a, b)
    }
}

/// Row-filter input row `x` with both filters over output columns
/// `[c0, c0 + w)`, writing into `lo`/`hi` (length `w`).
/// The interior region is branch-free; only windows crossing the image
/// edge consult the boundary policy.
#[inline]
fn row_filter_band(
    x: &[f64],
    bank: &FilterBank,
    mode: Boundary,
    c0: usize,
    w: usize,
    lo: &mut [f64],
    hi: &mut [f64],
) {
    let n = x.len();
    let (low, high) = (bank.low(), bank.high());
    let interior_end = conv::interior_outputs(n, low.len(), n / 2).clamp(c0, c0 + w);
    let mut j = c0;
    while j + PAIR_BLOCK <= interior_end {
        row_filter_block::<PAIR_BLOCK>(x, low, high, j, &mut lo[j - c0..], &mut hi[j - c0..]);
        j += PAIR_BLOCK;
    }
    for j in j..interior_end {
        row_filter_block::<1>(x, low, high, j, &mut lo[j - c0..], &mut hi[j - c0..]);
    }
    for j in interior_end..c0 + w {
        let base = 2 * j;
        let mut accl = 0.0;
        let mut acch = 0.0;
        for (m, (&tl, &th)) in low.iter().zip(high).enumerate() {
            if let Some(idx) = mode.map((base + m) as isize, n) {
                accl += tl * x[idx];
                acch += th * x[idx];
            }
        }
        lo[j - c0] = accl;
        hi[j - c0] = acch;
    }
}

/// Adjacent outputs per register block where two chains run side by
/// side: the row filter (low, high), the synthesis column stage (low,
/// high rows) and the synthesis row gather (even, odd columns).
const PAIR_BLOCK: usize = 8;

/// Adjacent columns per register block of the analysis column stage,
/// which runs four chains (`LL`, `LH`, `HL`, `HH`) side by side.
const QUAD_BLOCK: usize = 4;

/// Row-filter interior outputs `j .. j + B` (every window inside `x`)
/// into the heads of `low_out`/`high_out`. Each output is one chain from
/// `+0.0`, taps ascending, held in registers and stored once.
#[inline(always)]
fn row_filter_block<const B: usize>(
    x: &[f64],
    low: &[f64],
    high: &[f64],
    j: usize,
    low_out: &mut [f64],
    high_out: &mut [f64],
) {
    let mut accl = [0.0; B];
    let mut acch = [0.0; B];
    for (m, (&tl, &th)) in low.iter().zip(high).enumerate() {
        // Sample `2(j + b) + m` of `x` for every lane `b`.
        let window = &x[2 * j + m..][..2 * B - 1];
        for b in 0..B {
            accl[b] += tl * window[2 * b];
            acch[b] += th * window[2 * b];
        }
    }
    low_out[..B].copy_from_slice(&accl);
    high_out[..B].copy_from_slice(&acch);
}

/// Compute the ring slot for intermediate row `t`, filling it with the
/// row-filtered band of input row `mode.map(t)` (or zeros when the
/// boundary maps it outside the signal).
#[allow(clippy::too_many_arguments)]
#[inline]
fn fill_ring_row(
    src: &[f64],
    dims: LevelDims,
    bank: &FilterBank,
    mode: Boundary,
    t: usize,
    c0: usize,
    w: usize,
    buf: &mut LaneBuf,
    ring_rows: usize,
) {
    let slot = (t % ring_rows) * w;
    let low_slot = &mut buf.low_ring[slot..slot + w];
    let high_slot = &mut buf.high_ring[slot..slot + w];
    match mode.map(t as isize, dims.rows_in) {
        Some(i) => {
            let x_row = &src[i * dims.cols_in..(i + 1) * dims.cols_in];
            row_filter_band(x_row, bank, mode, c0, w, low_slot, high_slot);
        }
        None => {
            low_slot.fill(0.0);
            high_slot.fill(0.0);
        }
    }
}

/// The fused analysis kernel: for output rows `k_range` of one level
/// (the stripe's rows of `[ll, lh, hl, hh]`), sweep the image in column
/// bands. Within a band, a ring buffer of
/// `ring_rows` row-filtered rows (the halo) slides down the image; each
/// output row is produced by a column filter whose inner loop runs over
/// contiguous output columns.
#[allow(clippy::too_many_arguments)]
fn fused_band_sweep(
    src: &[f64],
    dims: LevelDims,
    bank: &FilterBank,
    mode: Boundary,
    k_range: Range<usize>,
    mut bands: [&mut [f64]; 4],
    buf: &mut LaneBuf,
    ring_rows: usize,
    band_width: usize,
) {
    let cols_out = dims.cols_out();
    let (low, high) = (bank.low(), bank.high());
    let flen = low.len();
    let k0 = k_range.start;
    let mut c0 = 0usize;
    while c0 < cols_out {
        let w = band_width.min(cols_out - c0);
        // Prime the halo for the first output row of this stripe.
        for t in 2 * k0..2 * k0 + flen {
            fill_ring_row(src, dims, bank, mode, t, c0, w, buf, ring_rows);
        }
        for k in k_range.clone() {
            if k > k0 {
                // Slide the window: two fresh intermediate rows replace
                // the two evicted ones.
                for t in [2 * k + flen - 2, 2 * k + flen - 1] {
                    fill_ring_row(src, dims, bank, mode, t, c0, w, buf, ring_rows);
                }
            }
            // Column filter over blocks of adjacent columns: tap `m`
            // reads ring row `2k + m`, whose slot is `(2k + m) mod
            // ring_rows` (`ring_rows == flen`, so one subtraction wraps).
            let o = (k - k0) * cols_out + c0;
            let mut outs = bands.each_mut().map(|band| &mut band[o..o + w]);
            let first = 2 * k % ring_rows;
            let taps = || {
                (first..).zip(low.iter().zip(high)).map(|(s, (&tl, &th))| {
                    let slot = if s < ring_rows { s } else { s - ring_rows };
                    (slot * w, tl, th)
                })
            };
            let rings = [&buf.low_ring[..], &buf.high_ring[..]];
            let mut x = 0;
            while x + QUAD_BLOCK <= w {
                column_block::<QUAD_BLOCK>(rings, taps(), x, &mut outs);
                x += QUAD_BLOCK;
            }
            for x in x..w {
                column_block::<1>(rings, taps(), x, &mut outs);
            }
        }
        c0 += w;
    }
}

/// Column-filter columns `x .. x + B` of one output row of the four
/// sub-bands (`outs`, `[ll, lh, hl, hh]`) from the band's `[low, high]`
/// rings.
/// `taps` yields `(ring offset, low tap, high tap)` per tap, ascending.
/// Each element is one chain from `+0.0`, held in registers and stored
/// once: the separable reference's column chain (a zero ring row, where
/// the boundary drops a tap, adds a `±0.0` product, which cannot change a
/// chain that starts at `+0.0`).
#[inline(always)]
fn column_block<const B: usize>(
    [low_ring, high_ring]: [&[f64]; 2],
    taps: impl Iterator<Item = (usize, f64, f64)>,
    x: usize,
    outs: &mut [&mut [f64]; 4],
) {
    let mut acc = [[0.0; B]; 4];
    for (slot, tl, th) in taps {
        let lrow: &[f64; B] = low_ring[slot + x..][..B].try_into().unwrap();
        let hrow: &[f64; B] = high_ring[slot + x..][..B].try_into().unwrap();
        for b in 0..B {
            acc[0][b] += tl * lrow[b];
            acc[1][b] += th * lrow[b];
            acc[2][b] += tl * hrow[b];
            acc[3][b] += th * hrow[b];
        }
    }
    for (band, acc) in outs.iter_mut().zip(&acc) {
        band[x..x + B].copy_from_slice(acc);
    }
}

/// Column-synthesize columns `x .. x + B` of one intermediate row into
/// `low_row`/`high_row`: the row's `pairs` of low taps over `LL`/`HL`,
/// then of high taps over `LH`/`HH` (`coeffs` is `[ll, lh, hl, hh]`, rows
/// `c` wide). Each element is one chain from `+0.0`, held in registers
/// and stored once.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn synth_column_block<const B: usize>(
    pairs: &[(usize, usize)],
    low: &[f64],
    high: &[f64],
    [ll, lh, hl, hh]: [&[f64]; 4],
    c: usize,
    x: usize,
    low_row: &mut [f64],
    high_row: &mut [f64],
) {
    let mut lo = [0.0; B];
    let mut hi = [0.0; B];
    for (taps, from_lo, from_hi) in [(low, ll, hl), (high, lh, hh)] {
        for &(k, m) in pairs {
            let t = taps[m];
            let a: &[f64; B] = from_lo[k * c + x..][..B].try_into().unwrap();
            let b: &[f64; B] = from_hi[k * c + x..][..B].try_into().unwrap();
            for j in 0..B {
                lo[j] += t * a[j];
                hi[j] += t * b[j];
            }
        }
    }
    low_row[x..x + B].copy_from_slice(&lo);
    high_row[x..x + B].copy_from_slice(&hi);
}

/// Row-synthesize one intermediate row (`lo`/`hi`, its low and high
/// halves, `c` each) into the output row `out` (`2c`) by gathering: each
/// output is the chain of its low products `lo[k] · low[m]`, then its high
/// products, `(k, m)` ascending from `+0.0` — the order in which the
/// reference's scatter adds them. Column pairs `2j, 2j + 1` whose taps
/// are the plain interior chain run in register blocks; the pairs `taps`
/// lists as edges (a wrapped, folded or dropped tap, or a short chain)
/// replay their tap lists.
fn synthesize_row(
    lo: &[f64],
    hi: &[f64],
    low: &[f64],
    high: &[f64],
    taps: &SynthTaps,
    out: &mut [f64],
) {
    let c = lo.len();
    let mut j = 0;
    for &edge in taps.edges.iter().chain([&c]) {
        while j + PAIR_BLOCK <= edge {
            gather_block::<PAIR_BLOCK>(lo, hi, low, high, j, out);
            j += PAIR_BLOCK;
        }
        for j in j..edge {
            gather_block::<1>(lo, hi, low, high, j, out);
        }
        if edge == c {
            break;
        }
        for i in [2 * edge, 2 * edge + 1] {
            let pairs = taps.of(i);
            let mut acc = 0.0;
            for (half, taps) in [(lo, low), (hi, high)] {
                for &(k, m) in pairs {
                    acc += half[k] * taps[m];
                }
            }
            out[i] = acc;
        }
        j = edge + 1;
    }
}

/// Gather output columns `2j .. 2(j + B)` of [`synthesize_row`], all
/// interior: column `2j'` (`2j' + 1`) is the chain over `k = j' + 1 − h
/// ..= j'` of `lo[k] · low[2(j' − k)]` (`low[2(j' − k) + 1]`), then the
/// same over `hi` and `high`, `h` being half the filter length.
#[inline(always)]
fn gather_block<const B: usize>(
    lo: &[f64],
    hi: &[f64],
    low: &[f64],
    high: &[f64],
    j: usize,
    out: &mut [f64],
) {
    let k0 = j + 1 - low.len() / 2;
    let mut even = [0.0; B];
    let mut odd = [0.0; B];
    for (half, taps) in [(lo, low), (hi, high)] {
        // Tap pairs from the last down: `q` steps `k` up from `k0`.
        for (q, t) in taps.chunks_exact(2).rev().enumerate() {
            let xs: &[f64; B] = half[k0 + q..][..B].try_into().unwrap();
            for b in 0..B {
                even[b] += xs[b] * t[0];
                odd[b] += xs[b] * t[1];
            }
        }
    }
    let out = &mut out[2 * j..][..2 * B];
    for b in 0..B {
        out[2 * b] = even[b];
        out[2 * b + 1] = odd[b];
    }
}

/// For each position `i` of one level's synthesis along one axis (rows
/// for the column pass, columns for the row pass), the `(k, m)` pairs —
/// coefficient `k`, filter tap `m` — with `mode.map(2k + m) == i`, in
/// `(k, m)`-ascending order: the order in which the separable reference's
/// scatter adds them. Built from `mode.map` itself, so every boundary
/// policy (folds that land two taps of one `k` on the same position
/// included) is covered by construction.
#[derive(Debug, Clone)]
struct SynthTaps {
    /// Position `i` owns `pairs[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    pairs: Vec<(usize, usize)>,
    /// Ascending `j` whose positions `2j`, `2j + 1` are not both the
    /// plain interior chain `(k, i − 2k)`, `k = j + 1 − filter_len / 2
    /// ..= j`: the edges [`synthesize_row`] replays (a wrapped or folded
    /// tap lands there, or the chain is cut short at the start).
    edges: Vec<usize>,
}

impl SynthTaps {
    /// Table for an axis of `len` coefficients (`2 · len` positions).
    fn new(len: usize, filter_len: usize, mode: Boundary) -> Self {
        let n = 2 * len;
        let hits = || {
            (0..len).flat_map(move |k| {
                (0..filter_len)
                    .filter_map(move |m| mode.map((2 * k + m) as isize, n).map(|i| (i, (k, m))))
            })
        };
        // Counting sort by row; stable, so each row keeps (k, m) order.
        let mut start = vec![0usize; n + 1];
        for (i, _) in hits() {
            start[i + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut pairs = vec![(0, 0); start[n]];
        for (i, pair) in hits() {
            pairs[next[i]] = pair;
            next[i] += 1;
        }
        // Position `i` (`2j` or `2j + 1`) with `j + 1 ≥ h` always gets its
        // `h` in-range taps `(k, i − 2k)`, `k = j + 1 − h ..= j`: it is the
        // plain interior chain unless a wrapped or folded tap lands too.
        let h = filter_len / 2;
        let interior = |i: usize| i / 2 + 1 >= h && start[i + 1] - start[i] == h;
        let edges = (0..len)
            .filter(|&j| !(interior(2 * j) && interior(2 * j + 1)))
            .collect();
        SynthTaps {
            start,
            pairs,
            edges,
        }
    }

    /// The pairs of position `i`.
    fn of(&self, i: usize) -> &[(usize, usize)] {
        &self.pairs[self.start[i]..self.start[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwt2d;

    fn test_image(r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| {
            ((i * 31 + j * 17) % 23) as f64 + (i as f64 * 0.37).sin() - (j as f64 * 0.11).cos()
        })
    }

    #[test]
    fn engine_matches_separable_reference_bitwise() {
        for taps in [2usize, 4, 6, 8, 10] {
            let bank = FilterBank::daubechies(taps).unwrap();
            let img = test_image(64, 96);
            for mode in Boundary::ALL {
                for levels in 1..=3 {
                    let reference = dwt2d::decompose_separable(&img, &bank, levels, mode).unwrap();
                    let plan = DwtPlan::new(64, 96, bank.clone(), levels, mode).unwrap();
                    let got = plan.decompose(&img).unwrap();
                    assert_eq!(
                        got.approx.max_abs_diff(&reference.approx),
                        Some(0.0),
                        "D{taps} {mode:?} L{levels} LL"
                    );
                    for (g, r) in got.detail.iter().zip(&reference.detail) {
                        assert_eq!(g.lh.max_abs_diff(&r.lh), Some(0.0), "D{taps} {mode:?} LH");
                        assert_eq!(g.hl.max_abs_diff(&r.hl), Some(0.0), "D{taps} {mode:?} HL");
                        assert_eq!(g.hh.max_abs_diff(&r.hh), Some(0.0), "D{taps} {mode:?} HH");
                    }
                }
            }
        }
    }

    #[test]
    fn every_thread_count_is_bit_identical_to_the_oracles() {
        // 64 rows never stripe; at 272 and 544 the finest levels split
        // into two and four stripes of uneven length, coarser ones into
        // fewer. Convolution in both directions under every boundary.
        let conv = [
            FilterBank::haar(),
            FilterBank::daubechies(4).unwrap(),
            FilterBank::daubechies(8).unwrap(),
            FilterBank::coiflet(6).unwrap(),
        ];
        for rows in [64usize, 272, 544] {
            for levels in (1..=5).filter(|l| rows % (1 << l) == 0) {
                let cols = 8 << levels;
                let img = test_image(rows, cols);
                for bank in &conv {
                    for mode in Boundary::ALL {
                        let Ok(want) = dwt2d::decompose_separable(&img, bank, levels, mode) else {
                            continue;
                        };
                        let back = dwt2d::reconstruct_separable(&want, bank, mode).unwrap();
                        for threads in 1..=4 {
                            let plan = DwtPlan::new(rows, cols, bank.clone(), levels, mode)
                                .unwrap()
                                .with_threads(threads);
                            let at =
                                format!("{} {mode:?} {rows} L{levels} t{threads}", bank.name());
                            assert_eq!(plan.decompose(&img).unwrap(), want, "{at}");
                            assert_eq!(plan.reconstruct(&want).unwrap(), back, "{at}");
                        }
                    }
                }
                for kind in [LiftingKind::LeGall53, LiftingKind::Cdf97] {
                    let want = crate::lifting::decompose_oracle(&img, kind, levels).unwrap();
                    let back = crate::lifting::reconstruct_oracle(&want, kind).unwrap();
                    for threads in 1..=4 {
                        let bank = FilterBank::for_lifting(kind);
                        let plan = DwtPlan::new(rows, cols, bank, levels, Boundary::Periodic)
                            .unwrap()
                            .with_threads(threads);
                        let at = format!("{kind:?} {rows} L{levels} t{threads}");
                        assert_eq!(plan.decompose(&img).unwrap(), want, "{at}");
                        assert_eq!(plan.reconstruct(&want).unwrap(), back, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn stripes_never_get_fewer_rows_than_the_minimum() {
        // A level uses a lane only if it can give it MIN_STRIPE_ROWS
        // rows; record how many stripes each level of a 4-lane plan cut.
        let mut lanes: Vec<LaneBuf> = (0..4)
            .map(|_| LaneBuf {
                low_ring: Vec::new(),
                high_ring: Vec::new(),
                rows: Vec::new(),
            })
            .collect();
        for (rows, stripes) in [
            (1, 1),
            (127, 1),
            (128, 2),
            (191, 2),
            (192, 3),
            (300, 4),
            (4096, 4),
        ] {
            let cut = std::sync::Mutex::new(Vec::new());
            let mut out = vec![0.0; rows];
            stripe(rows, [&mut out[..]], &mut lanes, |range, [o], _| {
                assert_eq!(o.len(), range.len());
                o.fill(1.0);
                cut.lock().unwrap().push(range);
            });
            let mut cut = cut.into_inner().unwrap();
            cut.sort_by_key(|r| r.start);
            assert_eq!(cut.len(), stripes, "{rows} rows");
            assert!(cut.iter().all(|r| r.len() >= MIN_STRIPE_ROWS.min(rows)));
            assert!(cut.windows(2).all(|w| w[0].end == w[1].start));
            assert_eq!((cut[0].start, cut[stripes - 1].end), (0, rows));
            assert!(out.iter().all(|&v| v == 1.0), "{rows} rows");
        }
    }

    #[test]
    fn small_band_widths_cover_remainders() {
        // Band widths that do not divide the output width exercise the
        // tile-remainder paths.
        let bank = FilterBank::daubechies(4).unwrap();
        let img = test_image(32, 40);
        let reference = dwt2d::decompose_separable(&img, &bank, 2, Boundary::Symmetric).unwrap();
        for bw in [5usize, 7, 8, 13, 20, 1000] {
            let plan = DwtPlan::new(32, 40, bank.clone(), 2, Boundary::Symmetric)
                .unwrap()
                .with_band_width(bw);
            let got = plan.decompose(&img).unwrap();
            assert_eq!(
                got.approx.max_abs_diff(&reference.approx),
                Some(0.0),
                "bw={bw}"
            );
            assert_eq!(got.detail, reference.detail, "bw={bw}");
        }
    }

    #[test]
    fn workspace_round_trip_is_exact_periodic() {
        let bank = FilterBank::daubechies(8).unwrap();
        let img = test_image(64, 64);
        let plan = DwtPlan::new(64, 64, bank, 3, Boundary::Periodic).unwrap();
        let mut ws = plan.make_workspace();
        let mut pyr = plan.make_pyramid();
        let mut back = Matrix::zeros(64, 64);
        // Run twice through the same workspace to verify reuse.
        for _ in 0..2 {
            plan.decompose_into(&img, &mut ws, &mut pyr).unwrap();
            plan.reconstruct_into(&pyr, &mut ws, &mut back).unwrap();
            let err = img.max_abs_diff(&back).unwrap();
            assert!(err < 1e-10, "round-trip error {err}");
        }
    }

    #[test]
    fn reconstruct_matches_separable_synthesis() {
        let bank = FilterBank::daubechies(4).unwrap();
        let img = test_image(32, 32);
        for mode in Boundary::ALL {
            let pyr = dwt2d::decompose_separable(&img, &bank, 2, mode).unwrap();
            let reference = dwt2d::reconstruct_separable(&pyr, &bank, mode).unwrap();
            let plan = DwtPlan::new(32, 32, bank.clone(), 2, mode).unwrap();
            let got = plan.reconstruct(&pyr).unwrap();
            assert_eq!(reference.max_abs_diff(&got), Some(0.0), "{mode:?}");
        }
    }

    #[test]
    fn reconstruct_matches_separable_synthesis_across_banks() {
        // The bitwise pin of the convolution inverse: every kernel length
        // class, every boundary, a non-square shape, and a workspace
        // reused across calls (stale scratch must never leak through).
        let banks = [
            FilterBank::haar(),
            FilterBank::daubechies(4).unwrap(),
            FilterBank::daubechies(8).unwrap(),
            FilterBank::coiflet(6).unwrap(),
        ];
        let img = test_image(48, 80);
        for bank in banks {
            for mode in Boundary::ALL {
                for levels in 1..=3 {
                    let pyr = dwt2d::decompose_separable(&img, &bank, levels, mode).unwrap();
                    let reference = dwt2d::reconstruct_separable(&pyr, &bank, mode).unwrap();
                    let plan = DwtPlan::new(48, 80, bank.clone(), levels, mode).unwrap();
                    let mut ws = plan.make_workspace();
                    let mut got = Matrix::zeros(48, 80);
                    for pass in 0..2 {
                        plan.reconstruct_into(&pyr, &mut ws, &mut got).unwrap();
                        assert_eq!(
                            reference.max_abs_diff(&got),
                            Some(0.0),
                            "{} {mode:?} L{levels} pass {pass}",
                            bank.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_a_workspace_whose_buffer_lengths_happen_to_fit() {
        // 100x1024 and 200x512 share band width, ring rows and LL length,
        // so only an exact geometry comparison tells them apart; the
        // 9/7 pair likewise shares its (capped) staging length.
        for bank in [FilterBank::daubechies(4).unwrap(), FilterBank::cdf97()] {
            let foreign = DwtPlan::new(100, 1024, bank.clone(), 1, Boundary::Periodic).unwrap();
            let plan = DwtPlan::new(200, 512, bank.clone(), 1, Boundary::Periodic).unwrap();
            let mut ws = foreign.make_workspace();
            let mut pyr = plan.make_pyramid();
            let mut img = test_image(200, 512);
            let name = bank.name();
            assert!(
                matches!(
                    plan.decompose_into(&img, &mut ws, &mut pyr),
                    Err(DwtError::DimensionMismatch { .. })
                ),
                "{name} decompose"
            );
            assert!(
                matches!(
                    plan.reconstruct_into(&pyr, &mut ws, &mut img),
                    Err(DwtError::DimensionMismatch { .. })
                ),
                "{name} reconstruct"
            );
        }
    }

    #[test]
    fn rejects_a_workspace_built_for_another_lane_count() {
        for bank in [FilterBank::daubechies(4).unwrap(), FilterBank::cdf53()] {
            let one = DwtPlan::new(64, 64, bank.clone(), 2, Boundary::Periodic).unwrap();
            let two = one.clone().with_threads(2);
            let mut ws = one.make_workspace();
            let mut pyr = two.make_pyramid();
            let mut img = test_image(64, 64);
            let name = bank.name();
            assert!(
                matches!(
                    two.decompose_into(&img, &mut ws, &mut pyr),
                    Err(DwtError::DimensionMismatch { .. })
                ),
                "{name} decompose"
            );
            assert!(
                matches!(
                    two.reconstruct_into(&pyr, &mut ws, &mut img),
                    Err(DwtError::DimensionMismatch { .. })
                ),
                "{name} reconstruct"
            );
        }
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let bank = FilterBank::haar();
        let plan = DwtPlan::new(16, 16, bank.clone(), 2, Boundary::Periodic).unwrap();
        let mut ws = plan.make_workspace();
        let mut pyr = plan.make_pyramid();
        let wrong = Matrix::zeros(8, 16);
        assert!(plan.decompose_into(&wrong, &mut ws, &mut pyr).is_err());
        let other_plan = DwtPlan::new(32, 32, bank, 2, Boundary::Periodic).unwrap();
        let img32 = Matrix::zeros(32, 32);
        assert!(other_plan
            .decompose_into(&img32, &mut ws, &mut pyr)
            .is_err());
    }

    #[test]
    fn plan_validates_geometry() {
        let bank = FilterBank::daubechies(8).unwrap();
        assert!(matches!(
            DwtPlan::new(10, 16, bank.clone(), 2, Boundary::Periodic),
            Err(DwtError::OddLength { .. })
        ));
        assert!(matches!(
            DwtPlan::new(4, 4, bank, 1, Boundary::Periodic),
            Err(DwtError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn kernel_axpy_family() {
        let mut dst = vec![1.0, 2.0, 3.0];
        kernel::axpy(&mut dst, &[1.0, 1.0, 1.0], 0.5);
        assert_eq!(dst, vec![1.5, 2.5, 3.5]);
        kernel::axpy_pair(&mut dst, &[2.0, 2.0, 2.0], &[4.0, 4.0, 4.0], 0.25, 0.25);
        assert_eq!(dst, vec![3.0, 4.0, 5.0]);
    }
}
