#![allow(clippy::needless_range_loop)] // co-indexing several arrays by dimension is the clear idiom here
#![forbid(unsafe_code)]

//! The paper's coarse-grain MIMD wavelet decomposition, executed on the
//! [`paragon`] virtual-time multicomputer.
//!
//! The implementation follows section 4.2 of the paper:
//!
//! * the image is distributed in **row stripes** (figure 3), limiting
//!   guard-zone exchange to one neighbour instead of the two a block
//!   decomposition would need;
//! * stripes are placed on nodes either in the *straightforward*
//!   row-major order or in the **snake-like** order of figure 4 that
//!   keeps all exchanges between physically adjacent nodes;
//! * at every decomposition level each rank filters its rows locally,
//!   builds a **guard zone** of row-filtered data from its south
//!   neighbour(s) (depth of order the filter length), column-filters its
//!   share, and keeps its stripe of the `LL` band for the next level.
//!
//! The numerical output is bit-identical to the sequential
//! [`dwt::dwt2d::decompose`]; only the virtual-time cost differs with the
//! processor count, placement and exchange discipline.
//!
//! Runs are fault-aware: under a non-empty [`paragon::FaultPlan`] the
//! [`ResiliencePolicy`] decides whether injected crashes fail the run
//! with a typed [`MimdError`] (the default) or are absorbed by
//! redistributing the dead ranks' stripes to survivors (see the
//! [`resilience`] module), still bit-identical to the fault-free
//! transform. Both policies run the same per-rank program: it is written
//! over the set of stripe *roles* a rank plays, and fail-fast is the
//! identity assignment with the two recovery phases skipped.

pub mod block;
pub mod checkpoint;
mod guard;
pub mod idwt;
pub mod partition;
pub mod resilience;

use std::collections::BTreeMap;

use dwt::boundary::Boundary;
use dwt::dwt2d;
use dwt::filters::FilterBank;
use dwt::matrix::Matrix;
use dwt::pyramid::{Pyramid, Subbands};
use paragon::{CommError, Ctx, FaultStats, Ops, SpmdConfig};
use perfbudget::{Category, RankBudget};

pub use checkpoint::{encode_plane, encoded_bytes, CheckpointCodec, PlaneStats};
use guard::{guard_runs, pack_rows, Guards, RoleSend};
use partition::{output_range, owner, stripes, Stripe};
use resilience::{collect_outputs, DetailTile, Recovery, RoleState};
pub use resilience::{MimdError, ResiliencePolicy};

/// How guard-zone messages are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardOrdering {
    /// All guard messages posted at once (the tuned implementation:
    /// buffered asynchronous sends).
    Simultaneous,
    /// One sender at a time, highest rank first — the behaviour of the
    /// naive deadlock-avoiding blocking code ("no arrangement was made"):
    /// each rank forwards its guard only after its own receive has
    /// completed, serializing the exchange into a `P`-long chain.
    ChainOrdered,
}

/// Cost charged per output coefficient of the filtering passes: `f`
/// multiply-accumulates (2 flops each), the filter-window loads plus the
/// store, and loop/index bookkeeping.
pub fn coeff_ops(filter_len: usize) -> Ops {
    let f = filter_len as u64;
    Ops {
        flops: 2 * f,
        intops: 10,
        memops: f + 1,
    }
}

/// Total coefficients produced by one decomposition level on an
/// `rows x cols` input (row pass and column pass together).
pub fn level_coeffs(rows: usize, cols: usize) -> u64 {
    2 * rows as u64 * cols as u64
}

/// Virtual seconds a single node of `machine` needs for the whole
/// decomposition (no communication) — the model behind the serial rows
/// of Table 1.
pub fn serial_seconds(
    machine: &paragon::MachineSpec,
    rows: usize,
    cols: usize,
    filter_len: usize,
    levels: usize,
) -> f64 {
    let (mut r, mut c) = (rows, cols);
    let mut total = 0.0;
    for _ in 0..levels {
        total += machine
            .cpu
            .seconds(coeff_ops(filter_len).times(level_coeffs(r, c)));
        r /= 2;
        c /= 2;
    }
    total
}

/// Configuration of a distributed decomposition.
#[derive(Debug, Clone)]
pub struct MimdDwtConfig {
    /// Filter bank (the paper uses sizes 8, 4, 2).
    pub filter: FilterBank,
    /// Decomposition levels (paired 1, 2, 4 in the paper).
    pub levels: usize,
    /// Boundary handling.
    pub mode: Boundary,
    /// Guard-exchange discipline of the striped transform
    /// ([`run_mimd_dwt`]). The block transform and the reconstruction
    /// always exchange simultaneously and reject
    /// [`GuardOrdering::ChainOrdered`].
    pub ordering: GuardOrdering,
    /// Include the initial stripe scatter from node 0 and the final
    /// coefficient gather in the timed run (the measured sessions of
    /// Table 1 and figures 5–7 include data distribution).
    pub include_distribution: bool,
    /// Wire size of one coefficient (4 = 1995-style single precision).
    pub pixel_bytes: usize,
    /// What to do about ranks the fault plan kills.
    pub resilience: ResiliencePolicy,
    /// How role checkpoints are encoded when shipped at crash handoffs.
    /// [`CheckpointCodec::Raw`] (the default) keeps recovery exact to
    /// the bit; [`CheckpointCodec::WaveletQuant`] trades a bounded
    /// detail-plane error for less recovery traffic.
    pub checkpoint_codec: CheckpointCodec,
}

impl MimdDwtConfig {
    /// The tuned configuration the paper converges on: snake placement is
    /// chosen in the [`SpmdConfig`]; this sets simultaneous exchange,
    /// timed distribution and single-precision wire format.
    pub fn tuned(filter: FilterBank, levels: usize) -> Self {
        MimdDwtConfig {
            filter,
            levels,
            mode: Boundary::Periodic,
            ordering: GuardOrdering::Simultaneous,
            include_distribution: true,
            pixel_bytes: 4,
            resilience: ResiliencePolicy::FailFast,
            checkpoint_codec: CheckpointCodec::Raw,
        }
    }

    /// Same configuration with a different crash policy.
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Same configuration with a different checkpoint encoding.
    pub fn with_checkpoint_codec(mut self, codec: CheckpointCodec) -> Self {
        self.checkpoint_codec = codec;
        self
    }

    /// Reject malformed configurations up front with typed errors.
    pub fn validate(&self) -> Result<(), MimdError> {
        if self.levels == 0 {
            return Err(MimdError::InvalidConfig {
                detail: "at least one decomposition level is required".into(),
            });
        }
        if self.pixel_bytes == 0 {
            return Err(MimdError::InvalidConfig {
                detail: "pixel_bytes must be positive (coefficients occupy wire space)".into(),
            });
        }
        if self.resilience == ResiliencePolicy::Redistribute
            && self.ordering == GuardOrdering::ChainOrdered
        {
            return Err(MimdError::InvalidConfig {
                detail: "chain-ordered guard exchange is incompatible with crash \
                         redistribution (the chain length depends on the live set)"
                    .into(),
            });
        }
        if !self.checkpoint_codec.is_valid() {
            return Err(MimdError::InvalidConfig {
                detail: "checkpoint codec threshold and step must be finite and non-negative"
                    .into(),
            });
        }
        Ok(())
    }

    /// Reject a chain-ordered exchange in a transform that has none.
    fn require_simultaneous(&self, transform: &str) -> Result<(), MimdError> {
        if self.ordering == GuardOrdering::ChainOrdered {
            return Err(MimdError::InvalidConfig {
                detail: format!("the {transform} has no chain-ordered guard exchange"),
            });
        }
        Ok(())
    }
}

/// Everything one role of a forward transform returns from the SPMD
/// body: its detail tiles and its tile of the final `LL` band, placed at
/// `(ll_row, ll_col)`.
#[derive(Debug, Clone)]
pub(crate) struct RankOut {
    details: Vec<DetailTile>,
    ll_row: usize,
    ll_col: usize,
    ll: Matrix,
}

/// Result of a distributed run.
#[derive(Debug)]
pub struct MimdDwtRun {
    /// The assembled decomposition (bit-identical to the sequential one).
    pub pyramid: Pyramid,
    /// Per-rank time accounting.
    pub budgets: Vec<RankBudget>,
    /// Injected-fault totals and the ranks that crashed.
    pub faults: FaultStats,
    /// One record per collective phase, in program order — lets callers
    /// audit per-phase wire traffic (e.g. that skipped cost reports and
    /// compressed checkpoints actually ship fewer bytes).
    pub timeline: Vec<paragon::PhaseRecord>,
}

impl MimdDwtRun {
    /// Parallel execution time.
    pub fn parallel_time(&self) -> f64 {
        parallel_time(&self.budgets)
    }
}

/// Parallel execution time of a run: the latest rank completion.
fn parallel_time(budgets: &[RankBudget]) -> f64 {
    budgets.iter().map(|b| b.completion).fold(0.0, f64::max)
}

/// Run the distributed Mallat decomposition of `image` on the machine
/// and placement described by `scfg`.
pub fn run_mimd_dwt(
    scfg: &SpmdConfig,
    cfg: &MimdDwtConfig,
    image: &Matrix,
) -> Result<MimdDwtRun, MimdError> {
    cfg.validate()?;
    dwt2d::validate_dims(image.rows(), image.cols(), cfg.filter.len(), cfg.levels)?;
    let res = paragon::run_spmd(scfg, |ctx| rank_body(ctx, cfg, image))?;
    let outs = collect_outputs(cfg.resilience, res.outputs, scfg.nranks)?;
    let pyramid = assemble(&outs, image.rows(), image.cols(), cfg.levels);
    Ok(MimdDwtRun {
        pyramid,
        budgets: res.budgets,
        faults: res.faults,
        timeline: res.timeline,
    })
}

/// Collective phases one resilient level executes: checkpoint handoff,
/// guard exchange, LL redistribution, cost report, barrier.
const STRIPE_LEVEL_PHASES: u64 = 5;

/// The per-rank SPMD program, written over the *set* of roles (stripe
/// positions) this rank plays. Fail-fast runs keep the identity
/// assignment — one rank, one role — and skip the handoff and
/// cost-report phases; resilient runs adopt roles ahead of scheduled
/// crashes (see the [`resilience`] module docs for the protocol). The
/// level's phase schedule is the sequence of `ctx.exchange` /
/// [`Recovery`] calls below, in order.
fn rank_body(
    ctx: &mut Ctx,
    cfg: &MimdDwtConfig,
    image: &Matrix,
) -> Result<Vec<(usize, RankOut)>, CommError> {
    let me = ctx.rank();
    let nranks = ctx.nranks();
    let (rows0, cols0) = (image.rows(), image.cols());
    let first = stripes(rows0, nranks);
    let seed: Vec<f64> = first.iter().map(|s| s.rows() as f64).collect();
    let mut rec = Recovery::new(ctx, cfg, STRIPE_LEVEL_PHASES, seed);
    let mut roles: BTreeMap<usize, RoleState> = BTreeMap::new();
    rec.scatter(ctx, cfg, |j| first[j].rows() * cols0)?;

    let mut rows_l = rows0;
    let mut cols_l = cols0;

    for level in 0..cfg.levels {
        let level_stripes = stripes(rows_l, nranks);

        rec.handoff(ctx, cfg, &mut roles)?;
        if level == 0 {
            rec.cut_inputs(ctx, &mut roles, image, 16, |r| {
                (first[r].lo, 0, first[r].rows(), cols0)
            })?;
        }

        let half_cols = cols_l / 2;

        // --- Row pass: filter own rows with L and H, decimate columns —
        // for every role this rank plays, with per-role compute timing
        // for the re-partition cost model. -------------------------------
        let mut filt: BTreeMap<usize, (Matrix, Matrix)> = BTreeMap::new();
        let mut cost: BTreeMap<usize, f64> = BTreeMap::new();
        for (&a, st) in &roles {
            let t0 = ctx.now();
            filt.insert(a, row_pass(ctx, cfg, &st.input, half_cols));
            cost.insert(a, ctx.now() - t0);
        }

        // --- Guard zone: ship the row-filtered rows other roles' column
        // passes need (almost always to the north neighbour). Everyone
        // derives everyone's needs from the same formula, so a rank can
        // compute its send plan without a request round-trip. Messages
        // are role-addressed; those between two roles of the same rank
        // ride the free self-route, so adopted roles stay on the one
        // code path.
        ctx.charge_as(
            Ops {
                flops: 0,
                intops: 30 * (nranks * roles.len().max(1)) as u64,
                memops: 0,
            },
            Category::UniqueRedundancy,
        );
        let mut sends: Vec<RoleSend> = Vec::new();
        for &a in roles.keys() {
            let sa = level_stripes[a];
            let (low, high) = &filt[&a];
            for j in (0..nranks).filter(|&j| j != a) {
                for run in guard_runs(cfg, level_stripes[j], sa, rows_l) {
                    sends.push(pack_rows(cfg, (rec.owner(j), j), &[low, high], sa, run));
                }
            }
        }
        let received = match cfg.ordering {
            GuardOrdering::Simultaneous => ctx.exchange(sends)?,
            GuardOrdering::ChainOrdered => {
                // Highest rank sends first; each subsequent sender has by
                // then completed its own receive — the chain of the naive
                // blocking implementation. (Fail-fast only, see
                // `validate`: rank and role coincide.)
                let mut inbox = Vec::new();
                for sender in (0..nranks).rev() {
                    let batch = if sender == me {
                        std::mem::take(&mut sends)
                    } else {
                        Vec::new()
                    };
                    inbox.extend(ctx.exchange(batch)?);
                }
                inbox
            }
        };

        let guards = Guards::<2>::unpack(received);
        let guard_rows = guards.lines() as u64;
        ctx.charge_as(
            Ops {
                flops: 0,
                intops: 8 * guard_rows,
                memops: 2 * guard_rows * half_cols as u64,
            },
            Category::UniqueRedundancy,
        );

        // --- Column pass over each role's output rows. ------------------
        let all_cols = Stripe {
            lo: 0,
            hi: half_cols,
        };
        let mut lls: BTreeMap<usize, Matrix> = BTreeMap::new();
        for (&a, st) in roles.iter_mut() {
            let sa = level_stripes[a];
            let (low, high) = &filt[&a];
            let t0 = ctx.now();
            let (ll, detail) = column_pass(ctx, cfg, output_range(sa), all_cols, rows_l, |g| {
                if sa.contains(g) {
                    Ok([low.row(g - sa.lo), high.row(g - sa.lo)])
                } else {
                    guards.get(a, g)
                }
            })?;
            *cost.entry(a).or_insert(0.0) += ctx.now() - t0;
            st.details.push(detail);
            lls.insert(a, ll);
        }
        drop(filt);

        // --- Redistribute LL rows to the next level's stripe bounds,
        // role to role. --------------------------------------------------
        rows_l /= 2;
        cols_l = half_cols;
        let next_stripes = stripes(rows_l, nranks);
        let mut sends = Vec::new();
        for (&a, ll) in &lls {
            let out_r = output_range(level_stripes[a]);
            for (ki, k) in (out_r.lo..out_r.hi).enumerate() {
                let o = owner(k, rows_l, nranks);
                if o != a {
                    let bytes = cols_l * cfg.pixel_bytes;
                    sends.push((rec.owner(o), (o, k, ll.row(ki).to_vec()), bytes));
                }
            }
        }
        let incoming = ctx.exchange(sends)?;
        for (&a, st) in roles.iter_mut() {
            let out_r = output_range(level_stripes[a]);
            let next = next_stripes[a];
            let ll = &lls[&a];
            let mut next_input = Matrix::zeros(next.rows(), cols_l);
            for k in (next.lo..next.hi).filter(|&k| out_r.contains(k)) {
                next_input
                    .row_mut(k - next.lo)
                    .copy_from_slice(ll.row(k - out_r.lo));
            }
            st.input = next_input;
        }
        for (_, (o, k, data)) in incoming {
            let st = roles.get_mut(&o).ok_or(CommError::Protocol {
                detail: "LL row routed to a rank not playing its role",
            })?;
            let next = next_stripes[o];
            if !next.contains(k) {
                return Err(CommError::Protocol {
                    detail: "LL row routed outside its role's stripe",
                });
            }
            st.input.row_mut(k - next.lo).copy_from_slice(&data);
        }

        rec.end_level(ctx, &cost)?;
    }

    rec.gather(ctx, cfg, &roles)?;

    let final_stripes = stripes(rows_l, nranks);
    Ok(roles
        .into_iter()
        .map(|(role, st)| {
            let out = RankOut {
                details: st.details,
                ll_row: final_stripes[role].lo,
                ll_col: 0,
                ll: st.input,
            };
            (role, out)
        })
        .collect())
}

// ---------------------------------------------------------------------
// The arithmetic of one level, per role. Keeping it in one place — and
// independent of which rank plays the role — is what makes a recovered
// transform bit-identical to the fault-free one.
// ---------------------------------------------------------------------

/// Row-filter every row of `input` with L and H, decimating columns.
fn row_pass(
    ctx: &mut Ctx,
    cfg: &MimdDwtConfig,
    input: &Matrix,
    half_cols: usize,
) -> (Matrix, Matrix) {
    let own = input.rows();
    let mut low = Matrix::zeros(own, half_cols);
    let mut high = Matrix::zeros(own, half_cols);
    for r in 0..own {
        dwt::conv::analyze_into(input.row(r), cfg.filter.low(), cfg.mode, low.row_mut(r))
            .expect("buffer sized by construction");
        dwt::conv::analyze_into(input.row(r), cfg.filter.high(), cfg.mode, high.row_mut(r))
            .expect("buffer sized by construction");
    }
    ctx.charge(coeff_ops(cfg.filter.len()).times(2 * (own * half_cols) as u64));
    (low, high)
}

/// Column-filter the output rows `[out_r.lo, out_r.hi)` of the output
/// columns `out_c` (all of them for a stripe, a block's share for a
/// block), sourcing each needed row-filtered row pair through `look`.
/// Returns the LL tile (input of the next level) and the detail tiles.
fn column_pass<'a>(
    ctx: &mut Ctx,
    cfg: &MimdDwtConfig,
    out_r: Stripe,
    out_c: Stripe,
    rows_l: usize,
    look: impl Fn(usize) -> Result<[&'a [f64]; 2], CommError>,
) -> Result<(Matrix, DetailTile), CommError> {
    let f = cfg.filter.len();
    let (out_rows, out_cols) = (out_r.rows(), out_c.rows());
    let mut ll = Matrix::zeros(out_rows, out_cols);
    let mut lh = Matrix::zeros(out_rows, out_cols);
    let mut hl = Matrix::zeros(out_rows, out_cols);
    let mut hh = Matrix::zeros(out_rows, out_cols);
    for (ki, k) in (out_r.lo..out_r.hi).enumerate() {
        for m in 0..f {
            let Some(g) = cfg.mode.map((2 * k + m) as isize, rows_l) else {
                continue;
            };
            let [lsrc, hsrc] = look(g)?;
            dwt::engine::kernel::accumulate_quad(
                ll.row_mut(ki),
                lh.row_mut(ki),
                hl.row_mut(ki),
                hh.row_mut(ki),
                lsrc,
                hsrc,
                cfg.filter.low()[m],
                cfg.filter.high()[m],
            );
        }
    }
    ctx.charge(coeff_ops(f).times(4 * (out_rows * out_cols) as u64));
    Ok((
        ll,
        DetailTile {
            k_row: out_r.lo,
            k_col: out_c.lo,
            lh,
            hl,
            hh,
        },
    ))
}

/// Stitch per-role stripes or blocks into a [`Pyramid`].
fn assemble(outs: &[RankOut], rows: usize, cols: usize, levels: usize) -> Pyramid {
    let mut detail = Vec::with_capacity(levels);
    for level in 1..=levels {
        let h = rows >> level;
        let w = cols >> level;
        let mut lh = Matrix::zeros(h, w);
        let mut hl = Matrix::zeros(h, w);
        let mut hh = Matrix::zeros(h, w);
        for out in outs {
            let d = &out.details[level - 1];
            lh.paste(d.k_row, d.k_col, &d.lh).expect("tile fits");
            hl.paste(d.k_row, d.k_col, &d.hl).expect("tile fits");
            hh.paste(d.k_row, d.k_col, &d.hh).expect("tile fits");
        }
        detail.push(Subbands { lh, hl, hh });
    }
    let mut approx = Matrix::zeros(rows >> levels, cols >> levels);
    for out in outs {
        approx
            .paste(out.ll_row, out.ll_col, &out.ll)
            .expect("tile fits");
    }
    Pyramid { approx, detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon::{FaultPlan, MachineSpec, Mapping};

    fn test_image(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 7) % 23) as f64 - 11.0)
    }

    fn paragon_cfg(n: usize, mapping: Mapping) -> SpmdConfig {
        SpmdConfig::new(MachineSpec::paragon(), n, mapping)
    }

    #[test]
    fn distributed_matches_sequential_bitwise() {
        let img = test_image(64);
        for taps in [2usize, 4, 8] {
            let bank = FilterBank::daubechies(taps).unwrap();
            for nranks in [1usize, 2, 3, 7, 8] {
                for mode in Boundary::ALL {
                    let seq = dwt2d::decompose(&img, &bank, 3, mode).unwrap();
                    let cfg = MimdDwtConfig {
                        filter: bank.clone(),
                        levels: 3,
                        mode,
                        ordering: GuardOrdering::Simultaneous,
                        include_distribution: false,
                        pixel_bytes: 4,
                        resilience: ResiliencePolicy::FailFast,
                        checkpoint_codec: CheckpointCodec::Raw,
                    };
                    let run =
                        run_mimd_dwt(&paragon_cfg(nranks, Mapping::Snake), &cfg, &img).unwrap();
                    assert_eq!(
                        run.pyramid, seq,
                        "D{taps} P={nranks} {mode:?} differs from sequential"
                    );
                }
            }
        }
    }

    #[test]
    fn chain_ordering_same_numerics() {
        let img = test_image(32);
        let bank = FilterBank::daubechies(8).unwrap();
        let seq = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig {
            filter: bank,
            levels: 2,
            mode: Boundary::Periodic,
            ordering: GuardOrdering::ChainOrdered,
            include_distribution: true,
            pixel_bytes: 4,
            resilience: ResiliencePolicy::FailFast,
            checkpoint_codec: CheckpointCodec::Raw,
        };
        let run = run_mimd_dwt(&paragon_cfg(4, Mapping::RowMajor), &cfg, &img).unwrap();
        assert_eq!(run.pyramid, seq);
    }

    #[test]
    fn snake_simultaneous_beats_naive_chain_at_scale() {
        let img = test_image(128);
        let bank = FilterBank::daubechies(8).unwrap();
        let tuned = MimdDwtConfig::tuned(bank.clone(), 1);
        let naive = MimdDwtConfig {
            ordering: GuardOrdering::ChainOrdered,
            ..tuned.clone()
        };
        let t_snake = run_mimd_dwt(&paragon_cfg(16, Mapping::Snake), &tuned, &img)
            .unwrap()
            .parallel_time();
        let t_naive = run_mimd_dwt(&paragon_cfg(16, Mapping::RowMajor), &naive, &img)
            .unwrap()
            .parallel_time();
        assert!(
            t_snake < t_naive,
            "snake ({t_snake:.4}s) should beat naive ({t_naive:.4}s) at P=16"
        );
    }

    #[test]
    fn more_ranks_reduce_time_for_tuned_version() {
        let img = test_image(128);
        let bank = FilterBank::daubechies(8).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 1);
        let t: Vec<f64> = [1usize, 4, 16]
            .iter()
            .map(|&p| {
                run_mimd_dwt(&paragon_cfg(p, Mapping::Snake), &cfg, &img)
                    .unwrap()
                    .parallel_time()
            })
            .collect();
        assert!(t[1] < t[0], "4 ranks ({:.4}) >= 1 rank ({:.4})", t[1], t[0]);
        assert!(
            t[2] < t[1],
            "16 ranks ({:.4}) >= 4 ranks ({:.4})",
            t[2],
            t[1]
        );
    }

    #[test]
    fn serial_seconds_matches_one_rank_compute() {
        let img = test_image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let mut cfg = MimdDwtConfig::tuned(bank, 2);
        cfg.include_distribution = false;
        let run = run_mimd_dwt(&paragon_cfg(1, Mapping::Snake), &cfg, &img).unwrap();
        let est = serial_seconds(&MachineSpec::paragon(), 64, 64, 4, 2);
        let useful = run.budgets[0].useful;
        // The estimate covers the filtering; the run also charges small
        // bookkeeping to other categories. Filtering must match closely.
        assert!(
            (useful - est).abs() < 0.05 * est,
            "useful {useful} vs estimate {est}"
        );
    }

    #[test]
    fn budgets_show_communication_at_scale() {
        let img = test_image(64);
        let bank = FilterBank::daubechies(8).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2);
        let run = run_mimd_dwt(&paragon_cfg(8, Mapping::Snake), &cfg, &img).unwrap();
        let report = perfbudget::BudgetReport::from_ranks(&run.budgets).unwrap();
        assert!(report.communication_pct() > 0.0);
        assert!(report.useful_pct() > 0.0);
    }

    #[test]
    fn deterministic() {
        let img = test_image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2);
        let a = run_mimd_dwt(&paragon_cfg(8, Mapping::Snake), &cfg, &img).unwrap();
        let b = run_mimd_dwt(&paragon_cfg(8, Mapping::Snake), &cfg, &img).unwrap();
        assert_eq!(a.parallel_time(), b.parallel_time());
        assert_eq!(a.budgets, b.budgets);
    }

    #[test]
    fn rejects_bad_dims() {
        let img = Matrix::zeros(12, 12);
        let bank = FilterBank::haar();
        let cfg = MimdDwtConfig::tuned(bank, 3); // 12 -> 6 -> 3 fails
        assert!(run_mimd_dwt(&paragon_cfg(2, Mapping::Snake), &cfg, &img).is_err());
    }

    #[test]
    fn config_rejections_are_typed() {
        let img = test_image(32);
        let bank = FilterBank::haar();
        let scfg = paragon_cfg(2, Mapping::Snake);

        let mut cfg = MimdDwtConfig::tuned(bank.clone(), 1);
        cfg.levels = 0;
        assert!(matches!(
            run_mimd_dwt(&scfg, &cfg, &img).unwrap_err(),
            MimdError::InvalidConfig { .. }
        ));

        let mut cfg = MimdDwtConfig::tuned(bank.clone(), 1);
        cfg.pixel_bytes = 0;
        assert!(matches!(
            run_mimd_dwt(&scfg, &cfg, &img).unwrap_err(),
            MimdError::InvalidConfig { .. }
        ));

        let mut cfg = MimdDwtConfig::tuned(bank, 1);
        cfg.ordering = GuardOrdering::ChainOrdered;
        cfg.resilience = ResiliencePolicy::Redistribute;
        assert!(matches!(
            run_mimd_dwt(&scfg, &cfg, &img).unwrap_err(),
            MimdError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn redistribute_without_faults_matches_sequential_bitwise() {
        let img = test_image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let seq = dwt2d::decompose(&img, &bank, 3, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 3).with_resilience(ResiliencePolicy::Redistribute);
        for p in [1usize, 3, 8] {
            let run = run_mimd_dwt(&paragon_cfg(p, Mapping::Snake), &cfg, &img).unwrap();
            assert_eq!(run.pyramid, seq, "P={p}");
            assert!(run.faults.crashed_ranks.is_empty());
        }
    }

    #[test]
    fn crash_recovery_is_bit_identical_to_fault_free() {
        let img = test_image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let seq = dwt2d::decompose(&img, &bank, 3, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 3).with_resilience(ResiliencePolicy::Redistribute);
        // Kill rank 2 exactly at the level-1 checkpoint handoff (phase 6)
        // and rank 5 in the middle of level 2 (phase 13 = its LL
        // redistribution).
        let plan = FaultPlan::none().with_crash(2, 6).with_crash(5, 13);
        let scfg = paragon_cfg(8, Mapping::Snake).with_faults(plan);
        let run = run_mimd_dwt(&scfg, &cfg, &img).unwrap();
        assert_eq!(
            run.pyramid, seq,
            "recovered run must be bit-identical to the fault-free transform"
        );
        assert_eq!(run.faults.crashed_ranks, vec![2, 5]);
    }

    #[test]
    fn crash_at_every_phase_recovers_bit_identically() {
        // Sweep the crash across the whole phase schedule, including the
        // handoff phases themselves: recovery must never depend on lucky
        // timing. 6 ranks, 2 levels => phases 0..=11 (scatter, 2 x 5
        // level phases, gather).
        let img = test_image(32);
        let bank = FilterBank::daubechies(4).unwrap();
        let seq = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2).with_resilience(ResiliencePolicy::Redistribute);
        for phase in 0..12u64 {
            let plan = FaultPlan::none().with_crash(3, phase);
            let scfg = paragon_cfg(6, Mapping::Snake).with_faults(plan);
            let run = run_mimd_dwt(&scfg, &cfg, &img)
                .unwrap_or_else(|e| panic!("crash at phase {phase} not recovered: {e}"));
            assert_eq!(run.pyramid, seq, "crash at phase {phase} corrupted output");
        }
    }

    #[test]
    fn failfast_surfaces_crash_as_typed_error() {
        let img = test_image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2); // FailFast default
        let plan = FaultPlan::none().with_crash(1, 2);
        let scfg = paragon_cfg(4, Mapping::Snake).with_faults(plan);
        match run_mimd_dwt(&scfg, &cfg, &img) {
            Err(MimdError::Comm {
                rank: 1,
                source: CommError::Crashed { rank: 1, .. },
            }) => {}
            other => panic!("expected the crash as a typed error, got {other:?}"),
        }
    }

    #[test]
    fn total_crash_schedule_is_unrecoverable_not_a_panic() {
        let img = test_image(32);
        let bank = FilterBank::haar();
        let cfg = MimdDwtConfig::tuned(bank, 1).with_resilience(ResiliencePolicy::Redistribute);
        let plan = FaultPlan::none()
            .with_crash(0, 2)
            .with_crash(1, 3)
            .with_crash(2, 3)
            .with_crash(3, 4);
        let scfg = paragon_cfg(4, Mapping::Snake).with_faults(plan);
        assert!(matches!(
            run_mimd_dwt(&scfg, &cfg, &img).unwrap_err(),
            MimdError::Unrecoverable { .. }
        ));
    }

    #[test]
    fn recovered_runs_are_deterministic() {
        let img = test_image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2).with_resilience(ResiliencePolicy::Redistribute);
        let mk = || {
            let plan = FaultPlan::seeded(42).with_drop_rate(1e-3).with_crash(1, 5);
            paragon_cfg(6, Mapping::Snake).with_faults(plan)
        };
        let a = run_mimd_dwt(&mk(), &cfg, &img).unwrap();
        let b = run_mimd_dwt(&mk(), &cfg, &img).unwrap();
        assert_eq!(a.parallel_time(), b.parallel_time());
        assert_eq!(a.budgets, b.budgets);
        assert_eq!(a.pyramid, b.pyramid);
    }

    #[test]
    fn crash_recovery_costs_virtual_time() {
        let img = test_image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2).with_resilience(ResiliencePolicy::Redistribute);
        let plan = FaultPlan::none().with_crash(2, 6);
        let scfg = paragon_cfg(6, Mapping::Snake).with_faults(plan);
        let faulty = run_mimd_dwt(&scfg, &cfg, &img).unwrap();
        let clean = run_mimd_dwt(&paragon_cfg(6, Mapping::Snake), &cfg, &img).unwrap();
        // Losing a rank must not make the run faster.
        assert!(faulty.parallel_time() >= clean.parallel_time());
    }
}
