//! Block domain decomposition — the alternative the paper's figure 3
//! argues *against*: distributing the image by 2-D blocks requires guard
//! zones from **two** neighbours (east for the row pass, south for the
//! column pass), doubling the number of communication transactions
//! compared to striping.
//!
//! Implemented in full so the figure-3 claim can be measured rather than
//! asserted: the transform output is still bit-identical to the
//! sequential reference; only the communication structure differs.
//!
//! Like the striped transform, the block transform is fault-aware: under
//! [`crate::ResiliencePolicy::Redistribute`] the grid positions become *roles*
//! that move to survivors ahead of scheduled crashes (see the
//! [`crate::resilience`] module docs), and the recovered run stays
//! bit-identical to the fault-free transform.

use std::collections::{BTreeMap, HashMap};

use dwt::dwt2d;
use dwt::matrix::Matrix;
use dwt::pyramid::{Pyramid, Subbands};
use paragon::{CommError, Ctx, FaultStats, Ops, SpmdConfig};
use perfbudget::{Category, RankBudget};

use crate::partition::{contiguous_runs, output_range, owner, stripes, Stripe};
use crate::resilience::{collect_outputs, DetailTile, Recovery, RoleState};
use crate::{coeff_ops, MimdDwtConfig, MimdError};

/// Split `nranks` into a near-square `rows x cols` process grid.
pub fn process_grid(nranks: usize) -> (usize, usize) {
    assert!(nranks > 0);
    let mut pr = (nranks as f64).sqrt().floor() as usize;
    while pr > 1 && !nranks.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr.max(1), nranks / pr.max(1))
}

/// A role's 2-D block at some level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockRegion {
    rows: Stripe,
    cols: Stripe,
}

fn region_of(role: usize, pr: usize, pc: usize, rows_l: usize, cols_l: usize) -> BlockRegion {
    let br = role / pc;
    let bc = role % pc;
    BlockRegion {
        rows: stripes(rows_l, pr)[br],
        cols: stripes(cols_l, pc)[bc],
    }
}

/// Counters the figure-3 comparison reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point guard messages sent (all ranks, all levels).
    pub guard_messages: u64,
    /// Guard payload bytes.
    pub guard_bytes: u64,
}

/// Result of a block-decomposed run.
#[derive(Debug)]
pub struct BlockDwtRun {
    /// The decomposition (bit-identical to the sequential transform).
    pub pyramid: Pyramid,
    /// Per-rank budgets.
    pub budgets: Vec<RankBudget>,
    /// Aggregate guard-communication counters (wire traffic only; data
    /// passed between two roles of the same rank is not a transaction).
    pub comm: CommStats,
    /// Injected-fault totals and the ranks that crashed.
    pub faults: FaultStats,
    /// One record per collective phase, in program order (per-phase wire
    /// traffic audit, as in [`crate::MimdDwtRun::timeline`]).
    pub timeline: Vec<paragon::PhaseRecord>,
}

impl BlockDwtRun {
    /// Parallel execution time.
    pub fn parallel_time(&self) -> f64 {
        self.budgets
            .iter()
            .map(|b| b.completion)
            .fold(0.0, f64::max)
    }
}

/// Per-role output: sub-band blocks with their placement.
#[derive(Debug, Clone)]
pub struct BlockRankOut {
    details: Vec<DetailTile>,
    ll_row: usize,
    ll_col: usize,
    ll: Matrix,
    sent_messages: u64,
    sent_bytes: u64,
}

/// Collective phases one resilient block level executes: checkpoint
/// handoff, column-guard exchange, row-guard exchange, LL
/// redistribution, cost report, barrier.
const BLOCK_LEVEL_PHASES: u64 = 6;

/// Run the block-decomposed Mallat transform. `cfg.ordering` is ignored
/// (block exchange is always simultaneous); distribution timing follows
/// `cfg.include_distribution` as in the striped version.
pub fn run_block_dwt(
    scfg: &SpmdConfig,
    cfg: &MimdDwtConfig,
    image: &Matrix,
) -> Result<BlockDwtRun, MimdError> {
    cfg.validate()?;
    dwt2d::validate_dims(image.rows(), image.cols(), cfg.filter.len(), cfg.levels)?;
    let (pr, pc) = process_grid(scfg.nranks);
    let res = paragon::run_spmd(scfg, |ctx| rank_body(ctx, cfg, image, pr, pc))?;
    let outs: Vec<BlockRankOut> = collect_outputs(cfg.resilience, res.outputs, scfg.nranks)?;
    let mut comm = CommStats::default();
    for out in &outs {
        comm.guard_messages += out.sent_messages;
        comm.guard_bytes += out.sent_bytes;
    }
    let pyramid = assemble(&outs, image.rows(), image.cols(), cfg.levels);
    Ok(BlockDwtRun {
        pyramid,
        budgets: res.budgets,
        comm,
        faults: res.faults,
        timeline: res.timeline,
    })
}

/// The per-rank SPMD program, written over the set of roles (grid
/// positions) this rank plays: exactly its own in fail-fast mode, a set
/// that grows as scheduled crashes retire other ranks in resilient mode.
fn rank_body(
    ctx: &mut Ctx,
    cfg: &MimdDwtConfig,
    image: &Matrix,
    pr: usize,
    pc: usize,
) -> Result<Vec<(usize, BlockRankOut)>, CommError> {
    let me = ctx.rank();
    let nranks = ctx.nranks();
    let f = cfg.filter.len();
    let wire = f + 2;
    let (rows0, cols0) = (image.rows(), image.cols());
    let seed: Vec<f64> = (0..nranks)
        .map(|r| {
            let reg = region_of(r, pr, pc, rows0, cols0);
            (reg.rows.rows() * reg.cols.rows()) as f64
        })
        .collect();
    let mut rec = Recovery::new(ctx, cfg, BLOCK_LEVEL_PHASES, seed);
    let mut roles: BTreeMap<usize, RoleState> = BTreeMap::new();
    let mut stats = (0u64, 0u64);

    // Initial distribution timing (same model as the striped version).
    if cfg.include_distribution {
        let mut out = Vec::new();
        if me == 0 {
            for j in 1..nranks {
                let rj = region_of(j, pr, pc, rows0, cols0);
                out.push((j, (), rj.rows.rows() * rj.cols.rows() * cfg.pixel_bytes));
            }
        }
        ctx.exchange::<()>(out)?;
    }

    let mut rows_l = rows0;
    let mut cols_l = cols0;

    for level in 0..cfg.levels {
        rec.handoff(ctx, cfg, &mut roles)?;
        if level == 0 {
            // Cut role blocks straight from the globally known image
            // (adopters included — level-0 state needs no checkpoint).
            for role in rec.roles_of(me) {
                let r = region_of(role, pr, pc, rows0, cols0);
                let input = image
                    .submatrix(r.rows.lo, r.cols.lo, r.rows.rows(), r.cols.rows())
                    .map_err(|_| CommError::Protocol {
                        detail: "block outside the image (partition bookkeeping broke)",
                    })?;
                ctx.charge_as(
                    Ops {
                        flops: 0,
                        intops: 32,
                        memops: 2 * (input.rows() * input.cols()) as u64,
                    },
                    Category::UniqueRedundancy,
                );
                roles.insert(role, RoleState::new(input));
            }
        }

        // Which global columns does a block-column need beyond its own?
        let needs_cols = |cols: Stripe| -> Vec<usize> {
            let out_c = output_range(cols);
            let mut needed = Vec::new();
            for k in out_c.lo..out_c.hi {
                for m in 0..wire {
                    if let Some(g) = cfg.mode.map((2 * k + m) as isize, cols_l) {
                        if !cols.contains(g) {
                            needed.push(g);
                        }
                    }
                }
            }
            needed.sort_unstable();
            needed.dedup();
            needed
        };

        // --- Guard COLUMNS for the row pass (east/west peers in the
        // block-row), addressed role to role. ---------------------------
        let mut sends: Vec<crate::RoleSend> = Vec::new();
        for (&a, st) in &roles {
            let ra = region_of(a, pr, pc, rows_l, cols_l);
            let block_row = a / pc;
            for peer_col in 0..pc {
                let j = block_row * pc + peer_col;
                if j == a {
                    continue;
                }
                let rj = region_of(j, pr, pc, rows_l, cols_l);
                let mine: Vec<usize> = needs_cols(rj.cols)
                    .into_iter()
                    .filter(|&g| ra.cols.contains(g))
                    .collect();
                for (lo, hi) in contiguous_runs(&mine) {
                    let mut payload = Vec::with_capacity((hi - lo) * ra.rows.rows());
                    for g in lo..hi {
                        for r in 0..ra.rows.rows() {
                            payload.push(st.input.get(r, g - ra.cols.lo));
                        }
                    }
                    let bytes = payload.len() * cfg.pixel_bytes;
                    let dst = rec.owner(j);
                    if dst != me {
                        stats.0 += 1;
                        stats.1 += bytes as u64;
                    }
                    sends.push((dst, (j, lo, payload), bytes));
                }
            }
        }
        let mut col_guards: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
        for (_, (role, lo, payload)) in ctx.exchange(sends)? {
            // Sender and consumer share the block-row, so the consumer's
            // own row count sizes the payload.
            let nrows = region_of(role, pr, pc, rows_l, cols_l).rows.rows();
            let ncols = payload.len() / nrows;
            for (i, g) in (lo..lo + ncols).enumerate() {
                col_guards.insert((role, g), payload[i * nrows..(i + 1) * nrows].to_vec());
            }
        }

        // --- Row pass per role, with per-role compute timing for the
        // re-partition cost model. ---------------------------------------
        let mut filt: BTreeMap<usize, (Matrix, Matrix)> = BTreeMap::new();
        let mut cost: BTreeMap<usize, f64> = BTreeMap::new();
        for (&a, st) in &roles {
            let t0 = ctx.now();
            let ra = region_of(a, pr, pc, rows_l, cols_l);
            let out_c = output_range(ra.cols);
            let own_rows = ra.rows.rows();
            let out_cols = out_c.hi - out_c.lo;
            let mut low = Matrix::zeros(own_rows, out_cols);
            let mut high = Matrix::zeros(own_rows, out_cols);
            for (ki, k) in (out_c.lo..out_c.hi).enumerate() {
                for m in 0..f {
                    let Some(g) = cfg.mode.map((2 * k + m) as isize, cols_l) else {
                        continue;
                    };
                    let tl = cfg.filter.low()[m];
                    let th = cfg.filter.high()[m];
                    for r in 0..own_rows {
                        let x = if ra.cols.contains(g) {
                            st.input.get(r, g - ra.cols.lo)
                        } else {
                            match col_guards.get(&(a, g)) {
                                Some(col) => col[r],
                                None => {
                                    return Err(CommError::Protocol {
                                        detail: crate::GUARD_LOST,
                                    })
                                }
                            }
                        };
                        *low.row_mut(r).get_mut(ki).unwrap() += tl * x;
                        *high.row_mut(r).get_mut(ki).unwrap() += th * x;
                    }
                }
            }
            ctx.charge(coeff_ops(f).times(2 * (own_rows * out_cols) as u64));
            cost.insert(a, ctx.now() - t0);
            filt.insert(a, (low, high));
        }
        drop(col_guards);

        // Which global rows does a block-row need beyond its own?
        let needs_rows = |rows: Stripe| -> Vec<usize> {
            let out = output_range(rows);
            let mut needed = Vec::new();
            for k in out.lo..out.hi {
                for m in 0..wire {
                    if let Some(g) = cfg.mode.map((2 * k + m) as isize, rows_l) {
                        if !rows.contains(g) {
                            needed.push(g);
                        }
                    }
                }
            }
            needed.sort_unstable();
            needed.dedup();
            needed
        };

        // --- Guard ROWS for the column pass (north/south peers in the
        // block-column), addressed role to role. -------------------------
        let mut sends: Vec<crate::RoleSend> = Vec::new();
        for &a in roles.keys() {
            let ra = region_of(a, pr, pc, rows_l, cols_l);
            let out_cols = output_range(ra.cols).hi - output_range(ra.cols).lo;
            let (low, high) = &filt[&a];
            let block_col = a % pc;
            for peer_row in 0..pr {
                let j = peer_row * pc + block_col;
                if j == a {
                    continue;
                }
                let rj = region_of(j, pr, pc, rows_l, cols_l);
                let mine: Vec<usize> = needs_rows(rj.rows)
                    .into_iter()
                    .filter(|&g| ra.rows.contains(g))
                    .collect();
                for (lo, hi) in contiguous_runs(&mine) {
                    let run = hi - lo;
                    let mut payload = Vec::with_capacity(2 * run * out_cols);
                    for g in lo..hi {
                        payload.extend_from_slice(low.row(g - ra.rows.lo));
                    }
                    for g in lo..hi {
                        payload.extend_from_slice(high.row(g - ra.rows.lo));
                    }
                    let bytes = payload.len() * cfg.pixel_bytes;
                    let dst = rec.owner(j);
                    if dst != me {
                        stats.0 += 1;
                        stats.1 += bytes as u64;
                    }
                    sends.push((dst, (j, lo, payload), bytes));
                }
            }
        }
        let mut row_guards: HashMap<(usize, usize), (Vec<f64>, Vec<f64>)> = HashMap::new();
        for (_, (role, lo, payload)) in ctx.exchange(sends)? {
            // Sender and consumer share the block-column, so the
            // consumer's own output width sizes the payload.
            let rc = region_of(role, pr, pc, rows_l, cols_l).cols;
            let out_cols = output_range(rc).hi - output_range(rc).lo;
            let run = payload.len() / (2 * out_cols);
            for (i, g) in (lo..lo + run).enumerate() {
                row_guards.insert(
                    (role, g),
                    (
                        payload[i * out_cols..(i + 1) * out_cols].to_vec(),
                        payload[(run + i) * out_cols..(run + i + 1) * out_cols].to_vec(),
                    ),
                );
            }
        }

        // --- Column pass per role. --------------------------------------
        let half_cols_l = cols_l / 2;
        let mut lls: BTreeMap<usize, Matrix> = BTreeMap::new();
        for (&a, st) in roles.iter_mut() {
            let t0 = ctx.now();
            let ra = region_of(a, pr, pc, rows_l, cols_l);
            let out_r = output_range(ra.rows);
            let out_c = output_range(ra.cols);
            let out_rows = out_r.hi - out_r.lo;
            let out_cols = out_c.hi - out_c.lo;
            let (low, high) = &filt[&a];
            let mut ll = Matrix::zeros(out_rows, out_cols);
            let mut lh = Matrix::zeros(out_rows, out_cols);
            let mut hl = Matrix::zeros(out_rows, out_cols);
            let mut hh = Matrix::zeros(out_rows, out_cols);
            for (ki, k) in (out_r.lo..out_r.hi).enumerate() {
                for m in 0..f {
                    let Some(g) = cfg.mode.map((2 * k + m) as isize, rows_l) else {
                        continue;
                    };
                    let tl = cfg.filter.low()[m];
                    let th = cfg.filter.high()[m];
                    let (lrow, hrow): (&[f64], &[f64]) = if ra.rows.contains(g) {
                        (low.row(g - ra.rows.lo), high.row(g - ra.rows.lo))
                    } else {
                        match row_guards.get(&(a, g)) {
                            Some((l, h)) => (l, h),
                            None => {
                                return Err(CommError::Protocol {
                                    detail: crate::GUARD_LOST,
                                })
                            }
                        }
                    };
                    dwt::engine::kernel::accumulate_quad(
                        ll.row_mut(ki),
                        lh.row_mut(ki),
                        hl.row_mut(ki),
                        hh.row_mut(ki),
                        lrow,
                        hrow,
                        tl,
                        th,
                    );
                }
            }
            ctx.charge(coeff_ops(f).times(4 * (out_rows * out_cols) as u64));
            *cost.entry(a).or_insert(0.0) += ctx.now() - t0;
            st.details.push(DetailTile {
                k_row: out_r.lo,
                k_col: out_c.lo,
                lh,
                hl,
                hh,
            });
            lls.insert(a, ll);
        }
        drop(filt);
        drop(row_guards);

        // --- Redistribute LL to the next level's block bounds, role to
        // role (a row can split across a block-row of owners). -----------
        let (prev_rows, prev_cols) = (rows_l, cols_l);
        rows_l /= 2;
        cols_l = half_cols_l;
        type RowSegMsg = (usize, (usize, usize, usize, Vec<f64>), usize);
        let mut sends: Vec<RowSegMsg> = Vec::new();
        for (&a, ll) in &lls {
            let ra = region_of(a, pr, pc, prev_rows, prev_cols);
            let out_r = output_range(ra.rows);
            let out_c = output_range(ra.cols);
            for (ki, k) in (out_r.lo..out_r.hi).enumerate() {
                let dst_block_row = owner(k, rows_l, pr);
                for (ci_lo, ci_hi) in split_by_owner(out_c.lo, out_c.hi, cols_l, pc) {
                    let dst_block_col = owner(ci_lo, cols_l, pc);
                    let dst_role = dst_block_row * pc + dst_block_col;
                    if dst_role == a {
                        continue; // stays within the role; copied below
                    }
                    let seg: Vec<f64> = (ci_lo..ci_hi).map(|c| ll.get(ki, c - out_c.lo)).collect();
                    let bytes = seg.len() * cfg.pixel_bytes;
                    sends.push((rec.owner(dst_role), (dst_role, k, ci_lo, seg), bytes));
                }
            }
        }
        let incoming = ctx.exchange(sends)?;
        for (&a, st) in roles.iter_mut() {
            let ra = region_of(a, pr, pc, prev_rows, prev_cols);
            let out_r = output_range(ra.rows);
            let out_c = output_range(ra.cols);
            let next = region_of(a, pr, pc, rows_l, cols_l);
            let ll = &lls[&a];
            let mut next_input = Matrix::zeros(next.rows.rows(), next.cols.rows());
            for k in next.rows.lo..next.rows.hi {
                if !out_r.contains(k) {
                    continue;
                }
                for c in next.cols.lo..next.cols.hi {
                    if out_c.contains(c) {
                        next_input.set(
                            k - next.rows.lo,
                            c - next.cols.lo,
                            ll.get(k - out_r.lo, c - out_c.lo),
                        );
                    }
                }
            }
            st.input = next_input;
        }
        for (_, (dst_role, k, c_lo, seg)) in incoming {
            let st = roles.get_mut(&dst_role).ok_or(CommError::Protocol {
                detail: "LL segment routed to a rank not playing its role",
            })?;
            let next = region_of(dst_role, pr, pc, rows_l, cols_l);
            for (i, v) in seg.into_iter().enumerate() {
                let c = c_lo + i;
                if next.rows.contains(k) && next.cols.contains(c) {
                    st.input.set(k - next.rows.lo, c - next.cols.lo, v);
                }
            }
        }

        rec.end_level(ctx, &cost)?;
    }

    if cfg.include_distribution {
        rec.gather(ctx, cfg, &roles)?;
    }

    // Wire-traffic counters ride on the first returned role so the
    // driver's cross-rank sum stays correct whatever the role spread.
    let mut first = true;
    Ok(roles
        .into_iter()
        .map(|(role, st)| {
            let (sent_messages, sent_bytes) = if first {
                first = false;
                stats
            } else {
                (0, 0)
            };
            let fin = region_of(role, pr, pc, rows_l, cols_l);
            (
                role,
                BlockRankOut {
                    details: st.details,
                    ll_row: fin.rows.lo,
                    ll_col: fin.cols.lo,
                    ll: st.input,
                    sent_messages,
                    sent_bytes,
                },
            )
        })
        .collect())
}

/// Split the global column range `[lo, hi)` at the ownership boundaries
/// of `stripes(cols_l, pc)`.
fn split_by_owner(lo: usize, hi: usize, cols_l: usize, pc: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut cur = lo;
    while cur < hi {
        let own = owner(cur, cols_l, pc);
        let end = stripes(cols_l, pc)[own].hi.min(hi);
        out.push((cur, end));
        cur = end;
    }
    out
}

fn assemble(outs: &[BlockRankOut], rows: usize, cols: usize, levels: usize) -> Pyramid {
    let mut detail = Vec::with_capacity(levels);
    for level in 1..=levels {
        let h = rows >> level;
        let w = cols >> level;
        let mut lh = Matrix::zeros(h, w);
        let mut hl = Matrix::zeros(h, w);
        let mut hh = Matrix::zeros(h, w);
        for out in outs {
            let d = &out.details[level - 1];
            lh.paste(d.k_row, d.k_col, &d.lh).expect("block fits");
            hl.paste(d.k_row, d.k_col, &d.hl).expect("block fits");
            hh.paste(d.k_row, d.k_col, &d.hh).expect("block fits");
        }
        detail.push(Subbands { lh, hl, hh });
    }
    let mut approx = Matrix::zeros(rows >> levels, cols >> levels);
    for out in outs {
        approx
            .paste(out.ll_row, out.ll_col, &out.ll)
            .expect("block fits");
    }
    Pyramid { approx, detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResiliencePolicy;
    use dwt::boundary::Boundary;
    use dwt::filters::FilterBank;
    use paragon::{FaultPlan, MachineSpec, Mapping};

    fn image(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| ((r * 13 + c * 29) % 31) as f64 - 15.0)
    }

    fn scfg(p: usize) -> SpmdConfig {
        SpmdConfig::new(MachineSpec::paragon(), p, Mapping::Snake)
    }

    #[test]
    fn process_grid_is_near_square_and_exact() {
        assert_eq!(process_grid(1), (1, 1));
        assert_eq!(process_grid(4), (2, 2));
        assert_eq!(process_grid(6), (2, 3));
        assert_eq!(process_grid(16), (4, 4));
        assert_eq!(process_grid(7), (1, 7));
        for p in 1..=32 {
            let (a, b) = process_grid(p);
            assert_eq!(a * b, p);
        }
    }

    #[test]
    fn block_matches_sequential_bitwise() {
        let img = image(64);
        for taps in [2usize, 4, 8] {
            let bank = FilterBank::daubechies(taps).unwrap();
            let seq = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
            for p in [1usize, 4, 6, 9, 16] {
                let cfg = MimdDwtConfig::tuned(bank.clone(), 2);
                let run = run_block_dwt(&scfg(p), &cfg, &img).unwrap();
                assert_eq!(run.pyramid, seq, "D{taps} P={p} block differs");
            }
        }
    }

    #[test]
    fn block_needs_about_twice_the_transactions_of_stripes() {
        // Figure 3's claim, measured. 16 ranks in a 4x4 grid: two guard
        // exchanges per level vs the stripe version's one.
        let img = image(128);
        let bank = FilterBank::daubechies(8).unwrap();
        let cfg = MimdDwtConfig::tuned(bank.clone(), 2);
        let block = run_block_dwt(&scfg(16), &cfg, &img).unwrap();
        // Striped: count messages analytically — each interior rank
        // receives one guard message per level = 15 messages x 2 levels.
        let stripe_msgs = 15 * 2;
        assert!(
            block.comm.guard_messages >= (1.7 * stripe_msgs as f64) as u64,
            "block sent only {} guard messages vs stripes' {}",
            block.comm.guard_messages,
            stripe_msgs
        );
    }

    #[test]
    fn stripes_beat_blocks_on_virtual_time() {
        let img = image(128);
        let bank = FilterBank::daubechies(8).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2);
        let block = run_block_dwt(&scfg(16), &cfg, &img).unwrap();
        let stripe = crate::run_mimd_dwt(&scfg(16), &cfg, &img).unwrap();
        assert!(
            stripe.parallel_time() <= block.parallel_time() * 1.02,
            "stripes {:.4}s should not lose to blocks {:.4}s",
            stripe.parallel_time(),
            block.parallel_time()
        );
    }

    #[test]
    fn deterministic() {
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2);
        let a = run_block_dwt(&scfg(9), &cfg, &img).unwrap();
        let b = run_block_dwt(&scfg(9), &cfg, &img).unwrap();
        assert_eq!(a.parallel_time(), b.parallel_time());
        assert_eq!(a.pyramid, b.pyramid);
    }

    #[test]
    fn redistribute_without_faults_matches_sequential_bitwise() {
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let seq = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2).with_resilience(ResiliencePolicy::Redistribute);
        for p in [1usize, 4, 6, 9] {
            let run = run_block_dwt(&scfg(p), &cfg, &img).unwrap();
            assert_eq!(run.pyramid, seq, "P={p}");
            assert!(run.faults.crashed_ranks.is_empty());
        }
    }

    #[test]
    fn block_crash_recovery_is_bit_identical_to_fault_free() {
        // The headline acceptance case: a 3x3 grid loses a mid-grid rank
        // partway through the decomposition; survivors adopt its block
        // and the output matches the fault-free transform bit for bit.
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let seq = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2).with_resilience(ResiliencePolicy::Redistribute);
        // 2 levels => phases 0..=13; phase 7 is the level-1 checkpoint
        // handoff — the boundary the inclusive lookahead window must
        // cover.
        let plan = FaultPlan::none().with_crash(4, 7);
        let scfg = scfg(9).with_faults(plan);
        let run = run_block_dwt(&scfg, &cfg, &img).unwrap();
        assert_eq!(
            run.pyramid, seq,
            "recovered block run must be bit-identical to the fault-free transform"
        );
        assert_eq!(run.faults.crashed_ranks, vec![4]);
    }

    #[test]
    fn block_crash_at_every_phase_recovers_bit_identically() {
        // 4 ranks (2x2), 2 levels => phases 0..=13 (scatter, 2 x 6 level
        // phases, gather).
        let img = image(32);
        let bank = FilterBank::daubechies(4).unwrap();
        let seq = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2).with_resilience(ResiliencePolicy::Redistribute);
        for phase in 0..14u64 {
            let plan = FaultPlan::none().with_crash(2, phase);
            let scfg = scfg(4).with_faults(plan);
            let run = run_block_dwt(&scfg, &cfg, &img)
                .unwrap_or_else(|e| panic!("crash at phase {phase} not recovered: {e}"));
            assert_eq!(run.pyramid, seq, "crash at phase {phase} corrupted output");
        }
    }
}
