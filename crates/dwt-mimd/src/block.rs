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
//! The guard zone is the striped transform's (the `guard` module): the
//! same needed-line set, payload and lookup, with a block-row's peers
//! sending guard *columns* and a block-column's peers guard rows; the
//! column pass and the pyramid assembly are the striped transform's too.
//! The exchanges are always simultaneous: a chain-ordered configuration
//! ([`crate::GuardOrdering::ChainOrdered`]) is rejected.
//!
//! Like the striped transform, the block transform is fault-aware: under
//! [`crate::ResiliencePolicy::Redistribute`] the grid positions become *roles*
//! that move to survivors ahead of scheduled crashes (see the
//! [`crate::resilience`] module docs), and the recovered run stays
//! bit-identical to the fault-free transform.

use std::collections::BTreeMap;

use dwt::dwt2d;
use dwt::matrix::Matrix;
use dwt::pyramid::Pyramid;
use paragon::{CommError, Ctx, FaultStats, SpmdConfig};
use perfbudget::RankBudget;

use crate::guard::{guard_runs, pack, pack_rows, Guards, RoleSend};
use crate::partition::{output_range, owner, stripes, Stripe};
use crate::resilience::{collect_outputs, Recovery, RoleState};
use crate::{assemble, coeff_ops, column_pass, MimdDwtConfig, MimdError, RankOut};

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
        crate::parallel_time(&self.budgets)
    }
}

/// What one role returns: its tiles, and (on a rank's first role only)
/// the rank's guard traffic.
type RoleOut = (RankOut, CommStats);

/// Collective phases one resilient block level executes: checkpoint
/// handoff, column-guard exchange, row-guard exchange, LL
/// redistribution, cost report, barrier.
const BLOCK_LEVEL_PHASES: u64 = 6;

/// Run the block-decomposed Mallat transform. The guard exchanges are
/// always simultaneous, so a chain-ordered `cfg.ordering` is rejected
/// with [`MimdError::InvalidConfig`]; distribution timing follows
/// `cfg.include_distribution` as in the striped version.
pub fn run_block_dwt(
    scfg: &SpmdConfig,
    cfg: &MimdDwtConfig,
    image: &Matrix,
) -> Result<BlockDwtRun, MimdError> {
    cfg.validate()?;
    cfg.require_simultaneous("block transform")?;
    dwt2d::validate_dims(image.rows(), image.cols(), cfg.filter.len(), cfg.levels)?;
    let (pr, pc) = process_grid(scfg.nranks);
    let res = paragon::run_spmd(scfg, |ctx| rank_body(ctx, cfg, image, pr, pc))?;
    let (outs, sent): (Vec<RankOut>, Vec<CommStats>) =
        collect_outputs(cfg.resilience, res.outputs, scfg.nranks)?
            .into_iter()
            .unzip();
    let mut comm = CommStats::default();
    for s in sent {
        comm.guard_messages += s.guard_messages;
        comm.guard_bytes += s.guard_bytes;
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
) -> Result<Vec<(usize, RoleOut)>, CommError> {
    let me = ctx.rank();
    let nranks = ctx.nranks();
    let f = cfg.filter.len();
    let (rows0, cols0) = (image.rows(), image.cols());
    let tiles: Vec<usize> = (0..nranks)
        .map(|r| {
            let reg = region_of(r, pr, pc, rows0, cols0);
            reg.rows.rows() * reg.cols.rows()
        })
        .collect();
    let seed: Vec<f64> = tiles.iter().map(|&t| t as f64).collect();
    let mut rec = Recovery::new(ctx, cfg, BLOCK_LEVEL_PHASES, seed);
    let mut roles: BTreeMap<usize, RoleState> = BTreeMap::new();
    let mut stats = CommStats::default();
    rec.scatter(ctx, cfg, |j| tiles[j])?;

    let mut rows_l = rows0;
    let mut cols_l = cols0;

    for level in 0..cfg.levels {
        rec.handoff(ctx, cfg, &mut roles)?;
        if level == 0 {
            rec.cut_inputs(ctx, &mut roles, image, 32, |role| {
                let r = region_of(role, pr, pc, rows0, cols0);
                (r.rows.lo, r.cols.lo, r.rows.rows(), r.cols.rows())
            })?;
        }
        let region = |role: usize| region_of(role, pr, pc, rows_l, cols_l);

        // --- Guard COLUMNS for the row pass (east/west peers in the
        // block-row), addressed role to role: one band, a column of the
        // holder's rows per line. -----------------------------------------
        let mut sends: Vec<RoleSend> = Vec::new();
        for (&a, st) in &roles {
            let ra = region(a);
            let nrows = ra.rows.rows();
            for j in (0..pc).map(|c| a / pc * pc + c).filter(|&j| j != a) {
                for run in guard_runs(cfg, region(j).cols, ra.cols, cols_l) {
                    sends.push(pack(cfg, (rec.owner(j), j), 1, run, |_, g| {
                        (0..nrows).map(move |r| st.input.get(r, g - ra.cols.lo))
                    }));
                }
            }
        }
        tally(&mut stats, me, &sends);
        let col_guards = Guards::<1>::unpack(ctx.exchange(sends)?);

        // --- Row pass per role, with per-role compute timing for the
        // re-partition cost model. ---------------------------------------
        let mut filt: BTreeMap<usize, (Matrix, Matrix)> = BTreeMap::new();
        let mut cost: BTreeMap<usize, f64> = BTreeMap::new();
        for (&a, st) in &roles {
            let t0 = ctx.now();
            let ra = region(a);
            let out_c = output_range(ra.cols);
            let own_rows = ra.rows.rows();
            let out_cols = out_c.rows();
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
                            col_guards.get(a, g)?[0][r]
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

        // --- Guard ROWS for the column pass (north/south peers in the
        // block-column), addressed role to role. -------------------------
        let mut sends: Vec<RoleSend> = Vec::new();
        for &a in roles.keys() {
            let ra = region(a);
            let (low, high) = &filt[&a];
            for j in (0..pr).map(|r| r * pc + a % pc).filter(|&j| j != a) {
                let to = (rec.owner(j), j);
                for run in guard_runs(cfg, region(j).rows, ra.rows, rows_l) {
                    sends.push(pack_rows(cfg, to, &[low, high], ra.rows, run));
                }
            }
        }
        tally(&mut stats, me, &sends);
        let row_guards = Guards::<2>::unpack(ctx.exchange(sends)?);

        // --- Column pass per role: the striped transform's, over the
        // block's output columns. ----------------------------------------
        let mut lls: BTreeMap<usize, Matrix> = BTreeMap::new();
        for (&a, st) in roles.iter_mut() {
            let t0 = ctx.now();
            let ra = region(a);
            let (low, high) = &filt[&a];
            let out_c = output_range(ra.cols);
            let (ll, detail) = column_pass(ctx, cfg, output_range(ra.rows), out_c, rows_l, |g| {
                if ra.rows.contains(g) {
                    Ok([low.row(g - ra.rows.lo), high.row(g - ra.rows.lo)])
                } else {
                    row_guards.get(a, g)
                }
            })?;
            *cost.entry(a).or_insert(0.0) += ctx.now() - t0;
            st.details.push(detail);
            lls.insert(a, ll);
        }
        drop(filt);
        drop(row_guards);

        // --- Redistribute LL to the next level's block bounds, role to
        // role (a row can split across a block-row of owners). -----------
        let (prev_rows, prev_cols) = (rows_l, cols_l);
        rows_l /= 2;
        cols_l /= 2;
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

    rec.gather(ctx, cfg, &roles)?;

    // Wire-traffic counters ride on the first returned role so the
    // driver's cross-rank sum stays correct whatever the role spread.
    let mut sent = Some(stats);
    Ok(roles
        .into_iter()
        .map(|(role, st)| {
            let fin = region_of(role, pr, pc, rows_l, cols_l);
            let out = RankOut {
                details: st.details,
                ll_row: fin.rows.lo,
                ll_col: fin.cols.lo,
                ll: st.input,
            };
            (role, (out, sent.take().unwrap_or_default()))
        })
        .collect())
}

/// Count the guard messages of `sends` that leave this rank: data
/// passed between two roles of the same rank is not a transaction.
fn tally(stats: &mut CommStats, me: usize, sends: &[RoleSend]) {
    for &(_, _, bytes) in sends.iter().filter(|s| s.0 != me) {
        stats.guard_messages += 1;
        stats.guard_bytes += bytes as u64;
    }
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
        for mode in Boundary::ALL {
            for taps in [2usize, 4, 8] {
                let bank = FilterBank::daubechies(taps).unwrap();
                let seq = dwt2d::decompose(&img, &bank, 2, mode).unwrap();
                for p in [1usize, 2, 4, 6, 8, 9, 16] {
                    let cfg = MimdDwtConfig {
                        mode,
                        ..MimdDwtConfig::tuned(bank.clone(), 2)
                    };
                    let run = run_block_dwt(&scfg(p), &cfg, &img).unwrap();
                    assert_eq!(run.pyramid, seq, "D{taps} P={p} {mode:?} block differs");
                }
            }
        }
    }

    #[test]
    fn blocks_left_empty_at_the_deepest_level_match_sequential() {
        // Regression: a 4x4 grid on 16x16 / L3 leaves some blocks of the
        // last level's 2x2 input without rows or output columns. Their
        // guard messages carry empty payloads, which the receiver once
        // divided by a zero line width (a rank panic).
        let img = image(16);
        let bank = FilterBank::haar();
        let seq = dwt2d::decompose(&img, &bank, 3, Boundary::Periodic).unwrap();
        for policy in [ResiliencePolicy::FailFast, ResiliencePolicy::Redistribute] {
            let cfg = MimdDwtConfig::tuned(bank.clone(), 3).with_resilience(policy);
            let run = run_block_dwt(&scfg(16), &cfg, &img).unwrap();
            assert_eq!(run.pyramid, seq, "{policy:?}");
        }
    }

    #[test]
    fn chain_ordering_is_rejected_typed() {
        // Block exchanges are always simultaneous: a chain-ordered config
        // must not run a simultaneous exchange and be reported as chain.
        let cfg = MimdDwtConfig {
            ordering: crate::GuardOrdering::ChainOrdered,
            ..MimdDwtConfig::tuned(FilterBank::haar(), 1)
        };
        assert!(matches!(
            run_block_dwt(&scfg(4), &cfg, &image(32)).unwrap_err(),
            MimdError::InvalidConfig { .. }
        ));
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
