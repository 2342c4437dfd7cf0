//! Distributed Mallat **reconstruction** (the paper's figure 2): the
//! exact reverse of the striped decomposition. Each level's column
//! synthesis needs guard coefficient rows from the *north* neighbour —
//! the mirror image of the forward transform's south guard zone.
//!
//! Only [`Boundary::Periodic`] is supported (the synthesis gather form
//! of the other modes is not separable per rank); this is also the only
//! mode with exact perfect reconstruction. The guard zone is the forward
//! transforms' (the `guard` module), four bands (approximation, `LH`,
//! `HL`, `HH`) to a line, always exchanged simultaneously: a
//! chain-ordered configuration is rejected.
//!
//! Like the forward transforms, reconstruction is fault-aware: the one
//! per-rank body runs over stripe *roles*, which under
//! [`crate::ResiliencePolicy::Redistribute`] are re-partitioned across
//! survivors ahead of scheduled crashes (see the [`crate::resilience`]
//! module docs; fail-fast keeps the identity assignment). The synthesis
//! checkpoint is small: only each role's partial reconstruction needs
//! shipping — the coefficient pyramid is the globally known input, so
//! detail bands are cut locally by whoever plays the role, exactly as
//! the forward transform cuts level-0 stripes from the source image.

use std::collections::BTreeMap;

use dwt::boundary::Boundary;
use dwt::matrix::Matrix;
use dwt::pyramid::Pyramid;
use paragon::{CommError, Ctx, FaultStats, Ops, SpmdConfig};
use perfbudget::{Category, RankBudget};

use crate::guard::{held_runs, pack_rows, Guards, RoleSend};
use crate::partition::{stripes, Stripe};
use crate::resilience::{collect_outputs, Recovery, RoleState};
use crate::{coeff_ops, MimdDwtConfig, MimdError};

/// Result of a distributed reconstruction.
#[derive(Debug)]
pub struct MimdIdwtRun {
    /// The reconstructed image (equal to the sequential
    /// [`dwt::dwt2d::reconstruct`] to round-off; the distributed column
    /// synthesis associates its additions differently).
    pub image: Matrix,
    /// Per-rank budgets.
    pub budgets: Vec<RankBudget>,
    /// Injected-fault totals and the ranks that crashed.
    pub faults: FaultStats,
    /// One record per collective phase, in program order (per-phase wire
    /// traffic audit, as in [`crate::MimdDwtRun::timeline`]).
    pub timeline: Vec<paragon::PhaseRecord>,
}

impl MimdIdwtRun {
    /// Parallel execution time.
    pub fn parallel_time(&self) -> f64 {
        crate::parallel_time(&self.budgets)
    }
}

/// Coefficient rows of the half-resolution grid that the synthesis of
/// output rows `[out.lo, out.hi)` consumes: `k = (n - m)/2 mod half`
/// for every tap index `m` of matching parity.
fn needed_coeff_rows(out: Stripe, f: usize, half: usize) -> impl Iterator<Item = usize> {
    (out.lo..out.hi).flat_map(move |n| {
        (0..f).filter_map(move |m| {
            let t = n as isize - m as isize;
            (t % 2 == 0).then(|| (t / 2).rem_euclid(half as isize) as usize)
        })
    })
}

/// Run the distributed reconstruction of `pyramid` on the simulated
/// machine. The filter/levels in `cfg` must match the pyramid.
pub fn run_mimd_idwt(
    scfg: &SpmdConfig,
    cfg: &MimdDwtConfig,
    pyramid: &Pyramid,
) -> Result<MimdIdwtRun, MimdError> {
    cfg.validate()?;
    cfg.require_simultaneous("distributed reconstruction")?;
    if cfg.mode != Boundary::Periodic {
        return Err(MimdError::InvalidConfig {
            detail: "distributed reconstruction supports periodic boundaries only".into(),
        });
    }
    if cfg.levels != pyramid.levels() {
        return Err(MimdError::InvalidConfig {
            detail: format!(
                "config says {} levels but the pyramid has {}",
                cfg.levels,
                pyramid.levels()
            ),
        });
    }
    let (rows0, cols0) = pyramid.image_dims();
    dwt::dwt2d::validate_dims(rows0, cols0, cfg.filter.len(), cfg.levels)?;
    let res = paragon::run_spmd(scfg, |ctx| rank_body(ctx, cfg, pyramid))?;
    let outs = collect_outputs(cfg.resilience, res.outputs, scfg.nranks)?;
    let mut image = Matrix::zeros(rows0, cols0);
    for (stripe, at) in outs.iter().zip(stripes(rows0, scfg.nranks)) {
        image.paste(at.lo, 0, stripe).expect("stripe fits");
    }
    Ok(MimdIdwtRun {
        image,
        budgets: res.budgets,
        faults: res.faults,
        timeline: res.timeline,
    })
}

/// Collective phases one resilient reconstruction level executes:
/// checkpoint handoff, guard exchange, cost report, barrier.
const IDWT_LEVEL_PHASES: u64 = 4;

/// The per-rank SPMD program, written over the *set* of stripe roles
/// this rank plays: its own under fail-fast (which also skips the
/// handoff and cost-report phases), a set adopted ahead of scheduled
/// crashes under redistribution (see the [`crate::resilience`] module
/// docs). Only each role's partial reconstruction is role state — the
/// coefficient pyramid is the globally known input of the transform.
fn rank_body(
    ctx: &mut Ctx,
    cfg: &MimdDwtConfig,
    pyramid: &Pyramid,
) -> Result<Vec<(usize, Matrix)>, CommError> {
    let nranks = ctx.nranks();
    let f = cfg.filter.len();
    let (rows0, cols0) = pyramid.image_dims();
    let levels = cfg.levels;
    let seed: Vec<f64> = stripes(rows0 >> levels, nranks)
        .iter()
        .map(|s| s.rows() as f64)
        .collect();
    let mut rec = Recovery::new(ctx, cfg, IDWT_LEVEL_PHASES, seed);
    let mut roles: BTreeMap<usize, RoleState> = BTreeMap::new();
    // Coefficient stripes, approximately: an even split of the pyramid.
    rec.scatter(ctx, cfg, |_| rows0 * cols0 / nranks)?;

    for level in (1..=levels).rev() {
        let half_rows = rows0 >> level;
        let half_cols = cols0 >> level;
        // A level's output stripe is exactly the next iteration's
        // coefficient stripe (stripes() is consistent across levels).
        let coeff_stripes = stripes(half_rows, nranks);
        let out_stripes = stripes(half_rows * 2, nranks);

        rec.handoff(ctx, cfg, &mut roles)?;
        if level == levels {
            // Start from the deepest LL stripes.
            rec.cut_inputs(ctx, &mut roles, &pyramid.approx, 16, |r| {
                let s = coeff_stripes[r];
                (s.lo, 0, s.rows(), half_cols)
            })?;
        }

        // Detail bands per role, cut from the globally known input.
        let mut bands: BTreeMap<usize, [Matrix; 3]> = BTreeMap::new();
        for &a in roles.keys() {
            bands.insert(a, cut_bands(pyramid, level, coeff_stripes[a], half_cols));
        }

        // --- Role-addressed guard exchange: coefficient rows other
        // roles' column synthesis needs (from the north). Everyone
        // derives everyone's needs from the shared formula, so the send
        // plan requires no request round-trip. Messages between two
        // roles of the same rank ride the free self-route.
        ctx.charge_as(
            Ops {
                flops: 0,
                intops: 30 * (nranks * roles.len().max(1)) as u64,
                memops: 0,
            },
            Category::UniqueRedundancy,
        );
        let mut sends: Vec<RoleSend> = Vec::new();
        for (&a, st) in &roles {
            let sa = coeff_stripes[a];
            let [lh, hl, hh] = &bands[&a];
            let quad = [&st.input, lh, hl, hh];
            for j in (0..nranks).filter(|&j| j != a) {
                let needed = needed_coeff_rows(out_stripes[j], f, half_rows);
                let to = (rec.owner(j), j);
                for run in held_runs(needed, coeff_stripes[j], sa) {
                    sends.push(pack_rows(cfg, to, &quad, sa, run));
                }
            }
        }
        let guards = Guards::<4>::unpack(ctx.exchange(sends)?);

        // --- Column + row synthesis per role through the one kernel,
        // with per-role compute timing for the re-partition cost model.
        let mut cost: BTreeMap<usize, f64> = BTreeMap::new();
        let mut next_roles: BTreeMap<usize, RoleState> = BTreeMap::new();
        for (&a, st) in &roles {
            let sa = coeff_stripes[a];
            let cur = &st.input;
            let [lh, hl, hh] = &bands[&a];
            let t0 = ctx.now();
            let out = synthesize_level(ctx, cfg, out_stripes[a], half_rows, half_cols, |k| {
                if sa.contains(k) {
                    let i = k - sa.lo;
                    Ok([cur.row(i), lh.row(i), hl.row(i), hh.row(i)])
                } else {
                    guards.get(a, k)
                }
            })?;
            cost.insert(a, ctx.now() - t0);
            next_roles.insert(a, RoleState::new(out));
        }
        roles = next_roles;

        rec.end_level(ctx, &cost)?;
    }

    rec.gather(ctx, cfg, &roles)?;

    Ok(roles
        .into_iter()
        .map(|(role, st)| (role, st.input))
        .collect())
}

// ---------------------------------------------------------------------
// The arithmetic of one level, per role. Keeping the synthesis in one
// place — independent of which rank plays the role — is what makes a
// recovered reconstruction bit-identical to the fault-free one.
// ---------------------------------------------------------------------

/// One level of column + row synthesis for `out_stripe`, sourcing each
/// needed coefficient row quad (approx, lh, hl, hh) through `look`.
fn synthesize_level<'a>(
    ctx: &mut Ctx,
    cfg: &MimdDwtConfig,
    out_stripe: Stripe,
    half_rows: usize,
    half_cols: usize,
    look: impl Fn(usize) -> Result<[&'a [f64]; 4], CommError>,
) -> Result<Matrix, CommError> {
    let f = cfg.filter.len();
    let out_rows = out_stripe.rows();
    let out_cols_total = half_cols * 2;

    // --- Column synthesis: build the row-intermediates L and H for the
    // stripe's output rows.
    let mut low = Matrix::zeros(out_rows, half_cols);
    let mut high = Matrix::zeros(out_rows, half_cols);
    for (ni, n) in (out_stripe.lo..out_stripe.hi).enumerate() {
        for m in 0..f {
            let t = n as isize - m as isize;
            if t % 2 != 0 {
                continue;
            }
            let k = (t / 2).rem_euclid(half_rows as isize) as usize;
            let tl = cfg.filter.low()[m];
            let th = cfg.filter.high()[m];
            let [a_row, lh_row, hl_row, hh_row] = look(k)?;
            dwt::engine::kernel::axpy_pair(low.row_mut(ni), a_row, lh_row, tl, th);
            dwt::engine::kernel::axpy_pair(high.row_mut(ni), hl_row, hh_row, tl, th);
        }
    }
    ctx.charge(coeff_ops(f).times(2 * (out_rows * half_cols) as u64));

    // --- Row synthesis: expand columns, fully local. -------------------
    let mut out = Matrix::zeros(out_rows, out_cols_total);
    for r in 0..out_rows {
        let dst = out.row_mut(r);
        dwt::conv::synthesize_add(low.row(r), cfg.filter.low(), cfg.mode, dst)
            .expect("buffer sized by construction");
        dwt::conv::synthesize_add(high.row(r), cfg.filter.high(), cfg.mode, dst)
            .expect("buffer sized by construction");
    }
    ctx.charge(coeff_ops(f).times((out_rows * out_cols_total) as u64));
    Ok(out)
}

/// Cut one role's detail-band stripes for `level` from the globally
/// known pyramid.
fn cut_bands(pyramid: &Pyramid, level: usize, s: Stripe, half_cols: usize) -> [Matrix; 3] {
    let bands = &pyramid.detail[level - 1];
    let take = |m: &Matrix| {
        m.submatrix(s.lo, 0, s.rows(), half_cols)
            .expect("band stripe")
    };
    [take(&bands.lh), take(&bands.hl), take(&bands.hh)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwt::dwt2d;
    use dwt::filters::FilterBank;
    use paragon::{FaultPlan, MachineSpec, Mapping};

    fn image(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| ((r * 17 + c * 5) % 23) as f64 + 0.5)
    }

    fn scfg(p: usize) -> SpmdConfig {
        SpmdConfig::new(MachineSpec::paragon(), p, Mapping::Snake)
    }

    #[test]
    fn distributed_reconstruction_matches_sequential() {
        let img = image(64);
        for taps in [2usize, 4, 8] {
            let bank = FilterBank::daubechies(taps).unwrap();
            let pyr = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
            let seq = dwt2d::reconstruct(&pyr, &bank, Boundary::Periodic).unwrap();
            for p in [1usize, 3, 8] {
                let cfg = MimdDwtConfig::tuned(bank.clone(), 2);
                let run = run_mimd_idwt(&scfg(p), &cfg, &pyr).unwrap();
                // The distributed column synthesis gathers per output row
                // while the sequential one scatters per coefficient, so
                // the additions associate differently: equal to round-off.
                let err = run.image.max_abs_diff(&seq).unwrap();
                assert!(err < 1e-12, "D{taps} P={p} reconstruction differs by {err}");
            }
        }
    }

    #[test]
    fn full_round_trip_through_both_distributed_transforms() {
        let img = image(64);
        let bank = FilterBank::daubechies(8).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 3);
        let fwd = crate::run_mimd_dwt(&scfg(8), &cfg, &img).unwrap();
        let back = run_mimd_idwt(&scfg(8), &cfg, &fwd.pyramid).unwrap();
        let err = img.max_abs_diff(&back.image).unwrap();
        assert!(err < 1e-9, "distributed round-trip error {err}");
    }

    #[test]
    fn rejects_non_periodic_modes_and_level_mismatch() {
        let img = image(32);
        let bank = FilterBank::haar();
        let pyr = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let mut cfg = MimdDwtConfig::tuned(bank.clone(), 2);
        cfg.mode = Boundary::Zero;
        assert!(run_mimd_idwt(&scfg(2), &cfg, &pyr).is_err());
        let cfg = MimdDwtConfig::tuned(bank, 3);
        assert!(run_mimd_idwt(&scfg(2), &cfg, &pyr).is_err());
    }

    #[test]
    fn chain_ordering_is_rejected_typed() {
        // The reconstruction's exchange is always simultaneous: a
        // chain-ordered config must not run and be reported as chain.
        let bank = FilterBank::haar();
        let pyr = dwt2d::decompose(&image(32), &bank, 1, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig {
            ordering: crate::GuardOrdering::ChainOrdered,
            ..MimdDwtConfig::tuned(bank, 1)
        };
        assert!(matches!(
            run_mimd_idwt(&scfg(2), &cfg, &pyr).unwrap_err(),
            MimdError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn redistribute_without_faults_matches_failfast_bitwise() {
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let pyr = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2);
        let resilient = cfg
            .clone()
            .with_resilience(crate::ResiliencePolicy::Redistribute);
        for p in [1usize, 3, 8] {
            let oracle = run_mimd_idwt(&scfg(p), &cfg, &pyr).unwrap();
            let run = run_mimd_idwt(&scfg(p), &resilient, &pyr).unwrap();
            assert_eq!(run.image, oracle.image, "P={p}");
            assert!(run.faults.crashed_ranks.is_empty());
        }
    }

    #[test]
    fn more_ranks_than_deepest_rows_runs_under_both_policies() {
        // Regression: 32x32 / L3 / 16 ranks leaves most ranks an empty
        // stripe at the deepest level (4 rows). The former fail-fast copy
        // of this body asserted stripe ownership through `owner()`, which
        // is undefined for an empty stripe, and panicked in debug builds.
        let img = image(32);
        let bank = FilterBank::daubechies(2).unwrap();
        let pyr = dwt2d::decompose(&img, &bank, 3, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 3);
        let resilient = cfg
            .clone()
            .with_resilience(crate::ResiliencePolicy::Redistribute);
        let failfast = run_mimd_idwt(&scfg(16), &cfg, &pyr).unwrap();
        let run = run_mimd_idwt(&scfg(16), &resilient, &pyr).unwrap();
        assert_eq!(run.image, failfast.image);
        let err = img.max_abs_diff(&failfast.image).unwrap();
        assert!(err < 1e-12, "reconstruction error {err}");
        // The same geometry through the two forward transforms.
        for cfg in [&cfg, &resilient] {
            let stripe = crate::run_mimd_dwt(&scfg(16), cfg, &img).unwrap();
            let block = crate::block::run_block_dwt(&scfg(16), cfg, &img).unwrap();
            assert_eq!(stripe.pyramid, pyr, "{:?}", cfg.resilience);
            assert_eq!(block.pyramid, pyr, "{:?}", cfg.resilience);
        }
    }

    #[test]
    fn crash_recovery_reconstruction_is_bit_identical_to_fault_free() {
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let pyr = dwt2d::decompose(&img, &bank, 3, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 3);
        let resilient = cfg
            .clone()
            .with_resilience(crate::ResiliencePolicy::Redistribute);
        let oracle = run_mimd_idwt(&scfg(8), &cfg, &pyr).unwrap();
        // Kill rank 2 exactly at the second level handoff (phase 5) and
        // rank 5 during the last level (phase 11 = its cost report).
        let plan = FaultPlan::none().with_crash(2, 5).with_crash(5, 11);
        let faulted = scfg(8).with_faults(plan);
        let run = run_mimd_idwt(&faulted, &resilient, &pyr).unwrap();
        assert_eq!(
            run.image, oracle.image,
            "recovered reconstruction must be bit-identical to the fault-free run"
        );
        assert_eq!(run.faults.crashed_ranks, vec![2, 5]);
        // The checkpoint traffic is charged to the recovery lane.
        assert!(run.budgets.iter().any(|b| b.fault_recovery > 0.0));
    }

    #[test]
    fn crash_at_every_phase_reconstructs_bit_identically() {
        // 6 ranks, 2 levels => phases 0..=9 (scatter, 2 x 4 level
        // phases, gather). Recovery must never depend on lucky timing.
        let img = image(32);
        let bank = FilterBank::daubechies(4).unwrap();
        let pyr = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2);
        let resilient = cfg
            .clone()
            .with_resilience(crate::ResiliencePolicy::Redistribute);
        let oracle = run_mimd_idwt(&scfg(6), &cfg, &pyr).unwrap();
        for phase in 0..10u64 {
            let plan = FaultPlan::none().with_crash(3, phase);
            let faulted = scfg(6).with_faults(plan);
            let run = run_mimd_idwt(&faulted, &resilient, &pyr)
                .unwrap_or_else(|e| panic!("crash at phase {phase} not recovered: {e}"));
            assert_eq!(
                run.image, oracle.image,
                "crash at phase {phase} corrupted output"
            );
        }
    }

    #[test]
    fn recovered_reconstructions_are_deterministic() {
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let pyr = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let cfg =
            MimdDwtConfig::tuned(bank, 2).with_resilience(crate::ResiliencePolicy::Redistribute);
        let mk = || {
            let plan = FaultPlan::seeded(42).with_drop_rate(1e-3).with_crash(1, 5);
            scfg(6).with_faults(plan)
        };
        let a = run_mimd_idwt(&mk(), &cfg, &pyr).unwrap();
        let b = run_mimd_idwt(&mk(), &cfg, &pyr).unwrap();
        assert_eq!(a.parallel_time(), b.parallel_time());
        assert_eq!(a.budgets, b.budgets);
        assert_eq!(a.image, b.image);
    }

    #[test]
    fn rebalance_keeps_survivor_useful_time_within_twice_mean() {
        // The acceptance bound: after a crash the re-partition must not
        // leave any survivor charged more than 2x the mean per-survivor
        // useful time.
        let img = image(64);
        let bank = FilterBank::daubechies(4).unwrap();
        let pyr = dwt2d::decompose(&img, &bank, 3, Boundary::Periodic).unwrap();
        let cfg =
            MimdDwtConfig::tuned(bank, 3).with_resilience(crate::ResiliencePolicy::Redistribute);
        let plan = FaultPlan::none().with_crash(2, 6);
        let run = run_mimd_idwt(&scfg(8).with_faults(plan), &cfg, &pyr).unwrap();
        let survivors: Vec<_> = run
            .budgets
            .iter()
            .enumerate()
            .filter(|(r, _)| !run.faults.crashed_ranks.contains(r))
            .map(|(_, b)| *b)
            .collect();
        let balance = perfbudget::BudgetReport::useful_balance(&survivors).unwrap();
        assert!(
            balance <= 2.0,
            "useful-time balance {balance} exceeds 2x the survivor mean"
        );
        assert!(run.budgets.iter().any(|b| b.fault_recovery > 0.0));
    }

    #[test]
    fn reconstruction_scales() {
        let img = image(128);
        let bank = FilterBank::daubechies(8).unwrap();
        let pyr = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let cfg = MimdDwtConfig::tuned(bank, 2);
        let t1 = run_mimd_idwt(&scfg(1), &cfg, &pyr).unwrap().parallel_time();
        let t8 = run_mimd_idwt(&scfg(8), &cfg, &pyr).unwrap().parallel_time();
        assert!(t8 < t1, "8 ranks ({t8:.4}) should beat 1 ({t1:.4})");
    }
}
