//! Machine-readable fault-injection benchmark: degradation curves of the
//! distributed D4 3-level block DWT *and* of the distributed striped
//! reconstruction (idwt) under injected link faults and rank crashes, on
//! the simulated Paragon and T3D. Writes `BENCH_faults.json` in the
//! current directory.
//!
//! Every number here is *virtual* (simulated) time, so the whole file is
//! a pure function of the fault seed: rerunning with the same seed must
//! reproduce it byte for byte.
//!
//! Run from the repo root with `just faults-json` (or
//! `cargo run --release -p bench --bin bench_faults`).

use bench::{paper_image, paragon_cfg, render, t3d_cfg, tuned_dwt, Row, Val};
use dwt::{dwt2d, Boundary, FilterBank};
use dwt_mimd::block::run_block_dwt;
use dwt_mimd::idwt::run_mimd_idwt;
use dwt_mimd::ResiliencePolicy;
use paragon::{FaultPlan, FaultStats, LinkGeometry, Mapping, SpmdConfig};
use perfbudget::{BudgetReport, RankBudget};

const SEED: u64 = 1996; // the paper's year; any fixed seed works
const RANKS: usize = 16;

/// Drop-probability grid of the link-fault sweep.
const DROP_RATES: [f64; 5] = [0.0, 1e-4, 1e-3, 1e-2, 3e-2];

/// Crash schedule of the block-DWT crash sweep: (rank, phase), applied
/// cumulatively. Phases span the whole 3-level block schedule
/// (scatter 0, six phases per level, trailing gather).
const CRASHES: [(usize, u64); 4] = [(5, 7), (10, 12), (3, 3), (12, 16)];

/// Crash schedule of the reconstruction crash sweep. The 3-level
/// resilient idwt runs phases 0..=13 (scatter 0, four phases per level,
/// trailing gather 13), so every phase here must stay within that range.
const IDWT_CRASHES: [(usize, u64); 4] = [(5, 4), (10, 9), (3, 2), (12, 13)];

/// Wrap-link drop-probability grid of the T3D link-geometry sweep; the
/// interior links fail at a tenth of the wrap rate (the long ring-
/// closing cables are the exposed ones).
const WRAP_RATES: [f64; 4] = [0.0, 1e-2, 1e-1, 3e-1];

/// T3D node-board crash schedule, applied cumulatively: board `b` takes
/// both of its processing elements (ranks `2b` and `2b + 1`) down at
/// the given phase.
const BOARD_CRASHES: [(usize, u64); 2] = [(1, 7), (6, 12)];

struct Run {
    machine: &'static str,
    transform: &'static str,
    sweep: &'static str,
    drop_rate: f64,
    crashes: usize,
    time: f64,
    budgets: Vec<RankBudget>,
    faults: FaultStats,
}

fn row(run: &Run) -> Row {
    use Val::{Fix, Num};
    let report = BudgetReport::from_ranks(&run.budgets).expect("non-empty budgets");
    vec![
        ("machine", run.machine.into()),
        ("transform", run.transform.into()),
        ("sweep", run.sweep.into()),
        ("drop_rate", Num(run.drop_rate)),
        ("crashes", run.crashes.into()),
        ("parallel_time_s", Fix(run.time, 9)),
        ("useful_pct", Fix(report.useful_pct(), 3)),
        ("communication_pct", Fix(report.communication_pct(), 3)),
        ("redundancy_pct", Fix(report.redundancy_pct(), 3)),
        ("imbalance_pct", Fix(report.imbalance_pct(), 3)),
        ("fault_recovery_pct", Fix(report.fault_pct(), 3)),
        ("drops", u64::from(run.faults.totals.drops).into()),
        (
            "retransmissions",
            u64::from(run.faults.totals.retransmissions).into(),
        ),
        (
            "crashed_ranks",
            run.faults.crashed_ranks.iter().copied().collect(),
        ),
    ]
}

fn machine_cfg(machine: &'static str) -> SpmdConfig {
    match machine {
        "paragon" => paragon_cfg(RANKS, Mapping::Snake),
        "t3d" => t3d_cfg(RANKS),
        _ => unreachable!(),
    }
}

fn main() {
    let img = paper_image();
    let cfg = tuned_dwt(4, 3).with_resilience(ResiliencePolicy::Redistribute);
    let bank = FilterBank::daubechies(4).expect("D4 exists");
    let pyramid =
        dwt2d::decompose(&img, &bank, 3, Boundary::Periodic).expect("analysis of the bench scene");
    let mut runs: Vec<Run> = Vec::new();

    for machine in ["paragon", "t3d"] {
        // --- Link-fault sweep: drop probability vs slowdown. -------------
        for &rate in &DROP_RATES {
            let plan = FaultPlan::seeded(SEED).with_drop_rate(rate);
            let scfg = machine_cfg(machine).with_faults(plan);
            let run = run_block_dwt(&scfg, &cfg, &img).expect("drops are absorbed by retries");
            eprintln!(
                "{machine:8} dwt  drop_rate={rate:<7} T={:.4}s drops={} retx={}",
                run.parallel_time(),
                run.faults.totals.drops,
                run.faults.totals.retransmissions
            );
            runs.push(Run {
                machine,
                transform: "block_dwt",
                sweep: "drop_rate",
                drop_rate: rate,
                crashes: 0,
                time: run.parallel_time(),
                budgets: run.budgets,
                faults: run.faults,
            });

            let plan = FaultPlan::seeded(SEED).with_drop_rate(rate);
            let scfg = machine_cfg(machine).with_faults(plan);
            let run = run_mimd_idwt(&scfg, &cfg, &pyramid).expect("drops are absorbed by retries");
            eprintln!(
                "{machine:8} idwt drop_rate={rate:<7} T={:.4}s drops={} retx={}",
                run.parallel_time(),
                run.faults.totals.drops,
                run.faults.totals.retransmissions
            );
            runs.push(Run {
                machine,
                transform: "idwt",
                sweep: "drop_rate",
                drop_rate: rate,
                crashes: 0,
                time: run.parallel_time(),
                budgets: run.budgets,
                faults: run.faults,
            });
        }

        // --- Crash sweep: number of dead ranks vs slowdown. --------------
        for ncrash in 0..=CRASHES.len() {
            let mut plan = FaultPlan::seeded(SEED);
            for &(rank, phase) in &CRASHES[..ncrash] {
                plan = plan.with_crash(rank, phase);
            }
            let scfg = machine_cfg(machine).with_faults(plan);
            let run = run_block_dwt(&scfg, &cfg, &img).expect("survivors absorb planned crashes");
            eprintln!(
                "{machine:8} dwt  crashes={ncrash:<3} T={:.4}s dead={:?}",
                run.parallel_time(),
                run.faults.crashed_ranks
            );
            runs.push(Run {
                machine,
                transform: "block_dwt",
                sweep: "crash_count",
                drop_rate: 0.0,
                crashes: ncrash,
                time: run.parallel_time(),
                budgets: run.budgets,
                faults: run.faults,
            });

            let mut plan = FaultPlan::seeded(SEED);
            for &(rank, phase) in &IDWT_CRASHES[..ncrash] {
                plan = plan.with_crash(rank, phase);
            }
            let scfg = machine_cfg(machine).with_faults(plan);
            let run =
                run_mimd_idwt(&scfg, &cfg, &pyramid).expect("survivors absorb planned crashes");
            eprintln!(
                "{machine:8} idwt crashes={ncrash:<3} T={:.4}s dead={:?}",
                run.parallel_time(),
                run.faults.crashed_ranks
            );
            runs.push(Run {
                machine,
                transform: "idwt",
                sweep: "crash_count",
                drop_rate: 0.0,
                crashes: ncrash,
                time: run.parallel_time(),
                budgets: run.budgets,
                faults: run.faults,
            });
        }
    }

    // --- T3D link-geometry sweep: wrap vs interior drop rates. -----------
    for &wrap in &WRAP_RATES {
        let plan = FaultPlan::seeded(SEED).with_link_geometry(LinkGeometry::t3d(wrap, wrap * 0.1));
        let scfg = machine_cfg("t3d").with_faults(plan);
        let run = run_block_dwt(&scfg, &cfg, &img).expect("link drops are absorbed by retries");
        eprintln!(
            "t3d      dwt  wrap_rate={wrap:<7} T={:.4}s drops={} retx={}",
            run.parallel_time(),
            run.faults.totals.drops,
            run.faults.totals.retransmissions
        );
        runs.push(Run {
            machine: "t3d",
            transform: "block_dwt",
            sweep: "link_geometry",
            drop_rate: wrap,
            crashes: 0,
            time: run.parallel_time(),
            budgets: run.budgets,
            faults: run.faults,
        });
    }

    // --- T3D node-board crash sweep: whole boards (2 PEs) at once. -------
    for nboards in 0..=BOARD_CRASHES.len() {
        let mut plan = FaultPlan::seeded(SEED);
        for &(board, phase) in &BOARD_CRASHES[..nboards] {
            plan = plan.with_board_crash(board, phase);
        }
        let scfg = machine_cfg("t3d").with_faults(plan);
        let run = run_block_dwt(&scfg, &cfg, &img).expect("survivors absorb board crashes");
        eprintln!(
            "t3d      dwt  boards={nboards:<4} T={:.4}s dead={:?}",
            run.parallel_time(),
            run.faults.crashed_ranks
        );
        runs.push(Run {
            machine: "t3d",
            transform: "block_dwt",
            sweep: "board_crash",
            drop_rate: 0.0,
            crashes: nboards,
            time: run.parallel_time(),
            budgets: run.budgets,
            faults: run.faults,
        });
    }

    let doc: Row = vec![
        ("bench", "dwt_fault_degradation".into()),
        ("unit", "virtual_seconds".into()),
        ("seed", SEED.into()),
        ("ranks", RANKS.into()),
        ("image", img.rows().into()),
        (
            "transforms",
            ["D4 L3 block analysis", "D4 L3 striped synthesis"]
                .into_iter()
                .collect(),
        ),
        ("policy", "redistribute-on-crash".into()),
        ("results", Val::Rows(runs.iter().map(row).collect())),
    ];
    std::fs::write("BENCH_faults.json", render(&doc)).expect("write BENCH_faults.json");
    eprintln!("wrote BENCH_faults.json");
}
