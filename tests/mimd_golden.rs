//! Golden pins of the three distributed transforms' *simulation*
//! output: every budget lane, the fault totals, the whole phase
//! timeline and the numerical result, folded into one FNV-1a digest per
//! case. The other suites assert the outputs equal the oracle; nothing
//! else pins the virtual times or the phase schedule below the four
//! decimals of `results/*.txt`, so a refactor of the rank bodies is
//! checked against these constants.
//!
//! A mismatch prints the full table of digests actually computed; only
//! a deliberate modelling change may paste it over `GOLDEN`.

use dwt::{dwt2d, Boundary, FilterBank, Matrix};
use dwt_mimd::block::run_block_dwt;
use dwt_mimd::idwt::run_mimd_idwt;
use dwt_mimd::{run_mimd_dwt, GuardOrdering, MimdDwtConfig, ResiliencePolicy};
use paragon::{FaultPlan, FaultStats, MachineSpec, Mapping, PhaseFaults, PhaseRecord, SpmdConfig};
use perfbudget::RankBudget;

/// Captured at the parent of the one-body refactor (commit 621d3a8).
const GOLDEN: [(&str, u64); 10] = [
    ("stripe/failfast", 0x9cda_659a_055a_c34c),
    ("stripe/failfast+chain", 0x9b5f_30d6_7548_5446),
    ("stripe/redistribute", 0x9526_b263_d692_7447),
    ("stripe/redistribute+faults", 0x0720_d621_14bf_d25d),
    ("block/failfast", 0x7250_63d8_e9f3_8203),
    ("block/redistribute", 0xa32f_9265_16d7_38f9),
    ("block/redistribute+faults", 0x3e0a_738a_fbe8_4e25),
    ("idwt/failfast", 0x49b5_03d1_255b_9662),
    ("idwt/redistribute", 0xa6c0_b552_fcd7_28ae),
    ("idwt/redistribute+faults", 0x371f_9d2b_c9b1_942a),
];

/// FNV-1a over 64-bit words, fed byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for r in 0..m.rows() {
            for &v in m.row(r) {
                self.float(v);
            }
        }
    }

    fn phase_faults(&mut self, f: &PhaseFaults) {
        for c in [
            f.drops,
            f.corruptions,
            f.delays,
            f.retransmissions,
            f.undelivered,
            f.dead_destinations,
        ] {
            self.word(u64::from(c));
        }
        self.float(f.fault_s);
    }

    /// Everything a run reports besides its numerical output.
    fn simulation(
        &mut self,
        budgets: &[RankBudget],
        faults: &FaultStats,
        timeline: &[PhaseRecord],
    ) {
        self.word(budgets.len() as u64);
        for b in budgets {
            for lane in [
                b.useful,
                b.communication,
                b.duplication,
                b.unique_redundancy,
                b.wait,
                b.fault_recovery,
                b.completion,
            ] {
                self.float(lane);
            }
        }
        self.phase_faults(&faults.totals);
        self.word(faults.crashed_ranks.len() as u64);
        for &r in &faults.crashed_ranks {
            self.word(r as u64);
        }
        self.word(timeline.len() as u64);
        for p in timeline {
            self.word(u64::from(p.barrier));
            self.word(u64::from(p.participants));
            self.word(u64::from(p.messages));
            self.word(p.bytes);
            self.float(p.earliest_entry);
            self.float(p.latest_entry);
            self.float(p.latest_exit);
            self.phase_faults(&p.faults);
        }
    }
}

fn image() -> Matrix {
    Matrix::from_fn(64, 64, |r, c| ((r * 37 + c * 11) % 41) as f64 * 0.5 - 9.75)
}

/// The four policy / fault settings: (label, config, fault plan).
fn settings() -> Vec<(&'static str, MimdDwtConfig, FaultPlan)> {
    let tuned = MimdDwtConfig::tuned(FilterBank::daubechies(4).unwrap(), 3);
    let chain = MimdDwtConfig {
        ordering: GuardOrdering::ChainOrdered,
        ..tuned.clone()
    };
    let resilient = tuned
        .clone()
        .with_resilience(ResiliencePolicy::Redistribute);
    let faults = FaultPlan::seeded(7)
        .with_drop_rate(0.02)
        .with_crash(2, 6)
        .with_crash(5, 11);
    vec![
        ("failfast", tuned, FaultPlan::none()),
        ("failfast+chain", chain, FaultPlan::none()),
        ("redistribute", resilient.clone(), FaultPlan::none()),
        ("redistribute+faults", resilient, faults),
    ]
}

#[test]
fn simulation_output_matches_the_pinned_digests() {
    let img = image();
    let bank = FilterBank::daubechies(4).unwrap();
    let pyramid = dwt2d::decompose(&img, &bank, 3, Boundary::Periodic).unwrap();
    let mut got: Vec<(String, u64)> = Vec::new();
    for transform in ["stripe", "block", "idwt"] {
        for (label, cfg, plan) in settings() {
            if cfg.ordering == GuardOrdering::ChainOrdered && transform != "stripe" {
                continue; // only the striped DWT has a chain-ordered exchange
            }
            let scfg = SpmdConfig::new(MachineSpec::paragon(), 8, Mapping::Snake).with_faults(plan);
            let mut h = Fnv::new();
            match transform {
                "stripe" => {
                    let run = run_mimd_dwt(&scfg, &cfg, &img).unwrap();
                    h.simulation(&run.budgets, &run.faults, &run.timeline);
                    hash_pyramid(&mut h, &run.pyramid);
                }
                "block" => {
                    let run = run_block_dwt(&scfg, &cfg, &img).unwrap();
                    h.simulation(&run.budgets, &run.faults, &run.timeline);
                    h.word(run.comm.guard_messages);
                    h.word(run.comm.guard_bytes);
                    hash_pyramid(&mut h, &run.pyramid);
                }
                _ => {
                    let run = run_mimd_idwt(&scfg, &cfg, &pyramid).unwrap();
                    h.simulation(&run.budgets, &run.faults, &run.timeline);
                    h.matrix(&run.image);
                }
            }
            got.push((format!("{transform}/{label}"), h.0));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want, "digests computed by this build:\n{table}");
}

fn hash_pyramid(h: &mut Fnv, p: &dwt::Pyramid) {
    h.matrix(&p.approx);
    for d in &p.detail {
        h.matrix(&d.lh);
        h.matrix(&d.hl);
        h.matrix(&d.hh);
    }
}
