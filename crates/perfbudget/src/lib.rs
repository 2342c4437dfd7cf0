//! The *performance budget* of the JNNIE overhead study (Appendix B of
//! the source report).
//!
//! The model breaks a parallel execution session into non-overlapping
//! components, each reported as a percentage of the parallel execution
//! time (the maximum completion time over all processors):
//!
//! * **useful work** — time spent in computation the serial algorithm
//!   would also perform;
//! * **communication** — measured from initiating a communication call
//!   until it returns, averaged over processors;
//! * **redundancy** — operations added to facilitate parallelization,
//!   split into *duplication* (the same operation on the same values at
//!   all processors, of which `n-1` copies are overhead) and *unique*
//!   redundancy (e.g. domain-decomposition bookkeeping);
//! * **imbalance/wait** — the difference between the maximum and minimum
//!   completion times over all processors.
#![forbid(unsafe_code)]

/// Where a slice of a rank's execution time is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Computation the serial algorithm would also perform.
    Useful,
    /// Time inside communication calls (send/recv/collectives).
    Communication,
    /// Work that exists only to enable parallelization and is performed
    /// identically at every rank; `n-1` of the `n` copies are overhead.
    DuplicationRedundancy,
    /// Parallelization-only work that differs per rank (e.g. figuring out
    /// which sub-domain a rank owns).
    UniqueRedundancy,
    /// Time spent idle at a synchronization point waiting for slower
    /// peers — the per-rank form of the report's imbalance/wait overhead.
    ImbalanceWait,
    /// Time lost to injected faults and their recovery: retransmission
    /// waits, exponential backoff, crash-detection timeouts and
    /// checkpoint/redistribution work. Zero on a fault-free run.
    FaultRecovery,
}

impl Category {
    /// Every lane, in report order. Lets downstream metric exporters
    /// (e.g. the serving layer's `wserv::metrics`) iterate the shared
    /// lane vocabulary instead of inventing their own.
    pub const ALL: [Category; 6] = [
        Category::Useful,
        Category::Communication,
        Category::DuplicationRedundancy,
        Category::UniqueRedundancy,
        Category::ImbalanceWait,
        Category::FaultRecovery,
    ];

    /// Stable snake_case label used in machine-readable output.
    pub fn label(self) -> &'static str {
        match self {
            Category::Useful => "useful",
            Category::Communication => "communication",
            Category::DuplicationRedundancy => "duplication_redundancy",
            Category::UniqueRedundancy => "unique_redundancy",
            Category::ImbalanceWait => "imbalance_wait",
            Category::FaultRecovery => "fault_recovery",
        }
    }
}

/// Per-rank accumulated times, in seconds of virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankBudget {
    /// Useful computation.
    pub useful: f64,
    /// Communication.
    pub communication: f64,
    /// Duplicated parallelization work (full amount; the overhead share
    /// is computed by [`BudgetReport`]).
    pub duplication: f64,
    /// Unique parallelization work.
    pub unique_redundancy: f64,
    /// Idle time waiting for slower peers at synchronization points.
    pub wait: f64,
    /// Time lost to injected faults and their recovery (retries, backoff,
    /// crash timeouts). Zero on a fault-free run.
    pub fault_recovery: f64,
    /// Completion time of the rank (its final clock value).
    pub completion: f64,
}

impl RankBudget {
    /// Add `seconds` to the given category.
    pub fn charge(&mut self, cat: Category, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative charge {seconds}");
        match cat {
            Category::Useful => self.useful += seconds,
            Category::Communication => self.communication += seconds,
            Category::DuplicationRedundancy => self.duplication += seconds,
            Category::UniqueRedundancy => self.unique_redundancy += seconds,
            Category::ImbalanceWait => self.wait += seconds,
            Category::FaultRecovery => self.fault_recovery += seconds,
        }
    }
}

/// Aggregated budget over all ranks, following Appendix B's definitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BudgetReport {
    /// Number of ranks.
    pub ranks: usize,
    /// Parallel execution time = max completion over ranks.
    pub parallel_time: f64,
    /// Mean useful time per rank.
    pub avg_useful: f64,
    /// Mean communication time per rank.
    pub avg_communication: f64,
    /// Redundancy overhead: `(n-1)/n` of duplication plus all unique
    /// redundancy, averaged over ranks.
    pub avg_redundancy: f64,
    /// Imbalance/wait: the mean per-rank synchronization wait plus any
    /// residual completion-time spread (max − min completion). When the
    /// program ends in a barrier the spread is zero and the wait carries
    /// the whole component, matching the report's definition for codes
    /// measured without a trailing barrier.
    pub imbalance: f64,
    /// Mean fault-recovery time per rank (retransmissions, backoff,
    /// crash timeouts, checkpoint/redistribution). Zero without faults.
    pub avg_fault_recovery: f64,
}

impl BudgetReport {
    /// Aggregate per-rank budgets. Returns `None` for an empty slice.
    pub fn from_ranks(ranks: &[RankBudget]) -> Option<BudgetReport> {
        if ranks.is_empty() {
            return None;
        }
        let n = ranks.len() as f64;
        let max_t = ranks.iter().map(|r| r.completion).fold(0.0, f64::max);
        let min_t = ranks
            .iter()
            .map(|r| r.completion)
            .fold(f64::INFINITY, f64::min);
        let avg = |f: fn(&RankBudget) -> f64| ranks.iter().map(f).sum::<f64>() / n;
        let dup_overhead_share = if ranks.len() > 1 { (n - 1.0) / n } else { 0.0 };
        Some(BudgetReport {
            ranks: ranks.len(),
            parallel_time: max_t,
            avg_useful: avg(|r| r.useful),
            avg_communication: avg(|r| r.communication),
            avg_redundancy: dup_overhead_share * avg(|r| r.duplication)
                + avg(|r| r.unique_redundancy),
            imbalance: avg(|r| r.wait) + (max_t - min_t),
            avg_fault_recovery: avg(|r| r.fault_recovery),
        })
    }

    /// Ratio of the maximum to the mean per-rank useful time over a set
    /// of budgets (typically the *survivors* of a faulty run). `1.0` is
    /// perfect balance; a straggler that inherited everything shows up
    /// as a large ratio. Returns `None` for an empty slice or when no
    /// useful work was charged at all.
    pub fn useful_balance(ranks: &[RankBudget]) -> Option<f64> {
        if ranks.is_empty() {
            return None;
        }
        let max = ranks.iter().map(|r| r.useful).fold(0.0, f64::max);
        let mean = ranks.iter().map(|r| r.useful).sum::<f64>() / ranks.len() as f64;
        if mean > 0.0 {
            Some(max / mean)
        } else {
            None
        }
    }

    /// A component as a percentage of the parallel execution time.
    fn pct(&self, v: f64) -> f64 {
        if self.parallel_time > 0.0 {
            100.0 * v / self.parallel_time
        } else {
            0.0
        }
    }

    /// Useful work, % of parallel time.
    pub fn useful_pct(&self) -> f64 {
        self.pct(self.avg_useful)
    }

    /// Communication, % of parallel time.
    pub fn communication_pct(&self) -> f64 {
        self.pct(self.avg_communication)
    }

    /// Redundancy overhead, % of parallel time.
    pub fn redundancy_pct(&self) -> f64 {
        self.pct(self.avg_redundancy)
    }

    /// Imbalance/wait, % of parallel time.
    pub fn imbalance_pct(&self) -> f64 {
        self.pct(self.imbalance)
    }

    /// Fault recovery, % of parallel time.
    pub fn fault_pct(&self) -> f64 {
        self.pct(self.avg_fault_recovery)
    }

    /// Parallel efficiency against a given serial time:
    /// `t_serial / (ranks · t_parallel)`.
    pub fn efficiency(&self, serial_time: f64) -> f64 {
        if self.parallel_time > 0.0 && self.ranks > 0 {
            serial_time / (self.ranks as f64 * self.parallel_time)
        } else {
            0.0
        }
    }

    /// One-line table row used by the reproduction harnesses. The fault
    /// column is appended only when fault time was actually charged so
    /// fault-free tables keep the report's original four columns.
    pub fn row(&self) -> String {
        let mut row = format!(
            "ranks={:3}  T={:9.4}s  useful={:5.1}%  comm={:5.1}%  redund={:5.1}%  imbal={:5.1}%",
            self.ranks,
            self.parallel_time,
            self.useful_pct(),
            self.communication_pct(),
            self.redundancy_pct(),
            self.imbalance_pct()
        );
        if self.avg_fault_recovery > 0.0 {
            row.push_str(&format!("  fault={:5.1}%", self.fault_pct()));
        }
        row
    }
}

/// Amdahl's-law utilities for interpreting scalability measurements —
/// the "imaginary ideal" the JNNIE micro-performance methodology
/// compares machines against.
pub mod amdahl {
    /// Ideal speedup at `p` processors with serial fraction `s`.
    pub fn speedup(serial_fraction: f64, p: usize) -> f64 {
        assert!((0.0..=1.0).contains(&serial_fraction));
        assert!(p > 0);
        1.0 / (serial_fraction + (1.0 - serial_fraction) / p as f64)
    }

    /// Least-squares fit of the serial fraction to measured
    /// `(processors, speedup)` points (Karp–Flatt style, averaged).
    /// Returns `None` when no point with `p > 1` is present.
    pub fn fit_serial_fraction(points: &[(usize, f64)]) -> Option<f64> {
        let estimates: Vec<f64> = points
            .iter()
            .filter(|(p, s)| *p > 1 && *s > 0.0)
            .map(|&(p, s)| {
                // Karp-Flatt experimentally determined serial fraction.
                let p = p as f64;
                ((1.0 / s) - (1.0 / p)) / (1.0 - 1.0 / p)
            })
            .collect();
        if estimates.is_empty() {
            return None;
        }
        Some((estimates.iter().sum::<f64>() / estimates.len() as f64).clamp(0.0, 1.0))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn speedup_limits() {
            assert_eq!(speedup(0.0, 16), 16.0);
            assert_eq!(speedup(1.0, 16), 1.0);
            // s = 0.1: asymptote at 10x.
            assert!(speedup(0.1, 1_000_000) < 10.0 + 1e-3);
        }

        #[test]
        fn fit_recovers_known_fraction() {
            let s = 0.07;
            let pts: Vec<(usize, f64)> = [2usize, 4, 8, 16, 32]
                .iter()
                .map(|&p| (p, speedup(s, p)))
                .collect();
            let fit = fit_serial_fraction(&pts).unwrap();
            assert!((fit - s).abs() < 1e-9, "fit {fit}");
        }

        #[test]
        fn fit_requires_multi_processor_points() {
            assert!(fit_serial_fraction(&[(1, 1.0)]).is_none());
            assert!(fit_serial_fraction(&[]).is_none());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(useful: f64, comm: f64, dup: f64, uniq: f64, completion: f64) -> RankBudget {
        RankBudget {
            useful,
            communication: comm,
            duplication: dup,
            unique_redundancy: uniq,
            wait: 0.0,
            fault_recovery: 0.0,
            completion,
        }
    }

    #[test]
    fn fault_recovery_charges_and_reports() {
        let mut b = rank(6.0, 0.0, 0.0, 0.0, 8.0);
        b.charge(Category::FaultRecovery, 2.0);
        assert_eq!(b.fault_recovery, 2.0);
        let r = BudgetReport::from_ranks(&[b]).unwrap();
        assert_eq!(r.avg_fault_recovery, 2.0);
        assert_eq!(r.fault_pct(), 25.0);
        assert!(r.row().contains("fault="));
        // A fault-free report keeps the original columns.
        let clean = BudgetReport::from_ranks(&[rank(6.0, 0.0, 0.0, 0.0, 8.0)]).unwrap();
        assert!(!clean.row().contains("fault="));
    }

    #[test]
    fn charge_accumulates_per_category() {
        let mut b = RankBudget::default();
        b.charge(Category::Useful, 1.0);
        b.charge(Category::Useful, 2.0);
        b.charge(Category::Communication, 0.5);
        b.charge(Category::DuplicationRedundancy, 0.25);
        b.charge(Category::UniqueRedundancy, 0.125);
        assert_eq!(b.useful, 3.0);
        assert_eq!(b.communication, 0.5);
        assert_eq!(b.duplication, 0.25);
        assert_eq!(b.unique_redundancy, 0.125);
    }

    #[test]
    fn empty_ranks_yield_none() {
        assert!(BudgetReport::from_ranks(&[]).is_none());
    }

    #[test]
    fn useful_balance_is_max_over_mean() {
        let ranks = [
            rank(2.0, 0.0, 0.0, 0.0, 2.0),
            rank(1.0, 0.0, 0.0, 0.0, 1.0),
            rank(1.0, 0.0, 0.0, 0.0, 1.0),
            rank(4.0, 0.0, 0.0, 0.0, 4.0),
        ];
        let bal = BudgetReport::useful_balance(&ranks).unwrap();
        assert_eq!(bal, 4.0 / 2.0);
        // Perfect balance is exactly 1.
        let even = [rank(3.0, 0.0, 0.0, 0.0, 3.0); 2];
        assert_eq!(BudgetReport::useful_balance(&even).unwrap(), 1.0);
        // Degenerate inputs yield None instead of NaN.
        assert!(BudgetReport::useful_balance(&[]).is_none());
        assert!(BudgetReport::useful_balance(&[RankBudget::default()]).is_none());
    }

    #[test]
    fn single_rank_has_no_duplication_overhead() {
        let r = BudgetReport::from_ranks(&[rank(8.0, 0.0, 2.0, 0.0, 10.0)]).unwrap();
        assert_eq!(r.avg_redundancy, 0.0);
        assert_eq!(r.imbalance, 0.0);
        assert_eq!(r.parallel_time, 10.0);
    }

    #[test]
    fn imbalance_is_max_minus_min() {
        let r = BudgetReport::from_ranks(&[
            rank(5.0, 1.0, 0.0, 0.0, 6.0),
            rank(7.0, 1.0, 0.0, 0.0, 8.0),
        ])
        .unwrap();
        assert_eq!(r.imbalance, 2.0);
        assert_eq!(r.parallel_time, 8.0);
        assert_eq!(r.imbalance_pct(), 25.0);
    }

    #[test]
    fn duplication_counts_n_minus_one_copies() {
        // 4 ranks each duplicating 4s of work: overhead is 3/4 of 4s = 3s.
        let ranks: Vec<_> = (0..4).map(|_| rank(10.0, 0.0, 4.0, 0.0, 14.0)).collect();
        let r = BudgetReport::from_ranks(&ranks).unwrap();
        assert!((r.avg_redundancy - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unique_redundancy_counts_fully() {
        let ranks: Vec<_> = (0..4).map(|_| rank(10.0, 0.0, 0.0, 1.5, 11.5)).collect();
        let r = BudgetReport::from_ranks(&ranks).unwrap();
        assert!((r.avg_redundancy - 1.5).abs() < 1e-12);
    }

    #[test]
    fn percentages_and_efficiency() {
        let ranks: Vec<_> = (0..2).map(|_| rank(6.0, 2.0, 0.0, 0.0, 8.0)).collect();
        let r = BudgetReport::from_ranks(&ranks).unwrap();
        assert_eq!(r.useful_pct(), 75.0);
        assert_eq!(r.communication_pct(), 25.0);
        // Serial time 12s on 2 ranks at 8s parallel: eff = 12/16 = 0.75.
        assert!((r.efficiency(12.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn wait_feeds_the_imbalance_component() {
        let mut fast = rank(4.0, 0.0, 0.0, 0.0, 8.0);
        fast.charge(Category::ImbalanceWait, 4.0);
        let slow = rank(8.0, 0.0, 0.0, 0.0, 8.0);
        let r = BudgetReport::from_ranks(&[fast, slow]).unwrap();
        // Mean wait is 2.0; completions are equal (trailing barrier).
        assert!((r.imbalance - 2.0).abs() < 1e-12);
        assert_eq!(r.imbalance_pct(), 25.0);
    }

    #[test]
    fn zero_parallel_time_does_not_divide_by_zero() {
        let r = BudgetReport::from_ranks(&[RankBudget::default()]).unwrap();
        assert_eq!(r.useful_pct(), 0.0);
        assert_eq!(r.efficiency(1.0), 0.0);
    }
}
