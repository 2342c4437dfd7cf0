//! The timing estimator: the timed phase in blocks, the median over
//! blocks of each block's own median (latency) or rate (throughput),
//! quartiles beside it. Whole-run means are never reported — one busy
//! neighbour moves them by 20 % where block medians move by 5 %.

/// Blocks the timed phase is cut into.
pub const BLOCKS: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// A statistic with the spread it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Values the quartiles were taken over (blocks, or raw samples).
    pub n: usize,
}

impl Estimate {
    pub fn of(values: &[f64]) -> Estimate {
        let s = sorted(values);
        Estimate {
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            n: s.len(),
        }
    }
}

/// Median over [`BLOCKS`] equal-count blocks of each block's median —
/// or the plain median when there are fewer values than blocks.
pub fn block_median(values: &[f64]) -> f64 {
    let per = values.len() / BLOCKS;
    if per == 0 {
        return median(values);
    }
    let meds: Vec<f64> = values.chunks_exact(per).take(BLOCKS).map(median).collect();
    median(&meds)
}

/// The highest of p50 / p90 / p99 that still has at least ten samples
/// beyond it. p99 therefore needs 1 000 samples; below that it is
/// omitted, never substituted by a smaller sample's "p99".
pub fn supported_tail(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else if n >= 100 {
        0.9
    } else {
        0.5
    }
}

/// p99, or `None` when fewer than ten samples lie beyond it.
pub fn p99(values: &[f64]) -> Option<f64> {
    (supported_tail(values.len()) == 0.99).then(|| quantile_sorted(&sorted(values), 0.99))
}

/// One completed operation of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Completion time, seconds since the timed phase began.
    pub end_s: f64,
    /// The operation's own latency in seconds.
    pub lat_s: f64,
    /// Input pixels it decomposed.
    pub px: u64,
}

/// One equal-count block of a timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Median latency of the block's operations.
    pub lat_ms: f64,
    /// Operations, and input megapixels, over the block's wall span.
    pub ops_per_s: f64,
    pub mpx_per_s: f64,
    pub samples: usize,
}

/// Cut `samples` (any order; sorted here by completion time) into
/// `blocks` equal-count blocks — one block per sample when there are
/// fewer samples than that. A block spans from the previous block's
/// last completion (0 for the first) to its own last completion; the
/// remainder after the last full block is dropped.
pub fn cut(samples: &[Sample], blocks: usize) -> Vec<Block> {
    let mut by_end = samples.to_vec();
    by_end.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    assert!(!by_end.is_empty(), "a timed phase completed no operation");
    let blocks = blocks.min(by_end.len());
    let per = by_end.len() / blocks;
    let mut from = 0.0;
    by_end
        .chunks_exact(per)
        .take(blocks)
        .map(|block| {
            let to = block[per - 1].end_s;
            let span = (to - from).max(f64::MIN_POSITIVE);
            from = to;
            let lats: Vec<f64> = block.iter().map(|s| s.lat_s * 1e3).collect();
            Block {
                lat_ms: median(&lats),
                ops_per_s: per as f64 / span,
                mpx_per_s: block.iter().map(|s| s.px).sum::<u64>() as f64 / 1e6 / span,
                samples: per,
            }
        })
        .collect()
}

/// Block-median estimates: the median over blocks of each block's own
/// median (latency) or rate (throughput), with the quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Blocked {
    pub lat_ms: Estimate,
    pub ops_per_s: Estimate,
    pub mpx_per_s: Estimate,
    /// Samples inside the blocks.
    pub samples: usize,
}

impl Blocked {
    pub fn of(blocks: &[Block]) -> Blocked {
        let column = |f: fn(&Block) -> f64| Estimate::of(&blocks.iter().map(f).collect::<Vec<_>>());
        Blocked {
            lat_ms: column(|b| b.lat_ms),
            ops_per_s: column(|b| b.ops_per_s),
            mpx_per_s: column(|b| b.mpx_per_s),
            samples: blocks.iter().map(|b| b.samples).sum(),
        }
    }
}

/// One timed phase cut into [`BLOCKS`] blocks.
pub fn blocked(samples: &[Sample]) -> Blocked {
    Blocked::of(&cut(samples, BLOCKS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let e = Estimate::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((e.q1, e.median, e.q3, e.n), (1.0, 2.0, 3.0, 4));
    }

    #[test]
    fn p99_is_omitted_below_a_thousand_samples() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&v), None);
        assert_eq!(supported_tail(999), 0.9);
        assert_eq!(supported_tail(99), 0.5);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // Nearest rank: the 990th of 1000 ascending values.
        assert_eq!(p99(&v), Some(989.0));
    }

    #[test]
    fn block_medians_ignore_one_slow_block() {
        // 100 ops, one every 10 ms, 2 ms latency each — except block 3
        // (ops 30..40), which stalls: 100 ms apart, 50 ms latency.
        let mut t = 0.0;
        let samples: Vec<Sample> = (0..100)
            .map(|i| {
                let slow = (30..40).contains(&i);
                t += if slow { 0.1 } else { 0.01 };
                Sample {
                    end_s: t,
                    lat_s: if slow { 0.05 } else { 0.002 },
                    px: 1_000_000,
                }
            })
            .collect();
        let b = blocked(&samples);
        assert_eq!(b.samples, 100);
        assert_eq!(b.lat_ms.n, BLOCKS);
        assert!((b.lat_ms.median - 2.0).abs() < 1e-9);
        assert!((b.ops_per_s.median - 100.0).abs() < 1e-6);
        assert!((b.mpx_per_s.median - 100.0).abs() < 1e-6);
        // The whole-run mean rate would read 100 ops / 1.9 s = 52.6.
        assert!((b.ops_per_s.q1 - 100.0).abs() < 1e-6);
    }

    #[test]
    fn block_median_of_a_series() {
        // Ten blocks of three; one block is an outlier throughout.
        let mut v = vec![1.0; 30];
        v[3..6].fill(100.0);
        assert_eq!(block_median(&v), 1.0);
        assert_eq!(block_median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn blocks_are_equal_count_and_drop_the_remainder() {
        let samples: Vec<Sample> = (1..=47)
            .map(|i| Sample {
                end_s: i as f64,
                lat_s: 1.0,
                px: 1,
            })
            .collect();
        let b = blocked(&samples);
        assert_eq!(b.samples, 40);
        assert!((b.ops_per_s.median - 1.0).abs() < 1e-12);
        // Fewer samples than blocks: one block each.
        let b = blocked(&samples[..4]);
        assert_eq!((b.samples, b.lat_ms.n), (4, 4));
    }
}
