//! Shard routing and batch execution.
//!
//! Requests are routed by *shape*, not round-robin: every request with
//! a given [`PlanShape`] lands on the same shard, so each plan is built
//! (and cached) on exactly one shard and same-shape requests can always
//! coalesce. The router is a stable FNV-1a hash of the shape — a pure
//! function of the request, identical in the live server and the
//! simulator.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use dwt::engine::PlanShape;
use dwt::Pyramid;
use dwt_mimd::encode_plane;

use crate::batch::Batch;
use crate::cache::PlanCache;
use crate::request::Entry;

/// FNV-1a, used instead of the std `DefaultHasher` so shard routing is
/// stable by specification rather than by implementation accident.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The stable 64-bit routing key of a shape: its FNV-1a hash. This is
/// the coordinate the elastic [`crate::elastic::ShardMap`] keys its
/// overrides and the [`crate::elastic::CostBook`] keys its estimates
/// by, so steal/split decisions and the default hash placement agree on
/// what "the same shape" means.
pub fn shape_key(shape: &PlanShape) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    shape.hash(&mut h);
    h.finish()
}

/// The shard a shape routes to, in `0..nshards`.
pub fn shard_of(shape: &PlanShape, nshards: usize) -> usize {
    (shape_key(shape) % nshards.max(1) as u64) as usize
}

/// Static failover routing: the shape's home shard if it is alive,
/// otherwise the first live successor walking the shard ring. `None`
/// when every shard is down. The drivers route through
/// [`crate::elastic::ShardMap::route`]; this pure function is the
/// reference an unmodified map is tested against.
pub fn route(shape: &PlanShape, alive: &[bool]) -> Option<usize> {
    let n = alive.len();
    if n == 0 {
        return None;
    }
    let home = shard_of(shape, n);
    (0..n).map(|i| (home + i) % n).find(|&ix| alive[ix])
}

/// Outcome of executing one batch through a shard's plan cache.
#[derive(Debug)]
pub struct Executed {
    /// One pyramid per batch entry, in dispatch order. Bit-identical to
    /// direct [`dwt::engine::DwtPlan::decompose_into`] calls on the same
    /// inputs — batching and caching never change arithmetic.
    pub pyramids: Vec<Pyramid>,
    /// Whether the plan lookup hit the cache.
    pub cache_hit: bool,
    /// Wall seconds the lookup spent building the plan: 0.0 on a hit.
    /// The live driver's plan lane. The simulator prices a miss from its
    /// cost model and must not read this: it is a function of the seed.
    pub plan_s: f64,
}

/// Execute every request of `batch` with one cached plan. `spare` may
/// offer an entry storage to decompose into: a pyramid the plan's own
/// [`dwt::engine::DwtPlan::check_pyramid`] accepts is overwritten in
/// full, and anything else is dropped for a freshly allocated one.
pub fn execute<T>(
    cache: &mut PlanCache,
    batch: &Batch<T>,
    mut spare: impl FnMut(&Entry<T>) -> Option<Pyramid>,
) -> Result<Executed, String> {
    let bank = &batch.entries[0].req.bank;
    let t0 = Instant::now();
    let cache_hit = cache.ensure(&batch.shape, bank)?;
    let plan_s = if cache_hit {
        0.0
    } else {
        t0.elapsed().as_secs_f64()
    };
    let cached = cache.entry_mut(&batch.shape);
    let mut pyramids = Vec::with_capacity(batch.len());
    for entry in &batch.entries {
        let mut pyr = match spare(entry) {
            Some(pyr) if cached.plan.check_pyramid(&pyr).is_ok() => pyr,
            _ => cached.plan.make_pyramid(),
        };
        cached
            .plan
            .decompose_into(&entry.req.image, &mut cached.workspace, &mut pyr)
            .map_err(|e| e.to_string())?;
        pyramids.push(pyr);
    }
    Ok(Executed {
        pyramids,
        cache_hit,
        plan_s,
    })
}

/// Degrade one response pyramid in place with the checkpoint codec's
/// own quantizer ([`encode_plane`]): detail magnitudes at or below the
/// policy threshold are zeroed, survivors are quantized to the policy
/// step, and the LL plane is untouched.
/// The per-coefficient error versus the exact pyramid is bounded by
/// [`crate::faults::DegradedPolicy::error_bound`] by construction.
/// Returns the number of surviving (nonzero) detail coefficients, which
/// is what the delivery cost of a degraded response scales with.
pub fn degrade_pyramid(pyr: &mut Pyramid, policy: &crate::faults::DegradedPolicy) -> usize {
    let mut kept = 0;
    for bands in &mut pyr.detail {
        let (lh, hl, hh) = bands.split_mut();
        for plane in [lh, hl, hh] {
            kept += encode_plane(plane, policy.threshold, policy.step).kept;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DegradedPolicy;
    use crate::request::DecomposeRequest;
    use dwt::{dwt2d, Boundary, FilterBank, Matrix};

    #[test]
    fn failover_walks_the_ring_to_the_first_survivor() {
        let bank = FilterBank::haar();
        let shape = PlanShape::new(16, 16, &bank, 1, Boundary::Periodic);
        let n = 4;
        let home = shard_of(&shape, n);
        let all_up = vec![true; n];
        assert_eq!(route(&shape, &all_up), Some(home));
        let mut home_down = vec![true; n];
        home_down[home] = false;
        assert_eq!(route(&shape, &home_down), Some((home + 1) % n));
        let mut two_down = vec![true; n];
        two_down[home] = false;
        two_down[(home + 1) % n] = false;
        assert_eq!(route(&shape, &two_down), Some((home + 2) % n));
        assert_eq!(route(&shape, &vec![false; n]), None);
        assert_eq!(route(&shape, &[]), None);
    }

    /// The plan lane is measured, not guessed: a miss reports the time
    /// `ensure` spent building, a hit reports none.
    #[test]
    fn execute_times_plan_construction_on_a_miss_only() {
        let req = DecomposeRequest::new(Matrix::zeros(16, 16), FilterBank::haar(), 1);
        let entry = Entry {
            id: 0,
            arrival: 0.0,
            req,
            attempts: 0,
            tag: (),
        };
        let batch = Batch {
            shape: entry.req.shape(),
            entries: vec![entry],
        };
        let mut cache = PlanCache::new(2, 1);
        let first = execute(&mut cache, &batch, |_| None).unwrap();
        assert!(!first.cache_hit && first.plan_s > 0.0);
        let second = execute(&mut cache, &batch, |_| None).unwrap();
        assert!(second.cache_hit && second.plan_s == 0.0);
        assert_eq!(first.pyramids, second.pyramids);
    }

    /// Every coefficient's bit pattern, in the pyramid's own order.
    fn bits(pyr: &Pyramid) -> Vec<u64> {
        let mut out = Vec::new();
        pyr.for_each_coeff(|c| out.push(c.to_bits()));
        out
    }

    /// A spare is overwritten in full: one filled with NaN payloads and
    /// `-0.0` yields the bits of a fresh pyramid, for every bank and
    /// boundary the service accepts, exact and degraded, and one whose
    /// geometry the plan refuses is dropped for a fresh one.
    #[test]
    fn a_spare_decomposes_to_the_bits_of_a_fresh_pyramid() {
        let banks = [
            FilterBank::haar(),
            FilterBank::daubechies(4).unwrap(),
            FilterBank::daubechies(8).unwrap(),
            FilterBank::cdf53(),
            FilterBank::cdf97(),
        ];
        let policy = DegradedPolicy {
            threshold: 1.5,
            step: 0.5,
            queue_high_water: 0.5,
        };
        let poison = |rows, cols, levels| {
            let mut pyr = Pyramid::zeros(rows, cols, levels).unwrap();
            let mut k = 0u64;
            pyr.for_each_coeff_mut(|c| {
                *c = [f64::from_bits(0x7ff8_dead_beef_0000 | k), -0.0][k as usize % 2];
                k += 1;
            });
            pyr
        };
        let mut accepted = 0;
        for bank in &banks {
            for mode in Boundary::ALL {
                let image = |salt| {
                    Matrix::from_fn(32, 32, |r, c| ((r * 13 + c * 7 + salt) % 23) as f64 - 11.0)
                };
                let entry = |id, salt| Entry {
                    id,
                    arrival: 0.0,
                    req: DecomposeRequest::new(image(salt), bank.clone(), 3).with_mode(mode),
                    attempts: 0,
                    tag: (),
                };
                let batch = Batch {
                    shape: entry(0, 0).req.shape(),
                    entries: vec![entry(0, 0), entry(1, 5), entry(2, 9)],
                };
                let mut cache = PlanCache::new(2, 1);
                // The lifting banks run on periodic boundaries only.
                let Ok(fresh) = execute(&mut cache, &batch, |_| None) else {
                    continue;
                };
                accepted += 1;
                // A fitting spare, one of the wrong depth, and none.
                let mut spares = [poison(32, 32, 3), poison(32, 32, 2)].into_iter();
                let reused = execute(&mut cache, &batch, |_| spares.next()).unwrap();
                for (k, (a, b)) in fresh.pyramids.iter().zip(&reused.pyramids).enumerate() {
                    let at = format!("{} {mode:?} entry {k}", bank.name());
                    assert_eq!(bits(a), bits(b), "{at}: exact");
                    let (mut a, mut b) = (a.clone(), b.clone());
                    degrade_pyramid(&mut a, &policy);
                    degrade_pyramid(&mut b, &policy);
                    assert_eq!(bits(&a), bits(&b), "{at}: degraded");
                }
            }
        }
        assert_eq!(accepted, 3 * 3 + 2, "every pairing the service accepts");
    }

    #[test]
    fn degraded_pyramid_stays_within_the_error_bound() {
        let img = Matrix::from_fn(16, 16, |r, c| ((r * 13 + c * 7) % 23) as f64 - 11.0);
        let bank = FilterBank::haar();
        let exact = dwt2d::decompose(&img, &bank, 2, Boundary::Periodic).unwrap();
        let policy = DegradedPolicy {
            threshold: 1.5,
            step: 0.5,
            queue_high_water: 0.5,
        };
        let mut degraded = exact.clone();
        let kept = degrade_pyramid(&mut degraded, &policy);
        // LL plane is exact.
        assert_eq!(degraded.approx, exact.approx);
        // Detail planes are within the asserted bound, and the
        // threshold really zeroed something.
        let bound = policy.error_bound();
        let mut zeroed = 0;
        for (d, e) in degraded.detail.iter().zip(exact.detail.iter()) {
            for (dp, ep) in [(&d.lh, &e.lh), (&d.hl, &e.hl), (&d.hh, &e.hh)] {
                for (a, b) in dp.data().iter().zip(ep.data().iter()) {
                    assert!((a - b).abs() <= bound + 1e-12, "{a} vs {b} exceeds {bound}");
                    if *a == 0.0 && *b != 0.0 {
                        zeroed += 1;
                    }
                }
            }
        }
        assert!(zeroed > 0, "threshold never fired — test inputs too tame");
        assert!(kept > 0, "everything zeroed — test inputs too tame");
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let bank = FilterBank::daubechies(4).unwrap();
        for n in [1usize, 2, 3, 8] {
            let mut seen = vec![false; n];
            for size in [8usize, 16, 32, 64, 128] {
                let s = PlanShape::new(size, size, &bank, 2, Boundary::Periodic);
                let shard = shard_of(&s, n);
                assert!(shard < n);
                assert_eq!(shard, shard_of(&s, n), "routing must be deterministic");
                seen[shard] = true;
            }
            if n == 1 {
                assert!(seen[0]);
            }
        }
    }
}
