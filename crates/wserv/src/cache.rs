//! Shape-keyed LRU cache of engine plans and their workspaces.
//!
//! [`dwt::engine::DwtPlan`] construction validates geometry and sizes
//! every scratch buffer; [`dwt::engine::DwtWorkspace`] allocation is the
//! dominant per-request cost for small images. Both are a pure function
//! of the [`PlanShape`], so the service builds them once per shape and
//! replays them for every later request — the inference-serving "keep
//! transform state resident" move. Hit/miss/eviction counters are part
//! of the cache itself so every consumer reports the same numbers.
//!
//! Capacity 0 disables reuse entirely (every lookup rebuilds); the
//! benches use that as the cache-off baseline.

use std::collections::VecDeque;

use dwt::engine::{DwtPlan, DwtWorkspace, PlanShape};
use dwt::FilterBank;

/// A resident plan and the scratch space its execution reuses.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The validated, pre-sized plan.
    pub plan: DwtPlan,
    /// Zero-allocation execution scratch, reused across requests.
    pub workspace: DwtWorkspace,
}

/// LRU plan cache. Entries are keyed by [`PlanShape`]; the most
/// recently used entry lives at the back of the deque.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    threads: usize,
    entries: VecDeque<(PlanShape, CachedPlan)>,
    /// Rebuild slot for the cache-off mode (capacity 0).
    scratch: Option<(PlanShape, CachedPlan)>,
    /// Lookups served by a resident plan.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries displaced by LRU pressure.
    pub evictions: u64,
}

impl PlanCache {
    /// A cache holding up to `capacity` plans, each built with
    /// `threads` engine worker lanes. `capacity == 0` disables reuse.
    pub fn new(capacity: usize, threads: usize) -> Self {
        PlanCache {
            capacity,
            threads: threads.max(1),
            entries: VecDeque::new(),
            scratch: None,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Whether reuse is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit rate over lookups so far (0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Make a plan for `shape` resident, building (and possibly
    /// evicting) on miss. Returns whether the lookup was a hit. `bank`
    /// must be the filter bank the shape was keyed from — the shape
    /// embeds the exact tap bits, so a mismatch cannot alias silently.
    pub fn ensure(&mut self, shape: &PlanShape, bank: &FilterBank) -> Result<bool, String> {
        if !self.enabled() {
            // Cache-off baseline: rebuild on every lookup.
            self.misses += 1;
            self.scratch = Some((shape.clone(), Self::build(shape, bank, self.threads)?));
            return Ok(false);
        }
        if let Some(pos) = self.entries.iter().position(|(s, _)| s == shape) {
            self.hits += 1;
            // Move to the MRU end.
            let entry = self.entries.remove(pos).expect("position just found");
            self.entries.push_back(entry);
            return Ok(true);
        }
        self.misses += 1;
        let built = Self::build(shape, bank, self.threads)?;
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evictions += 1;
        }
        self.entries.push_back((shape.clone(), built));
        Ok(false)
    }

    /// The resident entry for `shape`. Panics if [`PlanCache::ensure`]
    /// did not just succeed for the same shape — the two calls are one
    /// logical lookup split so callers can time plan construction
    /// separately from execution.
    pub fn entry_mut(&mut self, shape: &PlanShape) -> &mut CachedPlan {
        if !self.enabled() {
            let (s, entry) = self
                .scratch
                .as_mut()
                .expect("ensure() precedes entry_mut()");
            assert!(s == shape, "entry_mut() shape differs from ensure()");
            return entry;
        }
        let pos = self
            .entries
            .iter()
            .position(|(s, _)| s == shape)
            .expect("ensure() precedes entry_mut()");
        &mut self.entries[pos].1
    }

    fn build(shape: &PlanShape, bank: &FilterBank, threads: usize) -> Result<CachedPlan, String> {
        let plan = DwtPlan::new(
            shape.rows,
            shape.cols,
            bank.clone(),
            shape.levels,
            shape.mode,
        )
        .map_err(|e| e.to_string())?
        .with_threads(threads);
        let workspace = plan.make_workspace();
        Ok(CachedPlan { plan, workspace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwt::Boundary;

    fn shape(n: usize) -> (PlanShape, FilterBank) {
        let bank = FilterBank::haar();
        let s = PlanShape::new(n, n, &bank, 1, Boundary::Periodic);
        (s, bank)
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let mut c = PlanCache::new(2, 1);
        let (s8, b) = shape(8);
        let (s16, _) = shape(16);
        let (s32, _) = shape(32);
        assert!(!c.ensure(&s8, &b).unwrap());
        assert!(!c.ensure(&s16, &b).unwrap());
        assert!(c.ensure(&s8, &b).unwrap()); // hit refreshes 8 to MRU
        assert!(!c.ensure(&s32, &b).unwrap()); // evicts 16, the LRU
        assert!(c.ensure(&s8, &b).unwrap());
        assert!(!c.ensure(&s16, &b).unwrap()); // 16 was evicted: miss
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 4);
        assert_eq!(c.evictions, 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_zero_always_rebuilds() {
        let mut c = PlanCache::new(0, 1);
        let (s8, b) = shape(8);
        for _ in 0..3 {
            assert!(!c.ensure(&s8, &b).unwrap());
            assert_eq!(c.entry_mut(&s8).plan.rows(), 8);
        }
        assert_eq!(c.hits, 0);
        assert_eq!(c.misses, 3);
        assert!(c.is_empty());
    }
}
