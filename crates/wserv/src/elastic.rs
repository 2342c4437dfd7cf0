//! Elastic sharding: a load-aware shard controller with cross-shard
//! work stealing and split/merge.
//!
//! Static FNV shape-hash routing ([`crate::shard::shard_of`]) keeps
//! same-shape work coalescible, but under a skewed shape distribution
//! it hotspots one shard while its peers idle — the `ImbalanceWait`
//! lane of the performance budget made first-class by the source
//! paper's overhead taxonomy. This module adds the control plane that
//! fixes it without giving up determinism:
//!
//! * [`ShardMap`] — the epoch-versioned routing authority. Explicit
//!   `shape → shard` overrides are layered over the FNV default, and a
//!   bounded *reserve pool* of shard slots can be activated (split) and
//!   retired (merge) at runtime. The live threaded driver, the
//!   supervisor/failover ring, and the discrete-event simulator all
//!   route through the same map, so elastic decisions replay
//!   bit-identically from `(config, seed)`.
//! * [`CostBook`] — per-shape EWMA of measured service seconds per
//!   request. Queue depth alone cannot compare shards when per-shape
//!   cost varies ~1.6× between kernel families; the book turns a
//!   queue census into *backlog seconds*.
//! * [`BalanceController`] — a clock-free policy state machine (every
//!   decision takes `now` as a parameter, like the admission queue)
//!   that consumes per-shard [`ShardLoad`] observations and issues
//!   typed [`BalanceAction`]s:
//!
//!   - **steal**: migrate queued same-shape entries from the most
//!     backlogged shard's admission queue to the least backlogged one.
//!     Priority class is preserved (entries re-enter their class
//!     bucket), solo (poison-suspect) entries are never moved, and the
//!     exactly-once books are untouched — migration is queue surgery,
//!     not re-admission.
//!   - **split**: activate a reserve slot and pin a subset of a hot
//!     shard's queued shapes to it via map overrides, then migrate the
//!     queued work; future arrivals of the moved shapes follow the
//!     override.
//!   - **merge**: retire a cold reserve-born shard — clear its
//!     overrides, deactivate it in the map, and drain its queue
//!     losslessly back through the map.
//!
//! A shard that has failed over (restart budget exhausted, or
//! mid-failover in the live driver) is never a steal source, steal
//! target, split source/target, or merge candidate: rebalancing and
//! failover move entries through the same admission-queue surgery, and
//! keeping the failed shard out of the controller's eligible set is
//! what guarantees an entry is owned by exactly one recovery mechanism
//! at a time.

use std::collections::BTreeMap;

use dwt::engine::PlanShape;

use crate::shard::{self, shape_key};

/// EWMA smoothing factor of the controller's per-shape [`CostBook`].
const EWMA_ALPHA: f64 = 0.3;

/// The controller's per-request cost estimate for a shape it has not
/// observed yet.
const DEFAULT_COST_S: f64 = 150e-6;

/// Knobs of the elastic control plane. All thresholds are in seconds
/// of estimated backlog: a queue census priced through a [`CostBook`]
/// that smooths each shape's measured service seconds with a fixed
/// EWMA factor of 0.3 and answers 150 µs per request for a shape it
/// has not seen yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticPolicy {
    /// Reserve shard slots available to split into and merge back out
    /// of (0 = steal-only: no slot to split into, none to retire).
    pub reserve: usize,
    /// Hysteresis: minimum seconds between controller actions.
    pub min_gap_s: f64,
    /// Steal when the hot/cold backlog gap reaches this many seconds.
    pub steal_gap_s: f64,
    /// Split when the hot shard's backlog reaches this many seconds
    /// (and a reserve slot plus a second queued shape are available).
    pub split_backlog_s: f64,
    /// Merge a reserve-born shard whose backlog has fallen to or below
    /// this many seconds.
    pub merge_backlog_s: f64,
}

impl ElasticPolicy {
    /// Steal-only elasticity: rebalance queued work across the static
    /// shard set, never changing the shard count. This is
    /// [`split_merge`](Self::split_merge) with no reserve: with no slot
    /// to split into and none to retire, its split and merge
    /// thresholds never apply.
    pub fn stealing() -> Self {
        Self::split_merge(0)
    }

    /// Full elasticity: stealing plus split into (and merge back out
    /// of) a reserve pool of `reserve` extra shard slots.
    pub fn split_merge(reserve: usize) -> Self {
        ElasticPolicy {
            reserve,
            min_gap_s: 200e-6,
            steal_gap_s: 400e-6,
            split_backlog_s: 2e-3,
            merge_backlog_s: 50e-6,
        }
    }

    /// Validate the policy. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("min_gap_s", self.min_gap_s),
            ("steal_gap_s", self.steal_gap_s),
            ("split_backlog_s", self.split_backlog_s),
            ("merge_backlog_s", self.merge_backlog_s),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("{name} = {v} must be finite and >= 0"));
            }
        }
        Ok(())
    }
}

/// The epoch-versioned routing authority: explicit shape overrides
/// layered over the FNV default, plus the active/reserve shard set.
///
/// With an empty override set and no reserve, routing is exactly the
/// static [`shard::route`]: home = FNV hash over the base shard count,
/// ring successors past failed shards. Overrides redirect individual
/// shapes (split pins); inactive reserve slots are skipped by the ring
/// walk, so activating or retiring a slot never perturbs the relative
/// order of the surviving shards. Every mutation bumps the epoch, which
/// is how drivers and tests pin "the routing table changed".
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMap {
    /// Domain of the FNV default hash (the boot-time shard count).
    base: usize,
    /// Total slots: `base` live shards plus the reserve pool.
    total: usize,
    /// Which slots participate in routing.
    active: Vec<bool>,
    /// Explicit shape overrides, keyed by [`shape_key`]. A `BTreeMap`
    /// keeps iteration (and therefore merge drains) deterministic.
    overrides: BTreeMap<u64, usize>,
    /// Version counter, bumped by every mutation.
    epoch: u64,
}

impl ShardMap {
    /// A map over `base` live shards plus `reserve` inactive slots.
    pub fn new(base: usize, reserve: usize) -> Self {
        let base = base.max(1);
        let total = base + reserve;
        let mut active = vec![false; total];
        for a in active.iter_mut().take(base) {
            *a = true;
        }
        ShardMap {
            base,
            total,
            active,
            overrides: BTreeMap::new(),
            epoch: 0,
        }
    }

    /// The boot-time shard count (the FNV default's domain).
    pub fn base(&self) -> usize {
        self.base
    }

    /// Total slots, reserve included.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Current routing-table version.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether slot `s` currently participates in routing.
    pub fn is_active(&self, s: usize) -> bool {
        self.active.get(s).copied().unwrap_or(false)
    }

    /// The shape's FNV home shard (override-blind) — the shard its
    /// rejections are accounted to, stable across elastic actions.
    pub fn home(&self, shape: &PlanShape) -> usize {
        shard::shard_of(shape, self.base)
    }

    /// Route a shape: its override target if one is set and active,
    /// else its FNV home; walk ring successors over the active ∩ alive
    /// slots when the preferred shard is inactive or dead. `None` when
    /// every active shard is down. Pure function of
    /// `(shape, map, alive)` — identical in the live driver and the
    /// simulator, which is what makes elastic failover replayable.
    pub fn route(&self, shape: &PlanShape, alive: &[bool]) -> Option<usize> {
        debug_assert_eq!(alive.len(), self.total, "alive vector must cover all slots");
        let key = shape_key(shape);
        let prefer = match self.overrides.get(&key) {
            Some(&s) if self.is_active(s) => s,
            _ => (key % self.base as u64) as usize,
        };
        (0..self.total)
            .map(|i| (prefer + i) % self.total)
            .find(|&ix| self.active[ix] && alive.get(ix).copied().unwrap_or(false))
    }

    /// Pin `key` to `shard`. Bumps the epoch.
    pub fn set_override(&mut self, key: u64, shard: usize) {
        debug_assert!(shard < self.total);
        self.overrides.insert(key, shard);
        self.epoch += 1;
    }

    /// Remove the pin on `key`, if any. Bumps the epoch when something
    /// was removed.
    pub fn clear_override(&mut self, key: u64) {
        if self.overrides.remove(&key).is_some() {
            self.epoch += 1;
        }
    }

    /// The keys currently pinned to `shard`, ascending.
    pub fn overrides_to(&self, shard: usize) -> Vec<u64> {
        self.overrides
            .iter()
            .filter_map(|(&k, &s)| (s == shard).then_some(k))
            .collect()
    }

    /// Number of overrides currently set.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// Activate a reserve slot (split). Bumps the epoch.
    pub fn activate(&mut self, s: usize) {
        debug_assert!(s < self.total);
        if !self.active[s] {
            self.active[s] = true;
            self.epoch += 1;
        }
    }

    /// Retire a slot back to the reserve (merge). Bumps the epoch.
    /// Base slots cannot be retired — the map must always keep the FNV
    /// domain routable.
    pub fn retire(&mut self, s: usize) {
        debug_assert!(
            s >= self.base && s < self.total,
            "only reserve slots retire"
        );
        if self.active[s] {
            self.active[s] = false;
            self.epoch += 1;
        }
    }

    /// The lowest inactive reserve slot, if any — where the next split
    /// lands (deterministic by construction).
    pub fn next_reserve_slot(&self) -> Option<usize> {
        (self.base..self.total).find(|&s| !self.active[s])
    }
}

/// Per-shape EWMA of measured service seconds per request.
///
/// Keys are [`shape_key`]s; the backing `BTreeMap` keeps iteration
/// deterministic. Before the first observation of a shape the book
/// answers its cold-start estimate, so the controller can act on a
/// cold start without dividing by zero.
#[derive(Debug, Clone)]
pub struct CostBook {
    alpha: f64,
    default_s: f64,
    map: BTreeMap<u64, f64>,
}

impl CostBook {
    /// A book with smoothing factor `alpha` and cold-start estimate
    /// `default_s`.
    pub fn new(alpha: f64, default_s: f64) -> Self {
        CostBook {
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            default_s,
            map: BTreeMap::new(),
        }
    }

    /// Fold one measured per-request service time into the estimate.
    pub fn observe(&mut self, key: u64, s_per_req: f64) {
        if !(s_per_req >= 0.0 && s_per_req.is_finite()) {
            return;
        }
        let e = self.map.entry(key).or_insert(s_per_req);
        *e += self.alpha * (s_per_req - *e);
    }

    /// Current per-request estimate for `key`.
    pub fn estimate(&self, key: u64) -> f64 {
        self.map.get(&key).copied().unwrap_or(self.default_s)
    }

    /// Shapes observed so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// One shape's queued presence on a shard, as observed by the census.
#[derive(Debug, Clone)]
pub struct QueuedShape {
    /// The shape itself (what queue surgery extracts by).
    pub shape: PlanShape,
    /// Its routing key.
    pub key: u64,
    /// Entries of this shape queued, solo entries included.
    pub count: usize,
    /// Entries eligible for migration (non-solo; poison suspects stay
    /// on their shard so quarantine isolation is never diluted).
    pub movable: usize,
}

/// One shard's load observation, the controller's input.
#[derive(Debug, Clone)]
pub struct ShardLoad {
    /// Whether the slot participates in routing.
    pub active: bool,
    /// Whether the shard has failed over (never rebalanced).
    pub failed: bool,
    /// Queue depth.
    pub depth: usize,
    /// Admission slots left before the queue is full.
    pub free: usize,
    /// Per-shape census of the queue, deterministic order.
    pub queued: Vec<QueuedShape>,
}

impl ShardLoad {
    /// Whether the controller may move work to or from this shard.
    fn eligible(&self) -> bool {
        self.active && !self.failed
    }
}

/// A typed rebalancing decision. Actions are data, not effects: the
/// drivers (live service and simulator) apply them through identical
/// queue surgery, and the per-run action log is what the determinism
/// tests replay.
#[derive(Debug, Clone, PartialEq)]
pub enum BalanceAction {
    /// Migrate up to `cap` queued entries of shape `key` from shard
    /// `from`'s admission queue to shard `to`'s.
    Steal {
        /// Overloaded source shard.
        from: usize,
        /// Idle target shard.
        to: usize,
        /// The shape being migrated.
        key: u64,
        /// Migration bound (the target's free queue slots at decision
        /// time).
        cap: usize,
    },
    /// Activate reserve slot `to` and pin `keys` (a subset of `from`'s
    /// queued shapes) to it, migrating their queued entries.
    Split {
        /// The hot shard being divided.
        from: usize,
        /// The reserve slot being activated.
        to: usize,
        /// The shape keys pinned to the new shard.
        keys: Vec<u64>,
    },
    /// Retire reserve-born shard `from`: clear its overrides,
    /// deactivate it, and drain its queue back through the map.
    Merge {
        /// The cold shard being retired.
        from: usize,
    },
}

impl BalanceAction {
    /// Stable label for machine-readable output.
    pub fn label(&self) -> &'static str {
        match self {
            BalanceAction::Steal { .. } => "steal",
            BalanceAction::Split { .. } => "split",
            BalanceAction::Merge { .. } => "merge",
        }
    }
}

/// The clock-free balance policy state machine. Owns the cost book and
/// the hysteresis clock; consumes [`ShardLoad`] observations; emits at
/// most one [`BalanceAction`] per decision so every action lands at a
/// well-defined virtual time.
#[derive(Debug, Clone)]
pub struct BalanceController {
    policy: ElasticPolicy,
    book: CostBook,
    last_action_t: f64,
}

impl BalanceController {
    /// A controller for `policy`. Panics on an invalid policy (the
    /// drivers validate configuration up front).
    pub fn new(policy: ElasticPolicy) -> Self {
        if let Err(reason) = policy.validate() {
            panic!("invalid ElasticPolicy: {reason}");
        }
        BalanceController {
            policy,
            book: CostBook::new(EWMA_ALPHA, DEFAULT_COST_S),
            last_action_t: f64::NEG_INFINITY,
        }
    }

    /// The policy this controller runs.
    pub fn policy(&self) -> &ElasticPolicy {
        &self.policy
    }

    /// Read access to the cost book (tests and diagnostics).
    pub fn book(&self) -> &CostBook {
        &self.book
    }

    /// Fold one measured per-request service time into the cost book.
    pub fn observe(&mut self, key: u64, s_per_req: f64) {
        self.book.observe(key, s_per_req);
    }

    /// Whether the hysteresis window has elapsed — callers check this
    /// before paying for a queue census.
    pub fn ready(&self, now: f64) -> bool {
        now - self.last_action_t >= self.policy.min_gap_s
    }

    /// Estimated backlog seconds of one load observation.
    pub fn backlog_s(&self, load: &ShardLoad) -> f64 {
        load.queued
            .iter()
            .map(|q| q.count as f64 * self.book.estimate(q.key))
            .sum()
    }

    /// Decide at most one action at virtual time `now` given the
    /// per-slot observations (indexed by shard slot, reserve included).
    /// Deterministic: ties break toward the lowest shard index, shape
    /// candidates are examined in census order.
    pub fn decide(&mut self, now: f64, loads: &[ShardLoad]) -> Option<BalanceAction> {
        if !self.ready(now) {
            return None;
        }
        let action = self
            .decide_split(loads)
            .or_else(|| self.decide_steal(loads))
            .or_else(|| self.decide_merge(loads));
        if action.is_some() {
            self.last_action_t = now;
        }
        action
    }

    /// Hot shard past the split threshold with ≥ 2 distinct movable
    /// shapes, and a reserve slot free: divide its shape set.
    fn decide_split(&self, loads: &[ShardLoad]) -> Option<BalanceAction> {
        let to = loads.iter().position(|l| !l.active && !l.failed)?;
        let (from, load, backlog) = loads
            .iter()
            .enumerate()
            .filter(|(_, l)| l.eligible())
            .map(|(s, l)| (s, l, self.backlog_s(l)))
            .max_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)))?;
        if backlog < self.policy.split_backlog_s {
            return None;
        }
        let movable: Vec<&QueuedShape> = load.queued.iter().filter(|q| q.movable > 0).collect();
        if movable.len() < 2 {
            return None;
        }
        // Greedy two-way partition of the queued shapes by estimated
        // backlog, heaviest first; the lighter side moves so the
        // hottest shape keeps its warm plan cache.
        let mut ranked: Vec<(&QueuedShape, f64)> = movable
            .iter()
            .map(|q| (*q, q.count as f64 * self.book.estimate(q.key)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.key.cmp(&b.0.key)));
        let (mut stay_s, mut move_s) = (0.0f64, 0.0f64);
        let mut keys = Vec::new();
        for (q, cost) in ranked {
            if stay_s <= move_s {
                stay_s += cost;
            } else {
                move_s += cost;
                keys.push(q.key);
            }
        }
        if keys.is_empty() {
            return None;
        }
        keys.sort_unstable();
        Some(BalanceAction::Split { from, to, keys })
    }

    /// Hot/cold backlog gap past the threshold: migrate the queued
    /// shape whose movable backlog best levels the pair.
    fn decide_steal(&self, loads: &[ShardLoad]) -> Option<BalanceAction> {
        let mut hot: Option<(usize, f64)> = None;
        let mut cold: Option<(usize, f64)> = None;
        for (s, l) in loads.iter().enumerate() {
            if !l.eligible() {
                continue;
            }
            let b = self.backlog_s(l);
            if hot.is_none_or(|(_, hb)| b > hb) {
                hot = Some((s, b));
            }
            if cold.is_none_or(|(_, cb)| b < cb) {
                cold = Some((s, b));
            }
        }
        let ((from, hot_b), (to, cold_b)) = (hot?, cold?);
        let gap = hot_b - cold_b;
        if from == to || gap < self.policy.steal_gap_s || loads[to].free == 0 {
            return None;
        }
        // Pick the shape whose migrated backlog lands closest to half
        // the gap (perfect leveling), bounded by the target's free
        // queue slots.
        let mut best: Option<(&QueuedShape, usize, f64)> = None;
        for q in &loads[from].queued {
            let cap = q.movable.min(loads[to].free);
            if cap == 0 {
                continue;
            }
            let moved = cap as f64 * self.book.estimate(q.key);
            let miss = (gap / 2.0 - moved).abs();
            if best.is_none_or(|(.., bm)| miss < bm) {
                best = Some((q, cap, miss));
            }
        }
        let (q, cap, _) = best?;
        Some(BalanceAction::Steal {
            from,
            to,
            key: q.key,
            cap,
        })
    }

    /// A reserve-born shard gone cold: retire it. Only slots outside
    /// the FNV base domain merge, so the default hash always has a
    /// routable home.
    fn decide_merge(&self, loads: &[ShardLoad]) -> Option<BalanceAction> {
        let base = loads.len() - self.policy.reserve;
        loads
            .iter()
            .enumerate()
            .skip(base)
            .filter(|(_, l)| l.eligible())
            .find(|(_, l)| self.backlog_s(l) <= self.policy.merge_backlog_s)
            .map(|(from, _)| BalanceAction::Merge { from })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwt::{Boundary, FilterBank};

    fn shape(n: usize) -> PlanShape {
        PlanShape::new(n, n, &FilterBank::haar(), 1, Boundary::Periodic)
    }

    fn load(active: bool, queued: Vec<(PlanShape, usize, usize)>, free: usize) -> ShardLoad {
        let depth = queued.iter().map(|(_, c, _)| *c).sum();
        ShardLoad {
            active,
            failed: false,
            depth,
            free,
            queued: queued
                .into_iter()
                .map(|(shape, count, movable)| QueuedShape {
                    key: shape_key(&shape),
                    shape,
                    count,
                    movable,
                })
                .collect(),
        }
    }

    #[test]
    fn map_matches_static_routing_when_unmodified() {
        let map = ShardMap::new(4, 0);
        for n in [8usize, 16, 32, 64, 128] {
            let s = shape(n);
            let all_up = vec![true; 4];
            assert_eq!(map.route(&s, &all_up), shard::route(&s, &all_up));
            let mut one_down = vec![true; 4];
            one_down[shard::shard_of(&s, 4)] = false;
            assert_eq!(map.route(&s, &one_down), shard::route(&s, &one_down));
        }
        assert_eq!(map.epoch(), 0);
    }

    #[test]
    fn map_matches_static_routing_with_inactive_reserve() {
        // Reserve slots that were never activated must not perturb the
        // static ring: the failover order over the base shards is the
        // same as without a reserve.
        let map = ShardMap::new(4, 2);
        for n in [8usize, 16, 32, 64, 128] {
            let s = shape(n);
            for down in 0..4usize {
                let mut alive = vec![true; 6];
                alive[down] = false;
                let expect = {
                    let mut base_alive = vec![true; 4];
                    base_alive[down] = false;
                    shard::route(&s, &base_alive)
                };
                assert_eq!(map.route(&s, &alive), expect, "size {n} down {down}");
            }
        }
    }

    #[test]
    fn overrides_redirect_and_epoch_versions_every_mutation() {
        let mut map = ShardMap::new(2, 2);
        let s = shape(32);
        let key = shape_key(&s);
        let alive = vec![true; 4];
        let home = map.home(&s);
        assert_eq!(map.route(&s, &alive), Some(home));

        map.activate(2);
        assert_eq!(map.epoch(), 1);
        map.set_override(key, 2);
        assert_eq!(map.epoch(), 2);
        assert_eq!(map.route(&s, &alive), Some(2));
        assert_eq!(map.overrides_to(2), vec![key]);

        // A dead override target falls back to the ring.
        let mut two_down = alive.clone();
        two_down[2] = false;
        let ringed = map.route(&s, &two_down).expect("survivors exist");
        assert_ne!(ringed, 2);

        // Retiring the slot disables the override without removing it…
        map.retire(2);
        assert_eq!(map.epoch(), 3);
        assert_eq!(map.route(&s, &alive), Some(home));
        // …and clearing it restores the pristine table.
        map.clear_override(key);
        assert_eq!(map.epoch(), 4);
        assert_eq!(map.override_count(), 0);
        assert_eq!(map.next_reserve_slot(), Some(2));
    }

    #[test]
    fn cost_book_ewma_converges_and_defaults_cold() {
        let mut book = CostBook::new(0.5, 100e-6);
        assert_eq!(book.estimate(7), 100e-6);
        book.observe(7, 1e-3);
        assert!(
            (book.estimate(7) - 1e-3).abs() < 1e-12,
            "first observation seeds"
        );
        book.observe(7, 2e-3);
        assert!((book.estimate(7) - 1.5e-3).abs() < 1e-12);
        book.observe(7, f64::NAN); // ignored
        assert!((book.estimate(7) - 1.5e-3).abs() < 1e-12);
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn steal_levels_the_hot_and_cold_shards() {
        let mut ctrl = BalanceController::new(ElasticPolicy::stealing());
        let (a, b) = (shape(64), shape(32));
        let loads = vec![
            load(true, vec![(a.clone(), 8, 8), (b.clone(), 2, 2)], 54),
            load(true, vec![], 64),
        ];
        let action = ctrl.decide(0.0, &loads).expect("gap is enormous");
        match &action {
            BalanceAction::Steal { from, to, key, cap } => {
                assert_eq!((*from, *to), (0, 1));
                assert!(*key == shape_key(&a) || *key == shape_key(&b));
                assert!(*cap > 0);
            }
            other => panic!("expected steal, got {other:?}"),
        }
        // Hysteresis: an immediate second decision is suppressed.
        assert!(ctrl.decide(0.0, &loads).is_none());
        assert!(ctrl.decide(1.0, &loads).is_some());
    }

    #[test]
    fn steal_never_targets_failed_or_full_shards() {
        let mut ctrl = BalanceController::new(ElasticPolicy::stealing());
        let s = shape(64);
        let mut loads = vec![
            load(true, vec![(s.clone(), 8, 8)], 56),
            load(true, vec![], 64),
        ];
        loads[1].failed = true;
        assert!(
            ctrl.decide(0.0, &loads).is_none(),
            "the only idle shard is failed — no steal may target it"
        );
        loads[1].failed = false;
        loads[1].free = 0;
        assert!(
            ctrl.decide(0.0, &loads).is_none(),
            "a full target queue admits no migration"
        );
    }

    #[test]
    fn split_pins_the_lighter_half_and_merge_retires_cold_reserves() {
        let mut policy = ElasticPolicy::split_merge(1);
        policy.split_backlog_s = 1e-3;
        let mut ctrl = BalanceController::new(policy);
        let (a, b) = (shape(64), shape(32));
        ctrl.observe(shape_key(&a), 1e-3);
        ctrl.observe(shape_key(&b), 1e-4);
        let loads = vec![
            load(true, vec![(a.clone(), 6, 6), (b.clone(), 4, 4)], 54),
            load(false, vec![], 64),
        ];
        match ctrl.decide(0.0, &loads).expect("hot shard over threshold") {
            BalanceAction::Split { from, to, keys } => {
                assert_eq!((from, to), (0, 1));
                // The heavier shape (a) stays home; the lighter moves.
                assert_eq!(keys, vec![shape_key(&b)]);
            }
            other => panic!("expected split, got {other:?}"),
        }
        // Once the reserve shard is active and cold, it merges back.
        let loads = vec![load(true, vec![], 64), load(true, vec![], 64)];
        match ctrl.decide(1.0, &loads).expect("cold reserve shard") {
            BalanceAction::Merge { from } => assert_eq!(from, 1),
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    fn policy_validation_rejects_nonsense() {
        assert!(ElasticPolicy::stealing().validate().is_ok());
        assert!(ElasticPolicy::split_merge(2).validate().is_ok());
        let mut p = ElasticPolicy::stealing();
        p.steal_gap_s = f64::NAN;
        assert!(p.validate().is_err());
        p = ElasticPolicy::stealing();
        p.split_backlog_s = f64::INFINITY;
        assert!(p.validate().is_err());
    }
}
