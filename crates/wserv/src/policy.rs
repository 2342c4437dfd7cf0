//! The serving policy, written once.
//!
//! Everything the service decides about a request — the door's
//! outcome, re-admission, shed and deadline resolution, poisoned-batch
//! quarantine, worker death (restart or fail-over), elastic
//! steal/split/merge, and degraded responses — lives here, generic
//! over a [`Shards`] storage backend. Two backends exist, both
//! statically dispatched: the live driver's (`server.rs`: shard locks,
//! condvar wake-ups, response cells) and the simulator's (`sim.rs`:
//! plain vectors, outcome slots, a virtual clock).
//!
//! Every function takes `now` on the service clock and never nests two
//! storage calls, so the live backend holds at most one lock at a time
//! (two inside [`Shards::queue_pair`], which orders them itself).

use crate::admission::{AdmissionQueue, Admit};
use crate::batch::Batch;
use crate::elastic::{BalanceAction, BalanceController, QueuedShape, ShardLoad, ShardMap};
use crate::faults::{DegradedPolicy, SupervisorPolicy};
use crate::metrics::ShardMetrics;
use crate::request::{DecomposeResponse, Entry, Priority, RejectKind, Rejection, ServeResult};
use crate::shard::{self, Executed};

/// What the policy needs from whoever stores the shards.
pub(crate) trait Shards {
    /// The handle a request's terminal outcome is published through.
    type Tag;

    /// Shard slots, elastic reserve included.
    fn len(&self) -> usize;
    /// Whether shard `s` has not failed over.
    fn alive(&self, s: usize) -> bool;
    /// Fence shard `s` off from routing and rebalancing.
    fn mark_failed(&mut self, s: usize);
    /// Run `f` on shard `s`'s admission queue.
    fn queue<R>(&mut self, s: usize, f: impl FnOnce(&mut AdmissionQueue<Self::Tag>) -> R) -> R;
    /// Run `f` on the queues of two distinct shards at once, so a move
    /// between them is atomic with respect to every single-queue path.
    fn queue_pair<R>(
        &mut self,
        a: usize,
        b: usize,
        f: impl FnOnce(&mut AdmissionQueue<Self::Tag>, &mut AdmissionQueue<Self::Tag>) -> R,
    ) -> R;
    /// Run `f` on shard `s`'s metrics.
    fn metrics<R>(&mut self, s: usize, f: impl FnOnce(&mut ShardMetrics) -> R) -> R;
    /// Publish a request's terminal outcome (exactly once per tag).
    fn resolve(&mut self, tag: Self::Tag, result: ServeResult);
    /// Shard `s` was offered work at `now`.
    fn wake(&mut self, s: usize, now: f64);
}

pub(crate) fn alive<S: Shards>(store: &S) -> Vec<bool> {
    (0..store.len()).map(|s| store.alive(s)).collect()
}

/// Count `rejection` on shard `s`'s door books and hand it back — the
/// live door returns a refusal where every other path resolves a tag.
pub(crate) fn refusal<S: Shards>(store: &mut S, s: usize, rejection: Rejection) -> Rejection {
    store.queue(s, |q| q.counters.reject(rejection.kind()));
    rejection
}

/// The typed rejection for work shard `s` can no longer be routed
/// around, counted on `s`'s door books so they still balance per shard.
pub(crate) fn shard_failed<S: Shards>(store: &mut S, s: usize) -> Rejection {
    let restarts = store.metrics(s, |m| m.restarts as u32);
    refusal(store, s, Rejection::ShardFailed { shard: s, restarts })
}

/// Count `rejection` on shard `s`'s door books and resolve `tag` with
/// it.
pub(crate) fn reject<S: Shards>(store: &mut S, s: usize, tag: S::Tag, rejection: Rejection) {
    let rejection = refusal(store, s, rejection);
    store.resolve(tag, Err(rejection));
}

/// Settle what `target`'s queue answered an arrival of class `incoming`
/// at `now`: wake the shard, and fail a shed victim with its wasted
/// queue time billed. Returns the refusal, if the entry was not queued
/// (the queue already counted it), with the tag it is owed to —
/// [`admit`] resolves that tag, the live door hands the refusal back to
/// its submitter instead.
pub(crate) fn settle<S: Shards>(
    store: &mut S,
    target: usize,
    incoming: Priority,
    admitted: Admit<S::Tag>,
    now: f64,
) -> Option<(S::Tag, Rejection)> {
    store.wake(target, now);
    match admitted {
        Admit::Accepted => None,
        Admit::AcceptedShedding(victim) => {
            // The queue guarantees the victim's class is strictly
            // below the arrival's; the rejection records who won.
            debug_assert!(victim.req.priority < incoming);
            store.metrics(target, |m| m.record_lost(now - victim.arrival));
            store.resolve(victim.tag, Err(Rejection::Shed { by: incoming }));
            None
        }
        Admit::Rejected(entry, rejection) => Some((entry.tag, rejection)),
    }
}

/// Offer `entry` to `target`'s queue at `now`, resolving a shed victim
/// or a refusal. Returns whether the entry was queued.
pub(crate) fn admit<S: Shards>(
    store: &mut S,
    target: usize,
    entry: Entry<S::Tag>,
    now: f64,
) -> bool {
    let incoming = entry.req.priority;
    let admitted = store.queue(target, |q| q.admit(now, entry));
    match settle(store, target, incoming, admitted, now) {
        None => true,
        Some((tag, rejection)) => {
            store.resolve(tag, Err(rejection));
            false
        }
    }
}

/// Seconds charged per re-queued or re-routed entry: the state
/// handoff cost, billed to the FaultRecovery lane.
pub(crate) const REQUEUE_S: f64 = 5e-6;

/// Re-admit a recovered entry into `target`, charging the requeue
/// handoff to `charge` — the shard whose failure caused it: itself for
/// quarantine and restart requeues, the failed shard for re-routes.
pub(crate) fn readmit<S: Shards>(
    store: &mut S,
    charge: usize,
    target: usize,
    entry: Entry<S::Tag>,
    now: f64,
) {
    if admit(store, target, entry, now) {
        store.metrics(charge, |m| m.record_requeue(REQUEUE_S));
    }
}

/// Resolve the entries a dequeue on shard `s` found past their
/// deadline.
pub(crate) fn expire<S: Shards>(store: &mut S, s: usize, expired: Vec<Entry<S::Tag>>, now: f64) {
    for entry in expired {
        let deadline = entry.req.deadline.expect("expired implies a deadline");
        store.metrics(s, |m| m.record_lost(now - entry.arrival));
        store.resolve(entry.tag, Err(Rejection::DeadlineExpired { deadline, now }));
    }
}

/// Fail every entry of a batch the engine refused.
pub(crate) fn refuse<S: Shards>(store: &mut S, batch: Batch<S::Tag>, detail: &str) {
    for entry in batch.entries {
        let detail = detail.to_owned();
        store.resolve(entry.tag, Err(Rejection::Invalid { detail }));
    }
}

/// The poisoned-batch quarantine, applied after execution panicked:
/// batchmates re-queue to retry solo (attempts + 1, so the batcher
/// isolates them); a request that panicked even solo is terminally
/// rejected instead of burning another dispatch.
pub(crate) fn quarantine<S: Shards>(store: &mut S, s: usize, batch: Batch<S::Tag>, now: f64) {
    if batch.len() == 1 {
        let entry = batch.entries.into_iter().next().expect("len checked");
        store.metrics(s, |m| m.quarantined += 1);
        let attempts = entry.attempts + 1;
        reject(store, s, entry.tag, Rejection::Requeued { attempts });
        return;
    }
    for mut entry in batch.entries {
        entry.attempts += 1;
        readmit(store, s, s, entry, now);
    }
}

/// Shard `s`'s worker died holding `held`. Within the restart budget
/// the dispatch re-queues (the worker was the suspect, not the
/// requests, so attempts stay) and the backoff the driver must pay
/// before the worker runs again is returned; past it the shard fails
/// over and `None` is returned.
pub(crate) fn worker_died<S: Shards>(
    store: &mut S,
    map: &ShardMap,
    s: usize,
    held: Option<Batch<S::Tag>>,
    policy: &SupervisorPolicy,
    now: f64,
) -> Option<f64> {
    // The metrics carry the one record of restarts used so far.
    let restart_no = store.metrics(s, |m| m.restarts as u32) + 1;
    if restart_no > policy.max_restarts {
        fail_over(store, map, s, held, now);
        return None;
    }
    let backoff = policy.backoff_s(restart_no);
    store.metrics(s, |m| m.record_restart(backoff));
    for entry in held.into_iter().flat_map(|b| b.entries) {
        readmit(store, s, s, entry, now);
    }
    Some(backoff)
}

/// Declare shard `s` failed and re-route its in-flight (`held`) and
/// queued work to live successors through the shard map. Entries with
/// no live successor resolve [`Rejection::ShardFailed`].
fn fail_over<S: Shards>(
    store: &mut S,
    map: &ShardMap,
    s: usize,
    held: Option<Batch<S::Tag>>,
    now: f64,
) {
    store.mark_failed(s);
    store.metrics(s, |m| m.failed = true);
    let queued = store.queue(s, |q| q.drain());
    let alive = alive(store);
    for entry in held.into_iter().flat_map(|b| b.entries).chain(queued) {
        match map.route(&entry.req.shape(), &alive) {
            Some(target) => readmit(store, s, target, entry, now),
            None => {
                let rejection = shard_failed(store, s);
                store.resolve(entry.tag, Err(rejection));
            }
        }
    }
}

/// One controller step at `now`: census every slot, ask for a
/// decision, apply it. Returns the action only if it was applied —
/// which is what the drivers log.
pub(crate) fn balance<S: Shards>(
    store: &mut S,
    map: &mut ShardMap,
    ctrl: &mut BalanceController,
    now: f64,
) -> Option<BalanceAction> {
    if !ctrl.ready(now) {
        return None;
    }
    let loads: Vec<ShardLoad> = (0..store.len())
        .map(|s| {
            let failed = !store.alive(s);
            store.queue(s, |q| ShardLoad {
                active: map.is_active(s),
                failed,
                depth: q.len(),
                free: q.free(),
                queued: q
                    .shape_census()
                    .into_iter()
                    .map(|(shape, count, movable)| QueuedShape {
                        key: shard::shape_key(&shape),
                        shape,
                        count,
                        movable,
                    })
                    .collect(),
            })
        })
        .collect();
    let action = ctrl.decide(now, &loads)?;
    apply(store, map, &action, now).then_some(action)
}

/// Apply one decided action as queue surgery plus map mutation, and
/// say whether anything was applied. Every migrated entry leaves
/// exactly one queue and enters exactly one queue, so the exactly-once
/// books never see the move. A Split opens the reserve slot's
/// activation window and a Merge closes it: the one record both
/// drivers close a reserve slot's books over.
fn apply<S: Shards>(store: &mut S, map: &mut ShardMap, action: &BalanceAction, now: f64) -> bool {
    match *action {
        BalanceAction::Steal { from, to, key, cap } => {
            move_shape(store, from, to, key, cap, now) > 0
        }
        BalanceAction::Split { from, to, ref keys } => {
            if !store.alive(to) {
                return false;
            }
            map.activate(to);
            store.metrics(to, |m| m.activate(now));
            for &key in keys {
                map.set_override(key, to);
                move_shape(store, from, to, key, usize::MAX, now);
            }
            store.metrics(from, |m| m.splits += 1);
            true
        }
        BalanceAction::Merge { from } => {
            for key in map.overrides_to(from) {
                map.clear_override(key);
            }
            map.retire(from);
            store.metrics(from, |m| {
                m.merges += 1;
                m.retire(now);
            });
            // Drain the retiring queue losslessly: each entry goes to
            // its routed shard, else to any active live shard with
            // room. The merge threshold keeps the drain tiny (usually
            // empty); only if every such queue is full does the entry
            // resolve a typed QueueFull.
            let alive = alive(store);
            for entry in store.queue(from, |q| q.drain()) {
                let routed = map.route(&entry.req.shape(), &alive);
                let anywhere = (0..store.len()).filter(|&x| map.is_active(x) && alive[x]);
                let mut entry = Some(entry);
                for target in routed.into_iter().chain(anywhere) {
                    entry = store.queue(target, |q| match entry.take() {
                        Some(e) if q.free() > 0 => {
                            q.accept_migrated(e);
                            None
                        }
                        full => full,
                    });
                    if entry.is_none() {
                        moved(store, from, target, 1, now);
                        break;
                    }
                }
                if let Some(entry) = entry {
                    let depth = store.queue(from, |q| {
                        q.counters.reject(RejectKind::QueueFull);
                        q.len()
                    });
                    store.resolve(entry.tag, Err(Rejection::QueueFull { depth }));
                }
            }
            true
        }
    }
}

/// Migrate up to `cap` queued entries of routing key `key` from shard
/// `from` to shard `to` (bounded by `to`'s free slots), under both
/// queues at once so the move is atomic with respect to failover
/// drains. A failed shard is never a source or target: the controller
/// already filters them, and this re-check closes the live driver's
/// decide-to-apply race.
fn move_shape<S: Shards>(
    store: &mut S,
    from: usize,
    to: usize,
    key: u64,
    cap: usize,
    now: f64,
) -> u64 {
    if from == to || !store.alive(from) || !store.alive(to) {
        return 0;
    }
    let n = store.queue_pair(from, to, |src, dst| {
        let taken = src.take_shape(key, cap.min(dst.free()));
        let n = taken.len() as u64;
        for entry in taken {
            dst.accept_migrated(entry);
        }
        n
    });
    if n > 0 {
        moved(store, from, to, n, now);
    }
    n
}

/// Book `n` entries migrated from `from` to `to` and wake the target.
fn moved<S: Shards>(store: &mut S, from: usize, to: usize, n: u64, now: f64) {
    store.metrics(from, |m| m.stolen_out += n);
    store.metrics(to, |m| m.stolen_in += n);
    store.wake(to, now);
}

/// Resolve every entry of an executed batch on shard `s`. Under
/// reduced capacity — covering for a failed peer, or a queue that was
/// past the policy's high-water fraction (`depth_frac`) at dequeue —
/// sub-interactive work is answered with a degraded, bounded-error
/// pyramid. `end_of` prices the end of the service interval from the
/// delivered fraction summed over the batch (1 per exact response, the
/// surviving-coefficient share per degraded one); that end is returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn respond<S: Shards>(
    store: &mut S,
    s: usize,
    batch: Batch<S::Tag>,
    mut done: Executed,
    degraded: Option<DegradedPolicy>,
    depth_frac: f64,
    start: f64,
    end_of: impl FnOnce(f64) -> f64,
) -> f64 {
    let peer_failed = (0..store.len()).any(|i| i != s && !store.alive(i));
    let degrade = degraded.filter(|d| peer_failed || depth_frac >= d.queue_high_water);
    let degrades = |e: &Entry<S::Tag>| degrade.is_some() && e.req.priority < Priority::Interactive;
    let mut frac_sum = 0.0;
    let mut degraded_count = 0;
    for (entry, pyramid) in batch.entries.iter().zip(done.pyramids.iter_mut()) {
        let mut frac = 1.0;
        if let Some(d) = degrade.as_ref().filter(|_| degrades(entry)) {
            let approx = pyramid.approx.data().len();
            let detail: usize = pyramid
                .detail
                .iter()
                .map(|b| b.lh.data().len() + b.hl.data().len() + b.hh.data().len())
                .sum();
            let kept = shard::degrade_pyramid(pyramid, d);
            frac = (approx + kept) as f64 / (approx + detail).max(1) as f64;
            degraded_count += 1;
        }
        frac_sum += frac;
    }
    let end = end_of(frac_sum);
    let batch_size = batch.len();
    let error_bound = degrade.map_or(0.0, |d| d.error_bound());
    for (entry, pyramid) in batch.entries.into_iter().zip(done.pyramids) {
        let degraded = degrades(&entry);
        let response = DecomposeResponse {
            pyramid,
            cache_hit: done.cache_hit,
            batch_size,
            wait_s: (start - entry.arrival).max(0.0),
            service_s: (end - start).max(0.0),
            degraded,
            error_bound: if degraded { error_bound } else { 0.0 },
        };
        store.resolve(entry.tag, Ok(response));
    }
    if degraded_count > 0 {
        store.metrics(s, |m| m.degraded_served += degraded_count);
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::ElasticPolicy;
    use crate::request::DecomposeRequest;
    use crate::server::ServiceConfig;
    use crate::sim::SimStore;
    use dwt::{FilterBank, Matrix};

    /// Two base shards of capacity 2 plus one reserve slot (shard 2),
    /// over the sim backend; request tags are outcome slots 0..8.
    fn fixture() -> (SimStore, ShardMap) {
        let config = ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(2)
            .with_elastic(ElasticPolicy::split_merge(1));
        (SimStore::new(&config, 8), ShardMap::new(2, 1))
    }

    fn request(n: usize) -> DecomposeRequest {
        DecomposeRequest::new(Matrix::zeros(n, n), FilterBank::haar(), 1)
    }

    /// Queue request `tag` (an `n`×`n` image) directly on shard `s`.
    fn enqueue(store: &mut SimStore, s: usize, tag: usize, n: usize) {
        let entry = Entry {
            id: tag as u64,
            arrival: 0.0,
            req: request(n),
            attempts: 0,
            tag,
        };
        assert!(admit(store, s, entry, 0.0), "fixture overfilled shard {s}");
    }

    /// Per-shard queue depths, and the accepted and rejected totals
    /// over every shard's door.
    fn books(store: &mut SimStore) -> (Vec<usize>, u64, u64) {
        let door = |s| store.queue(s, |q| (q.len(), q.counters.clone()));
        let doors: Vec<_> = (0..3).map(door).collect();
        let depths = doors.iter().map(|(depth, _)| *depth).collect();
        let accepted = doors.iter().map(|(_, c)| c.accepted).sum();
        let rejected = doors.iter().map(|(_, c)| c.total_rejected()).sum();
        (depths, accepted, rejected)
    }

    /// A Split whose reserve target died between decide and apply is
    /// not applied — so, per [`balance`]'s contract, not logged — the
    /// routing table is untouched, and no entry moved.
    #[test]
    fn split_onto_a_failed_target_is_not_applied() {
        let (mut store, mut map) = fixture();
        enqueue(&mut store, 0, 0, 8);
        enqueue(&mut store, 0, 1, 16);
        let keys = [8, 16].map(|n| shard::shape_key(&request(n).shape()));
        let (from, to, keys) = (0, 2, keys.to_vec());
        store.mark_failed(to);
        let split = BalanceAction::Split { from, to, keys };
        assert!(!apply(&mut store, &mut map, &split, 1.0));
        assert_eq!(map.epoch(), 0);
        assert_eq!(books(&mut store).0, [2, 0, 0]);
    }

    /// A Split opens the reserve slot's activation window at its
    /// time and a Merge closes it at its own: the slot owes idle time
    /// over exactly that span.
    #[test]
    fn split_then_merge_writes_the_activation_window() {
        let (mut store, mut map) = fixture();
        enqueue(&mut store, 0, 0, 8);
        enqueue(&mut store, 0, 1, 16);
        let keys = vec![shard::shape_key(&request(16).shape())];
        let split = BalanceAction::Split {
            from: 0,
            to: 2,
            keys,
        };
        assert!(apply(&mut store, &mut map, &split, 1.0));
        assert!(apply(
            &mut store,
            &mut map,
            &BalanceAction::Merge { from: 2 },
            4.0
        ));
        let (wait, completion) = store.metrics(2, |m| {
            let end = m.close(3.0, true).expect("the slot was activated");
            (m.lanes.wait, end)
        });
        assert_eq!((wait, completion), (3.0, 4.0));
        // The base shards never wrote a window.
        assert_eq!(store.metrics(0, |m| m.close(5.0, false)), Some(5.0));
    }

    /// The Merge drain is lossless when it can be: an entry whose
    /// routed shard is full lands on another active shard with room;
    /// only when every queue is full does it resolve a typed QueueFull,
    /// and the books still balance.
    #[test]
    fn merge_drain_falls_back_to_any_shard_with_room() {
        for spare_slot in [true, false] {
            let (mut store, mut map) = fixture();
            let shape = request(8).shape();
            let (home, other) = (map.home(&shape), 1 - map.home(&shape));
            map.activate(2);
            map.set_override(shard::shape_key(&shape), 2);
            enqueue(&mut store, 2, 0, 8);
            enqueue(&mut store, home, 1, 16);
            enqueue(&mut store, home, 2, 16);
            enqueue(&mut store, other, 3, 16);
            if !spare_slot {
                enqueue(&mut store, other, 4, 16);
            }
            let merge = BalanceAction::Merge { from: 2 };
            assert!(apply(&mut store, &mut map, &merge, 1.0));
            assert!(!map.is_active(2));
            let stolen_in = store.metrics(other, |m| m.stolen_in);
            let (depths, accepted, rejected) = books(&mut store);
            // Accepted at some door = still queued + rejected since.
            assert_eq!(accepted, depths.iter().sum::<usize>() as u64 + rejected);
            let outcome = store.outcomes[0].take();
            if spare_slot {
                assert_eq!((stolen_in, rejected), (1, 0));
                assert!(outcome.is_none(), "a migrated entry stays queued");
            } else {
                assert_eq!((stolen_in, rejected), (0, 1));
                assert!(matches!(outcome, Some(Err(Rejection::QueueFull { .. }))));
            }
        }
    }
}
