//! Counters and histograms every pipeline stage exports.
//!
//! The lane accounting deliberately reuses the [`perfbudget`]
//! vocabulary (the JNNIE overhead categories) instead of inventing a
//! serving-specific one, so a shard reads like a rank of the SPMD
//! simulators and the whole service rolls up into an ordinary
//! [`BudgetReport`]:
//!
//! * [`Category::Useful`] — transform compute (the work a direct engine
//!   call would also do);
//! * [`Category::UniqueRedundancy`] — plan/workspace construction on
//!   cache misses (serving-only work the cache exists to amortize);
//! * [`Category::DuplicationRedundancy`] — per-dispatch overhead
//!   (queue pop, batch formation, worker wakeup), amortized by batching;
//! * [`Category::Communication`] — response delivery;
//! * [`Category::ImbalanceWait`] — shard idle time;
//! * [`Category::FaultRecovery`] — queue seconds wasted by entries that
//!   were shed or expired (work admitted and then lost to overload, the
//!   serving layer's failure lane).

use perfbudget::{BudgetReport, Category, RankBudget};

/// Exact-sample histogram with deterministic nearest-rank quantiles.
///
/// Samples are stored rather than binned: the serving benches record at
/// most a few hundred thousand points, and exact storage keeps the
/// emitted percentiles a pure function of the inputs (a binned sketch
/// would make them a function of bin-edge tuning too).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Nearest-rank quantile `q` in `[0, 1]` (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        nearest_rank(self.samples.clone(), q)
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (0 when empty).
fn nearest_rank(mut samples: Vec<f64>, q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// Counters the admission queue maintains about itself.
#[derive(Debug, Clone, Default)]
pub struct QueueCounters {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Rejections by [`crate::RejectKind`] bucket.
    pub rejected: [u64; 7],
}

impl QueueCounters {
    /// Count one rejection.
    pub fn reject(&mut self, kind: crate::RejectKind) {
        self.rejected[kind as usize] += 1;
    }

    /// Total rejections across buckets.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().sum()
    }
}

/// Seconds of one dispatch attributed to each budget lane.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneSplit {
    /// Per-dispatch overhead (pop, coalesce, wakeup).
    pub dispatch_s: f64,
    /// Plan/workspace construction (cache miss only).
    pub plan_s: f64,
    /// Transform compute.
    pub transform_s: f64,
    /// Response delivery.
    pub deliver_s: f64,
}

/// Everything one worker shard exports.
#[derive(Debug, Clone, Default)]
pub struct ShardMetrics {
    /// Admission-queue counters (absorbed from the queue at drain).
    pub queue: QueueCounters,
    /// Requests fully served.
    pub completed: u64,
    /// Engine dispatches (batches) executed.
    pub batches: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (plan + workspace built).
    pub cache_misses: u64,
    /// Plans evicted by LRU pressure.
    pub cache_evictions: u64,
    /// End-to-end latency per completed request: the one distribution
    /// the service exports ([`MetricsSnapshot::latency_quantile`] reads
    /// it). Exact, so 8 B per completed request for the life of the
    /// shard — nothing bounds it yet (ROADMAP item 5(c)).
    pub latency: Histogram,
    /// Lane accounting in the shared `perfbudget` vocabulary.
    pub lanes: RankBudget,
    /// Total busy seconds (sum of dispatch service intervals).
    pub busy_s: f64,
    /// Worker restarts the supervisor performed for this shard.
    pub restarts: u64,
    /// Entries re-queued after a worker death or batch panic
    /// (including entries re-routed *away* from this shard at
    /// failover).
    pub requeued: u64,
    /// Requests quarantined by the poisoned-batch protocol.
    pub quarantined: u64,
    /// Requests answered with a degraded (bounded-error) response.
    pub degraded_served: u64,
    /// Entries migrated *into* this shard's queue by an elastic steal
    /// or split.
    pub stolen_in: u64,
    /// Entries migrated *out of* this shard's queue by an elastic
    /// steal or split.
    pub stolen_out: u64,
    /// Split actions that divided this shard's shape set.
    pub splits: u64,
    /// Merge actions that retired this shard back to the reserve.
    pub merges: u64,
    /// Whether the shard ended the run failed over (restart budget
    /// exhausted).
    pub failed: bool,
}

impl ShardMetrics {
    /// Record one executed dispatch: its service interval, the arrival
    /// times of the requests it carried, and the lane split.
    pub fn record_batch(&mut self, start: f64, end: f64, arrivals: &[f64], split: LaneSplit) {
        self.batches += 1;
        self.completed += arrivals.len() as u64;
        for &a in arrivals {
            self.latency.record((end - a).max(0.0));
        }
        self.busy_s += end - start;
        self.lanes
            .charge(Category::DuplicationRedundancy, split.dispatch_s);
        self.lanes.charge(Category::UniqueRedundancy, split.plan_s);
        self.lanes.charge(Category::Useful, split.transform_s);
        self.lanes.charge(Category::Communication, split.deliver_s);
    }

    /// Record queue seconds wasted by a shed or expired entry.
    pub fn record_lost(&mut self, wasted_s: f64) {
        self.lanes
            .charge(Category::FaultRecovery, wasted_s.max(0.0));
    }

    /// Record one worker restart and its backoff cost.
    pub fn record_restart(&mut self, backoff_s: f64) {
        self.restarts += 1;
        self.lanes
            .charge(Category::FaultRecovery, backoff_s.max(0.0));
    }

    /// Record one entry re-queued (or re-routed at failover) and the
    /// handoff cost charged for it.
    pub fn record_requeue(&mut self, requeue_s: f64) {
        self.requeued += 1;
        self.lanes
            .charge(Category::FaultRecovery, requeue_s.max(0.0));
    }

    /// Copy cache counters out of the shard's plan cache.
    pub fn absorb_cache(&mut self, cache: &crate::PlanCache) {
        self.cache_hits = cache.hits;
        self.cache_misses = cache.misses;
        self.cache_evictions = cache.evictions;
    }

    /// Close the shard's books at service-clock time `now`: idle time
    /// becomes the imbalance/wait lane and `now` the completion time.
    pub fn finalize(&mut self, now: f64) {
        self.finalize_active(now, now);
    }

    /// Close the books over an explicit active span — how a
    /// reserve-born elastic shard finalizes: it only owes idle time for
    /// the `active_s` seconds it was actually activated, not the whole
    /// run, so a split late in a run does not spuriously inflate the
    /// imbalance lane. `completion` is when its last activation window
    /// closed.
    pub fn finalize_active(&mut self, active_s: f64, completion: f64) {
        self.lanes
            .charge(Category::ImbalanceWait, (active_s - self.busy_s).max(0.0));
        self.lanes.completion = completion;
    }

    /// Cache hit rate over terminated lookups (0 with no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Counters the remote transport layer exports, merged across all
/// connections a [`crate::RemoteServer`] (or client) ever carried.
/// Serialization/framing seconds are charged to the
/// [`Category::Communication`] lane by the remote driver.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportMetrics {
    /// Connections the server accepted and handshook.
    pub conns_accepted: u64,
    /// Half-open or mid-frame connections force-closed at drain after
    /// exhausting their grace window.
    pub conn_aborted: u64,
    /// Connections that ended in a reset (observed or injected).
    pub conn_reset: u64,
    /// Frames fully received and checksum-verified.
    pub frames_in: u64,
    /// Frames fully sent.
    pub frames_out: u64,
    /// Bytes taken off the wire.
    pub bytes_in: u64,
    /// Bytes put on the wire.
    pub bytes_out: u64,
    /// Frames rejected as corrupt (checksum, framing, or payload).
    pub frame_corrupt: u64,
    /// Frames rejected as over the receive window.
    pub frame_too_large: u64,
    /// Handshakes refused for speaking the wrong protocol.
    pub handshake_mismatch: u64,
    /// Duplicate submissions answered from the dedup registry instead
    /// of re-executed (the exactly-once replays).
    pub dedup_replays: u64,
    /// Progressive detail-plane frames sent (server) or applied
    /// (client).
    pub planes_sent: u64,
    /// Progressive sequences cut short by an honored Cancel.
    pub cancels_honored: u64,
    /// Seconds spent encoding/decoding frames (Communication lane).
    pub ser_s: f64,
}

impl TransportMetrics {
    /// Fold one connection's wire counters into the totals.
    pub fn absorb_wire(&mut self, stats: &crate::transport::WireStats) {
        self.frames_in += stats.frames_in;
        self.frames_out += stats.frames_out;
        self.bytes_in += stats.bytes_in;
        self.bytes_out += stats.bytes_out;
        self.ser_s += stats.ser_s;
    }

    /// Count one terminal transport error against its taxonomy bucket.
    pub fn count_error(&mut self, err: &crate::transport::TransportError) {
        use crate::transport::TransportError::*;
        match err {
            ConnReset => self.conn_reset += 1,
            FrameCorrupt { .. } => self.frame_corrupt += 1,
            FrameTooLarge { .. } => self.frame_too_large += 1,
            HandshakeMismatch { .. } => self.handshake_mismatch += 1,
            ConnTimeout { .. } | InvalidConfig { .. } => {}
        }
    }

    /// Merge another transport snapshot into this one.
    pub fn merge(&mut self, other: &TransportMetrics) {
        self.conns_accepted += other.conns_accepted;
        self.conn_aborted += other.conn_aborted;
        self.conn_reset += other.conn_reset;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.frame_corrupt += other.frame_corrupt;
        self.frame_too_large += other.frame_too_large;
        self.handshake_mismatch += other.handshake_mismatch;
        self.dedup_replays += other.dedup_replays;
        self.planes_sent += other.planes_sent;
        self.cancels_honored += other.cancels_honored;
        self.ser_s += other.ser_s;
    }
}

/// Final service-wide view: one [`ShardMetrics`] per shard.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-shard exports, indexed by shard.
    pub shards: Vec<ShardMetrics>,
}

impl MetricsSnapshot {
    /// Requests accepted across shards.
    pub fn accepted(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.accepted).sum()
    }

    /// Requests fully served across shards.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Rejections in one taxonomy bucket, across shards.
    pub fn rejected(&self, kind: crate::RejectKind) -> u64 {
        self.shards
            .iter()
            .map(|s| s.queue.rejected[kind as usize])
            .sum()
    }

    /// Cache hit rate across shards.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.shards.iter().map(|s| s.cache_hits).sum();
        let total: u64 = self
            .shards
            .iter()
            .map(|s| s.cache_hits + s.cache_misses)
            .sum();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Worker restarts across shards.
    pub fn restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Entries re-queued or re-routed across shards.
    pub fn requeued(&self) -> u64 {
        self.shards.iter().map(|s| s.requeued).sum()
    }

    /// Requests quarantined by the poisoned-batch protocol.
    pub fn quarantined(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined).sum()
    }

    /// Requests served degraded (bounded-error responses).
    pub fn degraded_served(&self) -> u64 {
        self.shards.iter().map(|s| s.degraded_served).sum()
    }

    /// Entries migrated between shards by elastic steal/split actions.
    /// In-migrations and out-migrations are counted by opposite ends of
    /// the same move, so the two totals always agree.
    pub fn stolen(&self) -> u64 {
        let stolen_in: u64 = self.shards.iter().map(|s| s.stolen_in).sum();
        debug_assert_eq!(
            stolen_in,
            self.shards.iter().map(|s| s.stolen_out).sum::<u64>(),
            "every migrated entry leaves one queue and enters another"
        );
        stolen_in
    }

    /// Split actions across shards.
    pub fn splits(&self) -> u64 {
        self.shards.iter().map(|s| s.splits).sum()
    }

    /// Merge actions across shards.
    pub fn merges(&self) -> u64 {
        self.shards.iter().map(|s| s.merges).sum()
    }

    /// Shards that ended the run failed over, ascending.
    pub fn failed_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(ix, s)| s.failed.then_some(ix))
            .collect()
    }

    /// Nearest-rank latency quantile over all completed requests.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let latencies = self.shards.iter().map(|s| &s.latency.samples);
        nearest_rank(latencies.flatten().copied().collect(), q)
    }

    /// Mean requests per engine dispatch (0 with no dispatches).
    pub fn mean_batch_occupancy(&self) -> f64 {
        let batches: u64 = self.shards.iter().map(|s| s.batches).sum();
        if batches == 0 {
            0.0
        } else {
            self.completed() as f64 / batches as f64
        }
    }

    /// Roll the shards up as ranks of a [`BudgetReport`] — the serving
    /// layer speaks the same overhead language as the SPMD simulators.
    pub fn budget_report(&self) -> Option<BudgetReport> {
        let lanes: Vec<RankBudget> = self.shards.iter().map(|s| s.lanes).collect();
        BudgetReport::from_ranks(&lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank_and_deterministic() {
        let mut h = Histogram::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert_eq!(Histogram::default().quantile(0.99), 0.0);
    }

    #[test]
    fn mean_batch_occupancy_is_completed_over_batches() {
        let mut shards = [ShardMetrics::default(), ShardMetrics::default()];
        for (shard, size) in [(0, 1), (1, 4), (0, 2)] {
            shards[shard].record_batch(0.0, 1.0, &vec![0.0; size], LaneSplit::default());
        }
        let snap = MetricsSnapshot {
            shards: shards.to_vec(),
        };
        assert_eq!(snap.mean_batch_occupancy(), 7.0 / 3.0);
        assert_eq!(MetricsSnapshot::default().mean_batch_occupancy(), 0.0);
    }

    #[test]
    fn lanes_follow_the_perfbudget_vocabulary() {
        let mut m = ShardMetrics::default();
        m.record_batch(
            1.0,
            2.0,
            &[0.5, 0.75],
            LaneSplit {
                dispatch_s: 0.1,
                plan_s: 0.2,
                transform_s: 0.6,
                deliver_s: 0.1,
            },
        );
        m.record_lost(0.25);
        m.finalize(4.0);
        assert_eq!(m.completed, 2);
        assert!((m.lanes.useful - 0.6).abs() < 1e-12);
        assert!((m.lanes.unique_redundancy - 0.2).abs() < 1e-12);
        assert!((m.lanes.duplication - 0.1).abs() < 1e-12);
        assert!((m.lanes.fault_recovery - 0.25).abs() < 1e-12);
        assert!((m.lanes.wait - 3.0).abs() < 1e-12);
        assert_eq!(m.lanes.completion, 4.0);
        // The shared vocabulary is what rolls shards into a report.
        let snap = MetricsSnapshot { shards: vec![m] };
        let report = snap.budget_report().expect("one shard");
        assert!(report.useful_pct() > 0.0);
    }
}
