//! Same-shape request coalescing.
//!
//! A batch is a set of queued requests with one [`PlanShape`], executed
//! as a single engine dispatch: one cache lookup, one worker wakeup,
//! one plan drive over N images. Batching is *adaptive*: the batcher
//! never waits for more arrivals — it takes whatever same-shape work is
//! already queued (up to [`BatchPolicy::max_batch`]) behind the
//! highest-priority head-of-line request. Under light load batches
//! degrade to size 1 and add no latency; under heavy load the queue is
//! deep and occupancy climbs toward the cap, amortizing per-dispatch
//! overhead exactly when throughput matters.

use dwt::engine::PlanShape;

use crate::request::Entry;

/// Batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Most requests one engine dispatch may carry (≥ 1).
    pub max_batch: usize,
}

impl BatchPolicy {
    /// A policy dispatching at most `max_batch` requests at once.
    pub fn new(max_batch: usize) -> Self {
        BatchPolicy {
            max_batch: max_batch.max(1),
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::new(8)
    }
}

/// One coalesced engine dispatch.
#[derive(Debug)]
pub struct Batch<T> {
    /// The shared plan-cache key of every entry.
    pub shape: PlanShape,
    /// The requests, in dequeue order (leader first).
    pub entries: Vec<Entry<T>>,
}

impl<T> Batch<T> {
    /// Requests in the dispatch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch is empty (never true for batches the queue
    /// hands out, but keeps clippy's `len` contract honest).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
