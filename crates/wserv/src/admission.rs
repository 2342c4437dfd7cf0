//! Bounded admission queue with priority shedding and deadline
//! fast-fail.
//!
//! The queue is a pure, clock-free state machine: every mutation takes
//! `now` as a parameter, so the same type backs the threaded server
//! (wall clock) and the discrete-event simulator (virtual clock) with
//! identical policy behavior.
//!
//! Overload policy, in order:
//! 1. a request past its deadline is fast-failed at the door;
//! 2. a request arriving at a full queue sheds the *youngest entry of
//!    the lowest queued class* — but only if that class is **strictly
//!    below** the arrival's (equal-priority work is never displaced,
//!    so shedding can only trade up);
//! 3. otherwise the arrival itself is rejected `QueueFull`.
//!
//! Dequeue is strict-priority, FIFO within a class. Expired entries are
//! swept (and reported, never silently dropped) at every dequeue.

use crate::batch::{Batch, BatchPolicy};
use crate::metrics::QueueCounters;
use crate::request::{Entry, Priority, RejectKind, Rejection};
use std::collections::VecDeque;

/// Outcome of offering one entry to the queue.
#[derive(Debug)]
pub enum Admit<T> {
    /// Entry queued.
    Accepted,
    /// Entry queued after evicting a strictly-lower-priority victim the
    /// caller must now fail with [`Rejection::Shed`].
    AcceptedShedding(Entry<T>),
    /// Entry not queued; it is handed back with the typed cause.
    Rejected(Entry<T>, Rejection),
}

/// Result of one dequeue attempt.
#[derive(Debug)]
pub struct Pop<T> {
    /// The coalesced dispatch, if any work was ready.
    pub batch: Option<Batch<T>>,
    /// Entries found past their deadline during the sweep; the caller
    /// must fail each with [`Rejection::DeadlineExpired`].
    pub expired: Vec<Entry<T>>,
}

/// Bounded, priority-bucketed admission queue.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    capacity: usize,
    /// One FIFO per [`Priority`], indexed by the class discriminant.
    buckets: [VecDeque<Entry<T>>; 3],
    /// Self-reported counters (accepted, rejected by kind).
    pub counters: QueueCounters,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` entries (≥ 1).
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            buckets: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            counters: QueueCounters::default(),
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(VecDeque::len).sum()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(VecDeque::is_empty)
    }

    /// Offer one entry at service-clock time `now`.
    pub fn admit(&mut self, now: f64, entry: Entry<T>) -> Admit<T> {
        if entry.req.expired(now) {
            self.counters.reject(RejectKind::DeadlineExpired);
            let deadline = entry.req.deadline.expect("expired implies a deadline");
            return Admit::Rejected(entry, Rejection::DeadlineExpired { deadline, now });
        }
        if self.len() == self.capacity {
            match self.shed_victim(entry.req.priority) {
                Some(victim) => {
                    self.counters.reject(RejectKind::Shed);
                    self.push(entry);
                    return Admit::AcceptedShedding(victim);
                }
                None => {
                    self.counters.reject(RejectKind::QueueFull);
                    let depth = self.len();
                    return Admit::Rejected(entry, Rejection::QueueFull { depth });
                }
            }
        }
        self.push(entry);
        Admit::Accepted
    }

    /// Dequeue one coalesced batch at service-clock time `now`: sweep
    /// expired entries, take the highest-priority head of line, then
    /// greedily coalesce queued same-shape work (priority order, FIFO
    /// within a class) up to the policy's cap.
    pub fn pop_batch(&mut self, now: f64, policy: &BatchPolicy) -> Pop<T> {
        let mut expired = Vec::new();
        for bucket in self.buckets.iter_mut() {
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].req.expired(now) {
                    expired.push(bucket.remove(i).expect("index in range"));
                } else {
                    i += 1;
                }
            }
        }
        for _ in &expired {
            self.counters.reject(RejectKind::DeadlineExpired);
        }

        let leader = self
            .buckets
            .iter_mut()
            .rev() // Interactive first
            .find_map(VecDeque::pop_front);
        let Some(leader) = leader else {
            return Pop {
                batch: None,
                expired,
            };
        };
        let shape = leader.req.shape();
        let solo = leader.solo();
        let mut entries = vec![leader];
        // A solo (retry-after-panic) leader dispatches alone, and solo
        // entries are never picked as mates: the poisoned-batch
        // protocol needs each suspect isolated to one dispatch.
        if !solo {
            for bucket in self.buckets.iter_mut().rev() {
                let mut i = 0;
                while i < bucket.len() && entries.len() < policy.max_batch {
                    if bucket[i].req.shape() == shape && !bucket[i].solo() {
                        entries.push(bucket.remove(i).expect("index in range"));
                    } else {
                        i += 1;
                    }
                }
            }
        }
        Pop {
            batch: Some(Batch { shape, entries }),
            expired,
        }
    }

    /// Remove every queued entry (used by tests and by fail-stop
    /// teardown paths; graceful drain instead keeps popping batches).
    pub fn drain(&mut self) -> Vec<Entry<T>> {
        let mut all = Vec::new();
        for bucket in self.buckets.iter_mut().rev() {
            all.extend(bucket.drain(..));
        }
        all
    }

    /// Per-shape census of the queue for the elastic controller:
    /// `(shape, queued, movable)` where `movable` excludes solo
    /// (poison-suspect) entries, which never migrate. Order is
    /// deterministic — first appearance scanning Interactive → Batch,
    /// FIFO within a class — so controller decisions built on the
    /// census replay bit-identically.
    pub fn shape_census(&self) -> Vec<(dwt::engine::PlanShape, usize, usize)> {
        let mut census: Vec<(dwt::engine::PlanShape, usize, usize)> = Vec::new();
        for bucket in self.buckets.iter().rev() {
            for entry in bucket {
                let shape = entry.req.shape();
                let movable = usize::from(!entry.solo());
                match census.iter_mut().find(|(s, ..)| *s == shape) {
                    Some((_, count, mv)) => {
                        *count += 1;
                        *mv += movable;
                    }
                    None => census.push((shape, 1, movable)),
                }
            }
        }
        census
    }

    /// Remove up to `limit` non-solo entries whose shape hashes to the
    /// routing key (scanning Interactive → Batch, FIFO within a class)
    /// for migration to another shard. The removed entries keep their
    /// priority class and ids; the exactly-once books are untouched
    /// because the entries stay queued — just elsewhere.
    pub fn take_shape(&mut self, key: u64, limit: usize) -> Vec<Entry<T>> {
        let mut taken = Vec::new();
        for bucket in self.buckets.iter_mut().rev() {
            let mut i = 0;
            while i < bucket.len() && taken.len() < limit {
                if crate::shard::shape_key(&bucket[i].req.shape()) == key && !bucket[i].solo() {
                    taken.push(bucket.remove(i).expect("index in range"));
                } else {
                    i += 1;
                }
            }
        }
        taken
    }

    /// Accept an entry migrated from another shard's queue. Unlike
    /// [`AdmissionQueue::admit`] this is counter-neutral: the entry was
    /// already door-counted (`accepted`) on its original shard. The
    /// caller (the elastic driver) bounds migrations by this queue's
    /// free space, so capacity is respected by construction; the debug
    /// assert keeps that contract honest.
    pub fn accept_migrated(&mut self, entry: Entry<T>) {
        debug_assert!(self.len() < self.capacity, "migration overfilled the queue");
        self.buckets[entry.req.priority as usize].push_back(entry);
    }

    /// Admission slots left before the queue is full.
    pub fn free(&self) -> usize {
        self.capacity - self.len()
    }

    fn push(&mut self, entry: Entry<T>) {
        self.counters.accepted += 1;
        self.buckets[entry.req.priority as usize].push_back(entry);
    }

    /// The youngest entry of the lowest queued class strictly below
    /// `incoming`, if any.
    fn shed_victim(&mut self, incoming: Priority) -> Option<Entry<T>> {
        for class in Priority::ALL {
            if class >= incoming {
                break;
            }
            if let Some(victim) = self.buckets[class as usize].pop_back() {
                return Some(victim);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::DecomposeRequest;
    use dwt::{FilterBank, Matrix};

    fn req(priority: Priority) -> DecomposeRequest {
        DecomposeRequest::new(Matrix::zeros(8, 8), FilterBank::haar(), 1).with_priority(priority)
    }

    fn entry(id: u64, priority: Priority) -> Entry<u64> {
        Entry {
            id,
            arrival: id as f64,
            req: req(priority),
            attempts: 0,
            tag: id,
        }
    }

    #[test]
    fn sheds_only_strictly_lower_priority() {
        let mut q: AdmissionQueue<u64> = AdmissionQueue::new(2);
        assert!(matches!(
            q.admit(0.0, entry(0, Priority::Batch)),
            Admit::Accepted
        ));
        assert!(matches!(
            q.admit(0.0, entry(1, Priority::Standard)),
            Admit::Accepted
        ));
        // Equal class does not displace equal class.
        match q.admit(0.0, entry(2, Priority::Batch)) {
            Admit::Rejected(e, Rejection::QueueFull { depth: 2 }) => assert_eq!(e.id, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Higher class sheds the lowest class present.
        match q.admit(0.0, entry(3, Priority::Interactive)) {
            Admit::AcceptedShedding(victim) => {
                assert_eq!(victim.id, 0);
                assert!(victim.req.priority < Priority::Interactive);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Queue now holds only Standard + Interactive: another
        // Interactive arrival sheds the Standard entry.
        match q.admit(0.0, entry(4, Priority::Interactive)) {
            Admit::AcceptedShedding(victim) => assert_eq!(victim.id, 1),
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(q.counters.rejected[RejectKind::Shed as usize], 2);
        assert_eq!(q.counters.rejected[RejectKind::QueueFull as usize], 1);
    }

    #[test]
    fn deadline_fast_fail_and_dequeue_sweep() {
        let mut q: AdmissionQueue<u64> = AdmissionQueue::new(8);
        let mut stale = entry(0, Priority::Standard);
        stale.req = stale.req.clone().with_deadline(1.0);
        assert!(matches!(q.admit(0.0, stale), Admit::Accepted));
        let mut dead = entry(1, Priority::Standard);
        dead.req = dead.req.clone().with_deadline(0.5);
        // Already expired at the door.
        assert!(matches!(
            q.admit(2.0, dead),
            Admit::Rejected(_, Rejection::DeadlineExpired { .. })
        ));
        // The queued entry expired while waiting: swept at dequeue.
        let pop = q.pop_batch(2.0, &BatchPolicy::new(4));
        assert!(pop.batch.is_none());
        assert_eq!(pop.expired.len(), 1);
        assert_eq!(pop.expired[0].id, 0);
    }

    #[test]
    fn solo_entries_neither_lead_batches_nor_join_them() {
        let mut q: AdmissionQueue<u64> = AdmissionQueue::new(8);
        let mut suspect = entry(0, Priority::Interactive);
        suspect.attempts = 1;
        assert!(matches!(q.admit(0.0, suspect), Admit::Accepted));
        for id in 1..4 {
            assert!(matches!(
                q.admit(0.0, entry(id, Priority::Standard)),
                Admit::Accepted
            ));
        }
        // The suspect is head of line: it dispatches alone.
        let pop = q.pop_batch(1.0, &BatchPolicy::new(8));
        let batch = pop.batch.expect("work queued");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.entries[0].id, 0);
        // A clean leader never picks up a queued suspect as a mate.
        let mut late_suspect = entry(9, Priority::Batch);
        late_suspect.attempts = 2;
        assert!(matches!(q.admit(1.0, late_suspect), Admit::Accepted));
        let pop = q.pop_batch(2.0, &BatchPolicy::new(8));
        let batch = pop.batch.expect("work queued");
        assert_eq!(batch.len(), 3);
        assert!(batch.entries.iter().all(|e| e.id != 9));
    }

    #[test]
    fn pop_coalesces_same_shape_by_priority_then_fifo() {
        let mut q: AdmissionQueue<u64> = AdmissionQueue::new(8);
        for (id, p) in [
            (0, Priority::Batch),
            (1, Priority::Standard),
            (2, Priority::Interactive),
            (3, Priority::Standard),
        ] {
            assert!(matches!(q.admit(0.0, entry(id, p)), Admit::Accepted));
        }
        let pop = q.pop_batch(1.0, &BatchPolicy::new(3));
        let batch = pop.batch.expect("work queued");
        let ids: Vec<u64> = batch.entries.iter().map(|e| e.id).collect();
        // Leader is the Interactive head; mates follow in priority
        // order then FIFO; the cap leaves the Batch entry queued.
        assert_eq!(ids, vec![2, 1, 3]);
        assert_eq!(q.len(), 1);
    }
}
