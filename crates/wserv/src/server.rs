//! The live, threaded service driver.
//!
//! [`WaveletService`] owns one worker thread per shard. Submitters hash
//! the request's shape to a shard (walking the ring past failed shards
//! — see [`ShardMap::route`]), admit it under that shard's lock, and get
//! back a [`ResponseHandle`] that resolves to exactly one
//! [`ServeResult`]. Workers pop coalesced batches, execute them through
//! the shard's [`PlanCache`], and resolve the waiters.
//!
//! # Fault tolerance
//!
//! Shard state (queue, in-flight dispatch, cache, metrics, dispatch
//! counter) lives *outside* the worker thread, so a worker death loses
//! nothing:
//!
//! * every popped batch is stashed in the shard's in-flight slot before
//!   execution, so whatever kills the worker, the supervisor can
//!   re-queue the exact requests it held;
//! * execution runs under [`std::panic::catch_unwind`]: a panic while
//!   executing (e.g. an injected poison request) is quarantined
//!   in-thread — batchmates are re-queued to retry *solo*, and a
//!   request that panics even alone is terminally rejected
//!   [`Rejection::Requeued`] instead of taking the worker down;
//! * a worker's exit, clean or panicked, is an event its thread
//!   reports: the supervisor — which runs every worker inside its own
//!   [`std::thread::scope`] and otherwise sleeps — wakes to restart a
//!   dead one under [`SupervisorPolicy`]'s bounded exponential-backoff
//!   budget; past the budget the shard is failed over — its queued and
//!   in-flight work re-routes to live successors on the shard ring, and
//!   future submissions route around it (with no budget at all, at the
//!   first death);
//! * under reduced capacity (covering for a failed peer, or a queue
//!   past the high-water mark) a shard may answer sub-interactive work
//!   with a degraded, bounded-error response ([`DegradedPolicy`])
//!   instead of letting the backlog shed it.
//!
//! Fault *injection* is deterministic and seeded ([`ShardFaultPlan`]):
//! the same plan drives the simulator ([`crate::sim::run_sim`]) and
//! this live driver, at the same shard-local dispatch indices — and
//! both recover through the same crate-private `policy` functions.
//!
//! Shutdown is a graceful drain: [`WaveletService::shutdown`] flips the
//! drain flag (new submissions are rejected [`Rejection::Draining`]),
//! wakes every worker, and joins the supervisor, whose scope ends when
//! the last worker has. Workers keep popping until their queue is
//! empty, so every accepted request still resolves — the drain
//! invariant the property tests pin down. A worker death never
//! surfaces as a caller-visible panic: it is a restart or a failover,
//! and work with no live shard left resolves [`Rejection::ShardFailed`].

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use dwt::Pyramid;
use parking_lot::{Condvar, Mutex};

use crate::admission::AdmissionQueue;
use crate::batch::{Batch, BatchPolicy};
use crate::cache::PlanCache;
use crate::elastic::{BalanceAction, BalanceController, ElasticPolicy, ShardMap};
use crate::faults::{DegradedPolicy, ShardFaultPlan, SupervisorPolicy};
use crate::metrics::{LaneSplit, MetricsSnapshot, ShardMetrics};
use crate::policy::{self, Shards};
use crate::request::{DecomposeRequest, Entry, RejectKind, Rejection, ServeResult};
use crate::shard;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker shards (each owns a queue, a cache, and a thread).
    pub shards: usize,
    /// Admission-queue capacity per shard.
    pub queue_capacity: usize,
    /// Plan-cache capacity per shard (0 disables reuse).
    pub cache_capacity: usize,
    /// Batching policy shared by all shards.
    pub batch: BatchPolicy,
    /// Engine worker lanes per cached plan: every level of every plan,
    /// both directions, stripes across them
    /// ([`dwt::engine::DwtPlan::with_threads`]), except levels too short
    /// to give each lane a worthwhile stripe, which run on the shard's
    /// thread. The default, 1, spawns nothing.
    pub engine_threads: usize,
    /// Deterministic fault-injection schedule (empty = no faults).
    pub faults: ShardFaultPlan,
    /// Worker supervision: restart budget, backoff, requeue cost.
    pub supervisor: SupervisorPolicy,
    /// Degraded-mode serving under reduced capacity (`None` = always
    /// exact).
    pub degraded: Option<DegradedPolicy>,
    /// Elastic sharding: load-aware work stealing and split/merge
    /// (`None` = static FNV placement).
    pub elastic: Option<ElasticPolicy>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            queue_capacity: 64,
            cache_capacity: 16,
            batch: BatchPolicy::default(),
            engine_threads: 1,
            faults: ShardFaultPlan::none(),
            supervisor: SupervisorPolicy::default(),
            degraded: None,
            elastic: None,
        }
    }
}

impl ServiceConfig {
    /// Override the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Override the per-shard queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Override the per-shard plan-cache capacity (0 = cache off).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Override the batching cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.batch = BatchPolicy::new(max_batch);
        self
    }

    /// Inject a deterministic fault schedule.
    pub fn with_faults(mut self, faults: ShardFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the supervision policy.
    pub fn with_supervisor(mut self, supervisor: SupervisorPolicy) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Enable degraded-mode serving under reduced capacity.
    pub fn with_degraded(mut self, degraded: DegradedPolicy) -> Self {
        self.degraded = Some(degraded);
        self
    }

    /// Enable elastic sharding under the given policy.
    pub fn with_elastic(mut self, elastic: ElasticPolicy) -> Self {
        self.elastic = Some(elastic);
        self
    }

    /// Total shard slots: the live shard count plus the elastic
    /// reserve pool (0 extra without elastic).
    pub fn total_slots(&self) -> usize {
        self.shards.max(1) + self.elastic.map_or(0, |e| e.reserve)
    }

    /// Validate the configuration's fault and recovery knobs.
    pub fn validate(&self) -> Result<(), String> {
        self.faults.validate(self.total_slots())?;
        self.supervisor.validate()?;
        if let Some(d) = &self.degraded {
            d.validate()?;
        }
        if let Some(e) = &self.elastic {
            e.validate()?;
        }
        Ok(())
    }
}

/// A shutdown-time failure of the service itself (as opposed to a
/// per-request [`Rejection`]). A worker death is never one: the
/// supervisor restarts the worker or fails its shard over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The supervisor thread itself panicked (a service bug; its scope
    /// still joined every worker before the panic reached `shutdown`).
    SupervisorFailed,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::SupervisorFailed => write!(f, "supervisor thread panicked"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One-shot slot a request's terminal outcome is published into.
#[derive(Debug, Default)]
pub struct ResponseCell {
    slot: Mutex<Option<ServeResult>>,
    ready: Condvar,
    /// Storage the submitter offers the shard to decompose into
    /// ([`shard::execute`]); taken at execution, and freed with the cell
    /// if the request never executes.
    spare: Mutex<Option<Pyramid>>,
}

impl ResponseCell {
    fn resolve(&self, result: ServeResult) {
        let mut slot = self.slot.lock();
        debug_assert!(slot.is_none(), "a request resolves exactly once");
        *slot = Some(result);
        self.ready.notify_all();
    }
}

/// The submitter's side of an accepted request.
#[derive(Debug, Clone)]
pub struct ResponseHandle {
    cell: Arc<ResponseCell>,
}

impl ResponseHandle {
    /// Block until the request's terminal outcome arrives.
    pub fn wait(&self) -> ServeResult {
        let mut slot = self.cell.slot.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.cell.ready.wait(&mut slot);
        }
    }
}

type LiveQueue = AdmissionQueue<Arc<ResponseCell>>;

/// Lock-guarded half of one shard.
#[derive(Debug)]
struct Inner {
    queue: LiveQueue,
    draining: bool,
}

/// One shard's state, owned by the service rather than by the worker
/// thread so nothing is lost when the worker dies.
#[derive(Debug)]
struct ShardShared {
    inner: Mutex<Inner>,
    work: Condvar,
    /// The batch currently being executed. Stashed *before* execution
    /// starts; whatever kills the worker, the supervisor re-queues it.
    in_flight: Mutex<Option<Batch<Arc<ResponseCell>>>>,
    /// The shard's plan cache; survives worker restarts warm.
    cache: Mutex<PlanCache>,
    /// The shard's metrics; survive worker restarts (and carry the
    /// restart count the supervisor budgets against).
    metrics: Mutex<ShardMetrics>,
    /// Shard-local dispatch counter — the fault-injection coordinate.
    /// Monotonic across worker restarts (a restarted worker continues
    /// the sequence, which is what makes a permanent crash keep firing).
    dispatch: AtomicU64,
    /// Set when the restart budget is exhausted; submitters and the
    /// failover router treat the shard as dead.
    failed: AtomicBool,
}

impl ShardShared {
    fn new(config: &ServiceConfig) -> Self {
        ShardShared {
            inner: Mutex::new(Inner {
                queue: AdmissionQueue::new(config.queue_capacity),
                draining: false,
            }),
            work: Condvar::new(),
            in_flight: Mutex::new(None),
            cache: Mutex::new(PlanCache::new(config.cache_capacity, config.engine_threads)),
            metrics: Mutex::new(ShardMetrics::default()),
            dispatch: AtomicU64::new(0),
            failed: AtomicBool::new(false),
        }
    }
}

/// Everything the live driver's threads share — and, through
/// `impl Shards for &Live`, the live storage backend of the shared
/// [`policy`]: each storage operation takes exactly the shard lock it
/// names and releases it before returning, so policy code never holds
/// one lock while asking for another.
///
/// The [`ShardMap`] is *always* the routing authority — with elastic
/// disabled it is an unmodified map over the base shards, which routes
/// exactly like the static [`shard::route`] ring. The controller is
/// present only under [`ServiceConfig::elastic`]; submitters tick it
/// opportunistically (`try_lock`, so at most one submitter balances at
/// a time and nobody queues behind the control plane).
///
/// Lock order: `ctrl` → `map` → shard `inner` (innermost). Shard inner
/// locks nest (two at once) only inside [`Shards::queue_pair`], always
/// in ascending index order, and only while `ctrl` is held — so no
/// cycle is possible with the single-inner-lock paths.
#[derive(Debug)]
struct Live {
    config: ServiceConfig,
    start: Instant,
    shards: Vec<ShardShared>,
    map: Mutex<ShardMap>,
    ctrl: Option<Mutex<BalanceController>>,
    /// The decision log: `(seconds since service start, action)`, only
    /// actions that were applied. Read only by
    /// [`WaveletService::elastic_log`].
    log: Mutex<Vec<(f64, BalanceAction)>>,
}

impl Live {
    /// Seconds since service start (the live service clock).
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Shards for &Live {
    type Tag = Arc<ResponseCell>;

    fn len(&self) -> usize {
        self.shards.len()
    }

    fn alive(&self, s: usize) -> bool {
        !self.shards[s].failed.load(Ordering::SeqCst)
    }

    fn mark_failed(&mut self, s: usize) {
        self.shards[s].failed.store(true, Ordering::SeqCst);
    }

    fn queue<R>(&mut self, s: usize, f: impl FnOnce(&mut LiveQueue) -> R) -> R {
        f(&mut self.shards[s].inner.lock().queue)
    }

    fn queue_pair<R>(
        &mut self,
        a: usize,
        b: usize,
        f: impl FnOnce(&mut LiveQueue, &mut LiveQueue) -> R,
    ) -> R {
        let mut lo = self.shards[a.min(b)].inner.lock();
        let mut hi = self.shards[a.max(b)].inner.lock();
        if a < b {
            f(&mut lo.queue, &mut hi.queue)
        } else {
            f(&mut hi.queue, &mut lo.queue)
        }
    }

    fn metrics<R>(&mut self, s: usize, f: impl FnOnce(&mut ShardMetrics) -> R) -> R {
        f(&mut self.shards[s].metrics.lock())
    }

    fn resolve(&mut self, tag: Arc<ResponseCell>, result: ServeResult) {
        tag.resolve(result);
    }

    fn wake(&mut self, s: usize, _now: f64) {
        self.shards[s].work.notify_one();
    }
}

/// The running service.
#[derive(Debug)]
pub struct WaveletService {
    live: Arc<Live>,
    /// The one thread the service joins: its scope owns every worker.
    supervisor: thread::JoinHandle<()>,
    next_id: Mutex<u64>,
}

impl WaveletService {
    /// Start the service: spawns the supervisor thread, which spawns
    /// one worker thread per shard slot.
    ///
    /// # Panics
    ///
    /// On a malformed configuration (fault plan naming absent shards,
    /// negative costs, …) — see [`ServiceConfig::validate`].
    pub fn start(config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            shards: config.shards.max(1),
            ..config
        };
        if let Err(reason) = config.validate() {
            panic!("invalid ServiceConfig: {reason}");
        }
        let total = config.total_slots();
        let live = Arc::new(Live {
            start: Instant::now(),
            shards: (0..total).map(|_| ShardShared::new(&config)).collect(),
            map: Mutex::new(ShardMap::new(config.shards, total - config.shards)),
            ctrl: config
                .elastic
                .map(|policy| Mutex::new(BalanceController::new(policy))),
            log: Mutex::new(Vec::new()),
            config,
        });
        let supervisor = {
            let live = Arc::clone(&live);
            thread::spawn(move || supervisor_loop(&live))
        };
        WaveletService {
            live,
            supervisor,
            next_id: Mutex::new(0),
        }
    }

    /// Seconds since service start (the live service clock).
    pub fn now(&self) -> f64 {
        self.live.now()
    }

    /// Submit one request. `Err` is an at-the-door rejection; `Ok` is a
    /// handle that resolves to exactly one terminal outcome. Requests
    /// whose home shard has failed over route to its live successor on
    /// the shard ring.
    pub fn submit(&self, req: DecomposeRequest) -> Result<ResponseHandle, Rejection> {
        self.submit_into(req, None)
    }

    /// [`WaveletService::submit`], offering `spare` as the storage the
    /// shard decomposes into: used if the plan's pyramid check accepts
    /// its geometry, dropped otherwise. The remote layer passes the
    /// pyramid its resolution book last released.
    pub(crate) fn submit_into(
        &self,
        req: DecomposeRequest,
        spare: Option<Pyramid>,
    ) -> Result<ResponseHandle, Rejection> {
        let mut live = &*self.live;
        let shape = req.shape();
        let alive = policy::alive(&live);
        let (home, routed) = {
            let map = live.map.lock();
            (map.home(&shape), map.route(&shape, &alive))
        };
        // Refusals the queue never sees are accounted to the shape's
        // home shard, so the books still balance per shard.
        if let Err(rejection) = req.validate() {
            return Err(policy::refusal(&mut live, home, rejection));
        }
        let Some(shard_ix) = routed else {
            // Every shard is down.
            return Err(policy::shard_failed(&mut live, home));
        };
        let cell = Arc::new(ResponseCell {
            spare: Mutex::new(spare),
            ..ResponseCell::default()
        });
        let id = {
            let mut next = self.next_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        let now = self.now();
        let incoming = req.priority;
        let entry = Entry {
            id,
            arrival: now,
            req,
            attempts: 0,
            tag: Arc::clone(&cell),
        };
        let admitted = {
            let mut inner = live.shards[shard_ix].inner.lock();
            if inner.draining {
                inner.queue.counters.reject(RejectKind::Draining);
                return Err(Rejection::Draining);
            }
            inner.queue.admit(now, entry)
        };
        let result = match policy::settle(&mut live, shard_ix, incoming, admitted, now) {
            None => Ok(ResponseHandle { cell }),
            Some((_, rejection)) => Err(rejection),
        };
        // The control plane runs on the submit path (no clock thread):
        // each admission gives the balancer one chance to act.
        self.elastic_tick(now);
        result
    }

    /// The elastic controller's decision log so far: `(seconds since
    /// service start, action)` in decision order — only actions that
    /// were applied. Empty without [`ServiceConfig::elastic`].
    pub fn elastic_log(&self) -> Vec<(f64, BalanceAction)> {
        self.live.log.lock().clone()
    }

    /// Current routing-table version (bumped by every split, merge, and
    /// override mutation; 0 while the map is pristine).
    pub fn shard_map_epoch(&self) -> u64 {
        self.live.map.lock().epoch()
    }

    /// One opportunistic controller step at `now` seconds. `try_lock`
    /// keeps the control plane off the submit hot path: at most one
    /// submitter balances at a time, the rest skip — and the hysteresis
    /// check comes before the map lock so a skipped tick touches
    /// neither the map nor any queue.
    fn elastic_tick(&self, now: f64) {
        let mut live = &*self.live;
        let Some(mut ctrl) = live.ctrl.as_ref().and_then(|c| c.try_lock()) else {
            return;
        };
        if !ctrl.ready(now) {
            return;
        }
        let mut map = live.map.lock();
        if let Some(action) = policy::balance(&mut live, &mut map, &mut ctrl, now) {
            live.log.lock().push((now, action));
        }
    }

    /// Graceful drain: reject new work, let workers empty their queues,
    /// join the supervisor (whose scope joins them), and return the
    /// merged metrics.
    ///
    /// Worker deaths were restarts or failovers by the time this
    /// returns; only a panic of the supervisor itself is an `Err`, and
    /// even then every accepted request has terminated.
    pub fn shutdown(self) -> Result<MetricsSnapshot, ServiceError> {
        let mut live = &*self.live;
        for state in &live.shards {
            state.inner.lock().draining = true;
            state.work.notify_all();
        }
        let joined = self.supervisor.join();
        // Backstop sweep: anything still queued or in flight (re-routed
        // into a shard whose worker had already drained, or held by a
        // worker the supervisor panicked before handling) resolves
        // ShardFailed so every accepted request terminates.
        for (shard, state) in live.shards.iter().enumerate() {
            let stranded = state.in_flight.lock().take();
            let queued = state.inner.lock().queue.drain();
            for entry in stranded.into_iter().flat_map(|b| b.entries).chain(queued) {
                let rejection = policy::shard_failed(&mut live, shard);
                entry.tag.resolve(Err(rejection));
            }
        }
        // Close every shard's books exactly once, by moving them out:
        // every thread that wrote them has been joined, and the
        // snapshot is their only reader. Reserve slots that were never
        // activated served nothing — `close` omits them so their
        // zero-completion lanes don't skew the imbalance rollup
        // (activation always picks the lowest reserve slot, so the
        // omissions are a stable suffix).
        let now = live.now();
        let shards = live.shards.iter().enumerate();
        let shards = shards
            .filter_map(|(ix, state)| {
                let mut m = std::mem::take(&mut *state.metrics.lock());
                m.queue = std::mem::take(&mut state.inner.lock().queue.counters);
                m.absorb_cache(&state.cache.lock());
                m.close(now, ix >= live.config.shards).map(|_| m)
            })
            .collect();
        match joined {
            Ok(()) => Ok(MetricsSnapshot { shards }),
            Err(_) => Err(ServiceError::SupervisorFailed),
        }
    }
}

fn worker_loop(live: &Live, shard_ix: usize) {
    let mut store = live;
    let cfg = &live.config;
    let me = &live.shards[shard_ix];
    loop {
        let popped = {
            let mut inner = me.inner.lock();
            loop {
                if !inner.queue.is_empty() {
                    // Dispatch overhead starts here, with work in hand:
                    // the idle wait before it is `close`'s
                    // ImbalanceWait, not DuplicationRedundancy too.
                    let wake = Instant::now();
                    let depth_frac = inner.queue.len() as f64 / cfg.queue_capacity.max(1) as f64;
                    let pop = inner.queue.pop_batch(live.now(), &cfg.batch);
                    break Some((wake, pop, depth_frac));
                }
                if inner.draining {
                    break None;
                }
                me.work.wait(&mut inner);
            }
        };
        let Some((wake, pop, depth_frac)) = popped else {
            // Queue empty and draining: done. The books are closed
            // centrally at shutdown (metrics are shared state).
            return;
        };
        let dispatch_start = live.now();
        policy::expire(&mut store, shard_ix, pop.expired, dispatch_start);
        let Some(batch) = pop.batch else { continue };

        // Stash the dispatch before touching it: from here on, a worker
        // death strands nothing — the supervisor finds the batch in the
        // in-flight slot. The slot lock is held across execution (only
        // the supervisor ever contends, and only after a death).
        let mut slot = me.in_flight.lock();
        *slot = Some(batch);
        let k = me.dispatch.fetch_add(1, Ordering::SeqCst);
        if cfg.faults.worker_dies(shard_ix, k) {
            // Injected worker death: unwind out of the thread. The
            // slot guard unlocks on unwind; the batch stays stashed.
            panic!("injected worker death: shard {shard_ix}, dispatch {k}");
        }
        let batch_ref = slot.as_ref().expect("just stashed");
        let poisoned = batch_ref
            .entries
            .iter()
            .find(|e| cfg.faults.poisoned(e.id))
            .map(|e| e.id);
        let t0 = Instant::now();
        let executed = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(id) = poisoned {
                panic!("injected poison request {id}");
            }
            let mut cache = me.cache.lock();
            shard::execute(&mut cache, batch_ref, |e| e.tag.spare.lock().take())
        }));
        let exec_s = t0.elapsed().as_secs_f64();
        let stall = cfg.faults.stall_factor(shard_ix, k);
        if stall > 1.0 {
            // Injected slowdown: this dispatch runs `stall`× slower.
            thread::sleep(Duration::from_secs_f64(exec_s * (stall - 1.0)));
        }
        let batch = slot.take().expect("still stashed");
        drop(slot);
        let t1 = Instant::now();
        match executed {
            Err(_) => {
                // Execution panicked and was caught in-thread: the
                // worker survives, the batch goes through the
                // poisoned-batch protocol.
                let now = live.now();
                policy::quarantine(&mut store, shard_ix, batch, now);
            }
            Ok(Ok(done)) => {
                let batch_size = batch.len();
                let shape_key = shard::shape_key(&batch.shape);
                let plan_s = done.plan_s;
                let end = policy::respond(
                    &mut store,
                    shard_ix,
                    batch,
                    done,
                    cfg.degraded,
                    depth_frac,
                    dispatch_start,
                    |_| live.now(),
                );
                let deliver_s = t1.elapsed().as_secs_f64();
                let dispatch_s = (t0.duration_since(wake)).as_secs_f64();
                let split = LaneSplit {
                    dispatch_s,
                    plan_s,
                    transform_s: exec_s - plan_s,
                    deliver_s,
                };
                let booked_end = end + deliver_s;
                me.metrics
                    .lock()
                    .record_batch(dispatch_start, booked_end, batch_size, split);
                // Feed the cost book with the measured per-request
                // service time. `try_lock` only: a held controller is
                // mid-decision, and one skipped sample is cheaper than
                // a worker queuing behind the control plane.
                if let Some(mut ctrl) = live.ctrl.as_ref().and_then(|c| c.try_lock()) {
                    let per_req = (booked_end - dispatch_start).max(0.0) / batch_size as f64;
                    ctrl.observe(shape_key, per_req);
                }
            }
            Ok(Err(detail)) => {
                // Engine refused the batch (validation raced a bad
                // request past admission): fail each entry, keep going.
                policy::refuse(&mut store, batch, &detail);
            }
        }
    }
}

/// The supervisor: runs every worker in its thread scope, sleeps until
/// one exits, and hands a panicked one to [`policy::worker_died`] —
/// which re-queues whatever it held and grants a restart under the
/// backoff budget, or past the budget fails the shard over to its live
/// successors on the shard ring.
fn supervisor_loop(live: &Live) {
    let sup = live.config.supervisor;
    let (exits, reports) = mpsc::channel();
    // A worker thread's body. The report is sent from outside
    // `worker_loop`'s frame, so by the time the supervisor reads it a
    // panic has finished unwinding and released the in-flight slot's
    // guard with the batch still stashed.
    let worker = |shard_ix: usize| {
        let exits = exits.clone();
        move || {
            let run = AssertUnwindSafe(|| worker_loop(live, shard_ix));
            let panicked = panic::catch_unwind(run).is_err();
            let report = exits.send((shard_ix, panicked));
            report.expect("the receiver outlives the scope");
        }
    };
    thread::scope(|scope| {
        // Reserve-slot workers spawn with the rest: they sleep on their
        // empty queues until a split routes work their way, and they
        // drain like any other shard at shutdown.
        let mut running = live.shards.len();
        for shard_ix in 0..running {
            scope.spawn(worker(shard_ix));
        }
        while running > 0 {
            // No timeout, and finite once `shutdown` runs. Every worker
            // counted in `running` sends one report, whether its loop
            // returned or unwound; the channel is unbounded and this
            // thread holds the receiver, so none is refused or lost.
            // Until `shutdown` there is nothing to do before a worker
            // dies; once it has set the drain flag and notified, a
            // worker — first or restarted — reads the flag under the
            // queue lock before it can wait on the condvar, so each
            // returns when its queue is empty.
            let (s, panicked) = reports.recv().expect("this thread holds a sender");
            running -= 1;
            if !panicked {
                continue;
            }
            let held = live.shards[s].in_flight.lock().take();
            let restart = {
                let map = live.map.lock();
                policy::worker_died(&mut &*live, &map, s, held, &sup, live.now())
            };
            if let Some(backoff) = restart {
                thread::sleep(Duration::from_secs_f64(backoff));
                scope.spawn(worker(s));
                running += 1;
            }
        }
    })
}
