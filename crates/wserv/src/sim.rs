//! Deterministic discrete-event driver.
//!
//! The simulator reuses the *same* policy state machines as the live
//! server — [`AdmissionQueue`], [`crate::BatchPolicy`] coalescing,
//! [`PlanCache`] — but advances a virtual clock and prices each stage
//! with an analytic [`CostModel`] instead of reading wall time. Two
//! consequences:
//!
//! 1. **Byte-reproducible benchmarks.** Every latency number is a pure
//!    function of (config, cost model, arrival stream); running the
//!    bench twice produces identical JSON.
//! 2. **Grounded outputs.** Transforms still execute for real through
//!    the shared [`crate::shard::execute`] path, so the simulator's
//!    responses carry actual pyramids and the bit-identity invariants
//!    (cache on/off, batch 1/N) are checkable against the engine.
//!
//! A failed shard changes where *other* shards' arrivals route, and an
//! elastic steal moves work between queues, so [`run_sim`] is one
//! joint event loop over all shards. It injects the configuration's
//! seeded [`crate::faults::ShardFaultPlan`] and runs the recovery and
//! elastic machinery through the same `policy.rs` functions the
//! live driver calls — supervisor restarts with backoff, poisoned-batch
//! quarantine, failover re-routing, degraded-mode responses,
//! steal/split/merge — over `SimStore`, the simulator's storage
//! backend. [`run_closed_loop`] drives the same simulated service with
//! the wire in the loop.

use crate::admission::AdmissionQueue;
use crate::batch::Batch;
use crate::cache::PlanCache;
use crate::elastic::{BalanceAction, BalanceController, ShardMap};
use crate::faults::{WireDir, WireFault, WireFaultPlan};
use crate::metrics::{Histogram, LaneSplit, MetricsSnapshot, ShardMetrics};
use crate::policy::{self, Shards};
use crate::progressive::{PlaneSequence, Reassembler, Step};
use crate::remote::RetryPolicy;
use crate::request::{DecomposeRequest, Entry, Rejection, ServeResult};
use crate::server::ServiceConfig;
use crate::shard;
use crate::transport::TransportError;
use crate::wire;
use dwt::engine::PlanShape;
use dwt_mimd::CheckpointCodec;

/// Analytic stage costs. The defaults are hand-set, not fitted: they
/// were eyeballed from the engine numbers in `BENCH_dwt.json`, and no
/// error against the live service is reported for them yet — fitting
/// them from a wbench traced pass is ROADMAP item 4(b). Until then read
/// the ratios, not the absolute scale: plan construction and
/// per-dispatch overhead are each worth tens of microseconds, i.e.
/// comparable to a small transform — exactly the regime where caching
/// and batching pay.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Transform seconds per coefficient-tap (folds in the level-sum
    /// geometric factor).
    pub transform_s_per_coeff_tap: f64,
    /// Fixed plan + workspace construction cost (cache miss).
    pub plan_base_s: f64,
    /// Size-dependent plan construction cost (cache miss).
    pub plan_s_per_coeff: f64,
    /// Fixed per-dispatch overhead (pop, coalesce, wakeup) — the cost
    /// batching amortizes.
    pub dispatch_s: f64,
    /// Response delivery cost per request.
    pub deliver_s_per_request: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            transform_s_per_coeff_tap: 0.45e-9,
            plan_base_s: 20e-6,
            plan_s_per_coeff: 1e-9,
            dispatch_s: 25e-6,
            deliver_s_per_request: 2e-6,
        }
    }
}

impl CostModel {
    /// Transform seconds for one request of `shape`.
    pub fn transform_s(&self, shape: &PlanShape) -> f64 {
        self.transform_s_per_coeff_tap * shape.coeffs() as f64 * shape.filter_len() as f64
    }

    /// Plan construction seconds for `shape`.
    pub fn plan_s(&self, shape: &PlanShape) -> f64 {
        self.plan_base_s + self.plan_s_per_coeff * shape.coeffs() as f64
    }
}

/// Everything one simulated run produces.
#[derive(Debug)]
pub struct SimReport {
    /// One terminal outcome per submitted request, in stream order.
    pub outcomes: Vec<ServeResult>,
    /// Per-shard metrics, same schema as the live server's snapshot.
    /// With elastic sharding, reserve slots that were activated follow
    /// the base shards (never-activated slots have no books to close
    /// and are omitted).
    pub metrics: MetricsSnapshot,
    /// Virtual time at which the last shard went idle.
    pub makespan_s: f64,
    /// The elastic controller's decision log, `(virtual time, action)`
    /// in decision order — empty without [`ServiceConfig::elastic`].
    /// Replaying the same `(config, stream)` reproduces this exactly.
    pub actions: Vec<(f64, BalanceAction)>,
}

impl SimReport {
    /// Completed requests per virtual second.
    pub fn throughput(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.metrics.completed() as f64 / self.makespan_s
        } else {
            0.0
        }
    }
}

/// Run the service over a timestamped arrival stream (non-decreasing
/// times, virtual seconds) as one joint multi-shard discrete-event
/// loop, and return every outcome plus the metrics.
///
/// The configuration's [`crate::faults::ShardFaultPlan`] and elastic
/// policy are honoured through the same `policy` functions the live
/// driver calls; what the simulator adds is the price of each event in
/// virtual time:
///
/// * a worker death scheduled at a dispatch index fires at that shard's
///   k-th dispatch; a restart costs the exponential backoff, a shard
///   past its budget fails over and never dispatches again;
/// * a poisoned batch costs one dispatch overhead before its
///   quarantine; stall windows multiply a dispatch's compute time;
/// * a degraded response's delivery is priced by its surviving
///   coefficients;
/// * the balance controller runs after every event at that event's
///   virtual time.
///
/// Arrivals up to a dispatch moment land first, at their own
/// timestamps — the live submitters' ordering. Everything is a pure
/// function of `(config, cost, stream)` — replays are byte-identical.
///
/// # Panics
///
/// On a malformed configuration — see [`ServiceConfig::validate`].
pub fn run_sim(
    config: &ServiceConfig,
    cost: &CostModel,
    stream: Vec<(f64, DecomposeRequest)>,
) -> SimReport {
    assert!(
        stream.windows(2).all(|w| w[0].0 <= w[1].0),
        "arrival stream must be sorted by time"
    );
    let mut svc = SimService::new(config, cost, stream.len());
    let mut arrivals = stream.into_iter().enumerate().peekable();
    loop {
        let dispatch = svc.next_dispatch();
        match arrivals.peek() {
            Some(&(_, (ta, _))) if dispatch.is_none_or(|(td, _)| ta <= td) => {
                let (ix, (ta, req)) = arrivals.next().expect("just peeked");
                svc.arrive(ta, ix, req);
            }
            _ => match dispatch {
                Some((_, s)) => svc.dispatch(s),
                None => break,
            },
        }
    }
    let (metrics, makespan_s) = svc.finish();
    let resolved = |o: Option<_>| o.expect("every request terminates in exactly one outcome");
    SimReport {
        outcomes: svc.store.outcomes.into_iter().map(resolved).collect(),
        metrics,
        makespan_s,
        actions: svc.rt.map(|rt| rt.actions).unwrap_or_default(),
    }
}

/// One simulated shard.
struct SimShard {
    queue: AdmissionQueue<usize>,
    cache: PlanCache,
    metrics: ShardMetrics,
    /// Virtual time at which the shard's worker is next free.
    t_free: f64,
    /// Shard-local dispatch counter — the fault-injection coordinate,
    /// monotonic across simulated restarts (exactly like the live
    /// driver's shared counter).
    dispatch: u64,
}

/// The simulator's storage backend of the shared [`policy`]: plain
/// vectors, a request's tag is its outcome slot.
pub(crate) struct SimStore {
    shards: Vec<SimShard>,
    pub(crate) outcomes: Vec<Option<ServeResult>>,
}

impl SimStore {
    pub(crate) fn new(config: &ServiceConfig, requests: usize) -> Self {
        let shard = || SimShard {
            queue: AdmissionQueue::new(config.queue_capacity),
            cache: PlanCache::new(config.cache_capacity, config.engine_threads),
            metrics: ShardMetrics::default(),
            t_free: 0.0,
            dispatch: 0,
        };
        SimStore {
            shards: (0..config.total_slots()).map(|_| shard()).collect(),
            outcomes: (0..requests).map(|_| None).collect(),
        }
    }
}

impl Shards for SimStore {
    type Tag = usize;

    fn len(&self) -> usize {
        self.shards.len()
    }

    /// The metrics' `failed` flag is the one record.
    fn alive(&self, s: usize) -> bool {
        !self.shards[s].metrics.failed
    }

    fn mark_failed(&mut self, s: usize) {
        self.shards[s].metrics.failed = true;
    }

    fn queue<R>(&mut self, s: usize, f: impl FnOnce(&mut AdmissionQueue<usize>) -> R) -> R {
        f(&mut self.shards[s].queue)
    }

    fn queue_pair<R>(
        &mut self,
        a: usize,
        b: usize,
        f: impl FnOnce(&mut AdmissionQueue<usize>, &mut AdmissionQueue<usize>) -> R,
    ) -> R {
        let [x, y] = self
            .shards
            .get_disjoint_mut([a, b])
            .expect("two distinct shards");
        f(&mut x.queue, &mut y.queue)
    }

    fn metrics<R>(&mut self, s: usize, f: impl FnOnce(&mut ShardMetrics) -> R) -> R {
        f(&mut self.shards[s].metrics)
    }

    fn resolve(&mut self, tag: usize, result: ServeResult) {
        debug_assert!(
            self.outcomes[tag].is_none(),
            "a request resolves exactly once"
        );
        self.outcomes[tag] = Some(result);
    }

    /// A shard cannot dispatch work before the work exists: an idle
    /// shard's free time advances to the moment it is offered work. (A
    /// shard with work queued is never free before the current event,
    /// so for it this is a no-op.)
    fn wake(&mut self, s: usize, now: f64) {
        let t_free = &mut self.shards[s].t_free;
        *t_free = t_free.max(now);
    }
}

/// The elastic control plane's runtime state inside the simulator: the
/// controller itself and the decision log.
struct ElasticRt {
    ctrl: BalanceController,
    actions: Vec<(f64, BalanceAction)>,
}

/// The simulated service both event loops drive: shards, routing map,
/// elastic runtime and outcome slots. Each server-side event
/// ([`SimService::arrive`], [`SimService::dispatch`]) ends with one
/// controller tick at the event's virtual time — the sim-side mirror
/// of the live driver's submit-path tick.
struct SimService<'a> {
    config: &'a ServiceConfig,
    cost: &'a CostModel,
    store: SimStore,
    map: ShardMap,
    rt: Option<ElasticRt>,
}

impl<'a> SimService<'a> {
    fn new(config: &'a ServiceConfig, cost: &'a CostModel, requests: usize) -> Self {
        if let Err(reason) = config.validate() {
            panic!("invalid ServiceConfig: {reason}");
        }
        let base = config.shards.max(1);
        SimService {
            config,
            cost,
            store: SimStore::new(config, requests),
            map: ShardMap::new(base, config.total_slots() - base),
            rt: config.elastic.map(|policy| ElasticRt {
                ctrl: BalanceController::new(policy),
                actions: Vec::new(),
            }),
        }
    }

    /// Request `ix` reaches the service at `t`: validate, route through
    /// the [`ShardMap`] (overrides, active set, ring successors) and
    /// admit. Door rejections are accounted to the shape's stable FNV
    /// home, which elastic actions never move.
    fn arrive(&mut self, t: f64, ix: usize, req: DecomposeRequest) {
        let shape = req.shape();
        let home = self.map.home(&shape);
        if let Err(rejection) = req.validate() {
            return policy::reject(&mut self.store, home, ix, rejection);
        }
        match self.map.route(&shape, &policy::alive(&self.store)) {
            Some(target) => {
                let entry = Entry {
                    id: ix as u64,
                    arrival: t,
                    req,
                    attempts: 0,
                    tag: ix,
                };
                policy::admit(&mut self.store, target, entry, t);
            }
            None => {
                let rejection = policy::shard_failed(&mut self.store, home);
                self.store.resolve(ix, Err(rejection));
            }
        }
        self.tick(t);
    }

    /// The next dispatch moment across live shards with queued work
    /// (the lowest shard among equals: `min_by` keeps the first).
    fn next_dispatch(&self) -> Option<(f64, usize)> {
        let shards = self.store.shards.iter().enumerate();
        shards
            .filter(|(_, sh)| !sh.metrics.failed && !sh.queue.is_empty())
            .map(|(s, sh)| (sh.t_free, s))
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// One dispatch on shard `s` at its free time, with fault injection.
    fn dispatch(&mut self, s: usize) {
        let sh = &mut self.store.shards[s];
        let t = sh.t_free;
        let depth_frac = sh.queue.len() as f64 / self.config.queue_capacity.max(1) as f64;
        let pop = sh.queue.pop_batch(t, &self.config.batch);
        policy::expire(&mut self.store, s, pop.expired, t);
        if let Some(batch) = pop.batch {
            let t_free = self.execute(s, t, depth_frac, batch);
            self.store.shards[s].t_free = t_free;
        }
        self.tick(t);
    }

    /// Execute `batch` on shard `s` starting at `t`; returns when the
    /// shard is free again.
    fn execute(&mut self, s: usize, t: f64, depth_frac: f64, batch: Batch<usize>) -> f64 {
        let (config, cost) = (self.config, self.cost);
        let k = self.store.shards[s].dispatch;
        self.store.shards[s].dispatch += 1;
        if config.faults.worker_dies(s, k) {
            let sup = &config.supervisor;
            let restart = policy::worker_died(&mut self.store, &self.map, s, Some(batch), sup, t);
            // A restarted shard pays the backoff in virtual time; a
            // failed-over one never dispatches again.
            return restart.map_or(t, |backoff| t + backoff);
        }
        if batch.entries.iter().any(|e| config.faults.poisoned(e.id)) {
            // Execution panics; the quarantine runs in-thread after one
            // dispatch overhead's worth of work.
            policy::quarantine(&mut self.store, s, batch, t);
            return t + cost.dispatch_s;
        }
        let done = match shard::execute(&mut self.store.shards[s].cache, &batch) {
            Ok(done) => done,
            Err(detail) => {
                // Unreachable for validated requests; keep the contract
                // that every entry terminates anyway.
                policy::refuse(&mut self.store, batch, &detail);
                return t;
            }
        };
        let batch_size = batch.len();
        let shape_key = shard::shape_key(&batch.shape);
        let arrivals = batch.arrivals();
        let plan_s = if done.cache_hit {
            0.0
        } else {
            cost.plan_s(&batch.shape)
        };
        let transform_s = cost.transform_s(&batch.shape) * batch_size as f64;
        let stall = config.faults.stall_factor(s, k);
        let mut deliver_s = 0.0;
        let priced = |frac_sum: f64| {
            // Delivery is priced per response: a degraded response
            // ships only surviving coefficients. The fault-free sum
            // keeps its association (no `* 1.0` rounding) so an empty
            // fault plan prices exactly like the plain cost model.
            deliver_s = cost.deliver_s_per_request * frac_sum;
            if stall == 1.0 {
                t + cost.dispatch_s + plan_s + transform_s + deliver_s
            } else {
                t + cost.dispatch_s + (plan_s + transform_s) * stall + deliver_s
            }
        };
        let (store, degraded) = (&mut self.store, config.degraded);
        let end = policy::respond(store, s, batch, done, degraded, depth_frac, t, priced);
        let split = LaneSplit {
            dispatch_s: cost.dispatch_s,
            plan_s: plan_s * stall,
            transform_s: transform_s * stall,
            deliver_s,
        };
        store.shards[s]
            .metrics
            .record_batch(t, end, &arrivals, split);
        if let Some(rt) = &mut self.rt {
            // Feed the cost book the measured per-request service
            // time — the same signal the live workers feed it.
            rt.ctrl.observe(shape_key, (end - t) / batch_size as f64);
        }
        end
    }

    /// One controller step at virtual time `t`; an applied action is
    /// logged.
    fn tick(&mut self, t: f64) {
        let Some(rt) = self.rt.as_mut() else { return };
        if let Some(action) = policy::balance(&mut self.store, &mut self.map, &mut rt.ctrl, t) {
            rt.actions.push((t, action));
        }
    }

    /// Close every shard's books at its free time; returns the metrics
    /// and the time the last shard went idle. A reserve slot that never
    /// activated has no books to close and is omitted — activation
    /// always picks the lowest inactive slot, so the omitted slots are
    /// a suffix and the emitted indices are stable.
    fn finish(&mut self) -> (MetricsSnapshot, f64) {
        let base = self.map.base();
        let mut makespan_s: f64 = 0.0;
        let mut shards = Vec::with_capacity(self.store.shards.len());
        let closing = std::mem::take(&mut self.store.shards);
        for (s, mut sh) in closing.into_iter().enumerate() {
            sh.metrics.queue = sh.queue.counters;
            sh.metrics.absorb_cache(&sh.cache);
            if let Some(end) = sh.metrics.close(sh.t_free, s >= base) {
                makespan_s = makespan_s.max(end);
                shards.push(sh.metrics);
            }
        }
        (MetricsSnapshot { shards }, makespan_s)
    }
}

// ---------------------------------------------------------------------
// Closed-loop transport simulation
// ---------------------------------------------------------------------

/// Analytic price of the wire between a client and the service:
/// serialization, framing, transfer, and propagation. All virtual
/// seconds, hand-set like [`CostModel`]'s — the closed-loop simulator
/// charges these to the Communication lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCostModel {
    /// Encode + decode cost per payload byte (both ends combined).
    pub ser_s_per_byte: f64,
    /// Fixed cost per frame: header, checksum, syscall.
    pub frame_overhead_s: f64,
    /// Transfer cost per payload byte on the wire.
    pub wire_s_per_byte: f64,
    /// Propagation round trip.
    pub rtt_s: f64,
}

impl Default for WireCostModel {
    fn default() -> Self {
        // Loopback-ish numbers: memcpy-rate serialization, ~10 Gb/s
        // transfer, microseconds of per-frame overhead (header,
        // checksum, syscall, scheduler wakeup).
        WireCostModel {
            ser_s_per_byte: 0.4e-9,
            frame_overhead_s: 8e-6,
            wire_s_per_byte: 0.8e-9,
            rtt_s: 60e-6,
        }
    }
}

impl WireCostModel {
    /// One-way cost of a frame carrying `payload_bytes` of payload:
    /// per-frame overhead, serialization + transfer per byte, and half
    /// a round trip of propagation. Progressive delivery prices each
    /// header/plane frame through this with its actual encoded size.
    pub fn frame_payload_s(&self, payload_bytes: f64) -> f64 {
        self.frame_overhead_s
            + payload_bytes * (self.ser_s_per_byte + self.wire_s_per_byte)
            + self.rtt_s / 2.0
    }

    /// One-way cost of a request frame carrying `shape`'s image.
    pub fn request_s(&self, shape: &PlanShape) -> f64 {
        self.frame_payload_s(shape.coeffs() as f64 * 8.0 + 64.0)
    }

    /// Hello + HelloAck exchange on a fresh connection.
    pub fn handshake_s(&self) -> f64 {
        2.0 * self.frame_overhead_s
            + 32.0 * (self.ser_s_per_byte + self.wire_s_per_byte)
            + self.rtt_s
    }

    /// Validate the model. Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("ser_s_per_byte", self.ser_s_per_byte),
            ("frame_overhead_s", self.frame_overhead_s),
            ("wire_s_per_byte", self.wire_s_per_byte),
            ("rtt_s", self.rtt_s),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("{name} = {v} must be finite and >= 0"));
            }
        }
        Ok(())
    }
}

/// Stagger between client start times: client `c` submits first at
/// `c * CLIENT_STAGGER_S` after its handshake, breaking exact
/// submission ties the way real clients never tie.
const CLIENT_STAGGER_S: f64 = 5e-6;

/// Shape of a closed-loop multi-client run: `clients` synchronous
/// clients, each keeping exactly one outstanding request and submitting
/// its next the moment the previous response lands (no think time).
/// Client `c` starts a few microseconds after client `c - 1`, so no two
/// submissions tie.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub reqs_per_client: usize,
    /// Client-side retry policy — mirror the live clients'.
    pub retry: RetryPolicy,
    /// The wire price model.
    pub wire: WireCostModel,
    /// Seeded wire faults, sharing the live transports' coordinate
    /// space: `conn` is the client id, frame 0 each direction is the
    /// handshake, request `k`'s first attempt is client-to-server
    /// frame `k + 1` when fault-free.
    pub wire_faults: WireFaultPlan,
    /// When set, successful responses stream progressively and each
    /// header/plane frame is priced individually — the simulator's
    /// prediction of [`crate::RemoteConfig::progressive`] plus
    /// [`crate::RemoteClient::with_tolerance`].
    pub progressive: Option<ProgressiveSim>,
}

/// Progressive-delivery knobs of the closed-loop simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressiveSim {
    /// Codec quantizing detail planes on the wire (mirror the server's
    /// [`crate::RemoteConfig::progressive`]).
    pub codec: CheckpointCodec,
    /// Client tolerance: once the running error bound reaches this,
    /// the simulated client cancels the rest of the sequence. `None`
    /// reads every sequence to completion.
    pub tolerance: Option<f64>,
    /// Client byte budget: once this many on-wire response bytes have
    /// been delivered for a call, the simulated client cancels the
    /// rest of the sequence — the mirror of
    /// [`crate::RemoteClient::with_byte_budget`]. Composes with
    /// `tolerance`: whichever predicate fires first cancels.
    pub byte_budget: Option<usize>,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            clients: 4,
            reqs_per_client: 16,
            retry: RetryPolicy::default(),
            wire: WireCostModel::default(),
            wire_faults: WireFaultPlan::none(),
            progressive: None,
        }
    }
}

impl ClosedLoopConfig {
    /// Validate the configuration. Returns a human-readable reason on
    /// failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 {
            return Err("clients must be >= 1".into());
        }
        if let Some(ps) = &self.progressive {
            if !ps.codec.is_valid() {
                return Err("progressive codec parameters must be finite and >= 0".into());
            }
            if let Some(tol) = ps.tolerance {
                if !(tol >= 0.0 && tol.is_finite()) {
                    return Err(format!("tolerance = {tol} must be finite and >= 0"));
                }
            }
            if ps.byte_budget == Some(0) {
                return Err("byte_budget must be >= 1".into());
            }
        }
        self.retry.validate()?;
        self.wire.validate()?;
        self.wire_faults.validate()
    }
}

/// What a closed-loop client observed for one of its requests: the
/// service outcome it received, or the transport error it gave up with
/// after exhausting its retry budget.
pub type ClientOutcome = Result<ServeResult, TransportError>;

/// Everything a closed-loop run produces.
#[derive(Debug)]
pub struct ClosedLoopReport {
    /// Client-observed outcome per request, indexed
    /// `client * reqs_per_client + k`.
    pub outcomes: Vec<ClientOutcome>,
    /// Server-side metrics (the same shape [`run_sim`] reports).
    pub metrics: MetricsSnapshot,
    /// Client-observed end-to-end latency per *delivered* request:
    /// first submit to response in hand, across every retry.
    pub latency: Histogram,
    /// Virtual time at which the last shard went idle or the last
    /// response landed, whichever is later.
    pub makespan_s: f64,
    /// Serialization + framing + transfer seconds across every frame
    /// and handshake — the Communication-lane charge.
    pub comm_s: f64,
    /// Fault-detection, backoff, and stall seconds — the
    /// FaultRecovery-lane charge.
    pub fault_recovery_s: f64,
    /// Client attempts beyond the first, summed over all requests.
    pub retries: u64,
    /// Responses the server re-sent from its resolution book instead
    /// of re-executing.
    pub replays: u64,
    /// Frames placed on the wire in either direction, handshakes and
    /// faulted frames included.
    pub frames: u64,
    /// Progressive detail-plane frames delivered to clients.
    pub planes: u64,
    /// Progressive sequences cut short by a tolerance-met Cancel.
    pub cancels: u64,
    /// Progressive sequences cut short because the client's byte
    /// budget was reached before completion (a subset of `cancels`).
    pub budget_stops: u64,
    /// Response-direction payload bytes placed on the wire (headers,
    /// planes, monolithic responses; faulted frames included).
    pub response_bytes: u64,
    /// Counterfactual payload bytes had every response shipped as one
    /// monolithic frame exactly once — the baseline `response_bytes`
    /// is compared against for bytes-to-tolerance.
    pub monolithic_bytes: u64,
}

impl ClosedLoopReport {
    /// Requests that reached their client, per virtual second.
    pub fn throughput(&self) -> f64 {
        let delivered = self.outcomes.iter().filter(|o| o.is_ok()).count();
        if self.makespan_s > 0.0 {
            delivered as f64 / self.makespan_s
        } else {
            0.0
        }
    }
}

/// Per-client state inside the closed-loop simulator.
struct SimClient {
    /// Next frame index per [`WireDir`] (frame 0 each way was the
    /// handshake).
    frames: [u64; 2],
    /// Request index this client issues next.
    next_k: usize,
    /// When the client submits its next request (`None` while one is
    /// outstanding, and once it has issued them all).
    next_submit: Option<f64>,
    /// Time of the first attempt of the in-flight request.
    first_submit: f64,
    /// Attempts started on the in-flight request (1-based).
    attempts: u32,
    /// Outcome slot the client is waiting on, once its request has
    /// reached the service.
    waiting_ix: Option<usize>,
    /// What the client observed for each request it finished, in order.
    outcomes: Vec<ClientOutcome>,
}

impl SimClient {
    /// Record the terminal moment of the in-flight request — delivered,
    /// or given up on — in the report being built (whose `makespan_s`
    /// tracks the last delivery until the shards' idle time is folded
    /// in), and schedule the next submit (or retire the client).
    fn finish_request(
        &mut self,
        cl: &ClosedLoopConfig,
        delivered: Result<(f64, ServeResult), Lost>,
        acc: &mut ClosedLoopReport,
    ) {
        let (t, outcome) = match delivered {
            Ok((td, assembled)) => {
                acc.latency.record(td - self.first_submit);
                (td, Ok(assembled))
            }
            Err((tl, err)) => (tl, Err(err)),
        };
        acc.makespan_s = acc.makespan_s.max(t);
        self.outcomes.push(outcome);
        self.next_k += 1;
        if self.next_k < cl.reqs_per_client {
            self.next_submit = Some(t);
        }
    }
}

/// A frame lost on the wire: when its sender's side notices, and the
/// error it sees.
type Lost = (f64, TransportError);

/// Walk one frame sent at `t` in direction `dir` through the fault
/// plan. `Ok` carries the time it lands at the peer.
fn transit(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    conn: u64,
    dir: WireDir,
    t: f64,
    one_way: f64,
    acc: &mut ClosedLoopReport,
) -> Result<f64, Lost> {
    let idx = sc.frames[dir as usize];
    sc.frames[dir as usize] += 1;
    acc.frames += 1;
    let (detect, err) = match cl.wire_faults.decide(conn, dir, idx) {
        None => {
            acc.comm_s += one_way;
            return Ok(t + one_way);
        }
        Some(WireFault::Stall { seconds }) => {
            acc.comm_s += one_way;
            acc.fault_recovery_s += seconds;
            return Ok(t + seconds + one_way);
        }
        // Abortive close / mid-frame FIN: the sender's own stream
        // errors within about a round trip.
        Some(WireFault::Reset) | Some(WireFault::Truncate) => {
            (one_way + cl.wire.rtt_s / 2.0, TransportError::ConnReset)
        }
        Some(WireFault::BitFlip { .. }) => match dir {
            // The server's checksum rejects the frame and aborts the
            // connection; the client sees the reset a round trip later.
            WireDir::ClientToServer => (one_way + cl.wire.rtt_s, TransportError::ConnReset),
            // The client's own checksum rejects this one on receipt.
            WireDir::ServerToClient => {
                let detail = "checksum mismatch".into();
                (one_way, TransportError::FrameCorrupt { detail })
            }
        },
    };
    acc.fault_recovery_s += detect;
    Err((t + detect, err))
}

/// Charge one failed attempt, or give up with the loss if the attempt
/// budget is spent: capped exponential backoff, then a fresh
/// connection's handshake (which consumes one frame index in each
/// direction, exactly like the live reconnect — handshake frames are
/// never faulted themselves; the live connect path retries internally).
/// `Ok` carries the time the new connection is up.
fn pay_retry(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    (t, err): Lost,
    acc: &mut ClosedLoopReport,
) -> Result<f64, Lost> {
    if sc.attempts >= cl.retry.max_attempts {
        return Err((t, err));
    }
    acc.retries += 1;
    let back = cl.retry.backoff_s(sc.attempts);
    sc.attempts += 1;
    sc.frames = sc.frames.map(|next| next + 1); // Hello, HelloAck
    acc.frames += 2;
    let shake = cl.wire.handshake_s();
    acc.fault_recovery_s += back;
    acc.comm_s += shake;
    Ok(t + back + shake)
}

/// Send a request frame until it reaches the server or the attempt
/// budget dies. `Ok` carries the arrival time, `Err` the give-up time
/// and the error the client last saw.
fn send_until_arrives(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    conn: u64,
    mut t: f64,
    one_way: f64,
    acc: &mut ClosedLoopReport,
) -> Result<f64, Lost> {
    loop {
        match transit(cl, sc, conn, WireDir::ClientToServer, t, one_way, acc) {
            Ok(ta) => return Ok(ta),
            Err(lost) => t = pay_retry(cl, sc, lost, acc)?,
        }
    }
}

/// Deliver a resolved result to its client, replaying on response-path
/// losses: each failed delivery costs a backoff + reconnect + request
/// resend, and the server answers the resend from its resolution book
/// (never by re-executing). `Ok` carries the delivery time and the
/// result *as the client assembled it* — identical to the server's for
/// monolithic delivery, a (possibly partial) reassembly under
/// [`ClosedLoopConfig::progressive`].
///
/// Progressive sequences price every header/plane frame individually
/// through [`WireCostModel::frame_payload_s`] with its actual encoded
/// size, and each plane after the client's Credit for it: one
/// client-to-server frame and its one-way trip, faulted like any other
/// frame, so the simulated frames and bytes are the live ones. A client
/// with neither tolerance nor byte budget credits the whole sequence
/// once, before the first plane, as the live one does. A frame
/// lost mid-sequence costs a backoff + reconnect + request resend and
/// the server replays the *whole* sequence from the header (the
/// reassembly is idempotent). A tolerance-met Cancel consumes one
/// client-to-server frame index priced as an empty frame; unlike live
/// delivery it is never faulted itself — the live client simply drops
/// the connection when a Cancel fails, which costs it nothing the
/// simulator tracks.
fn deliver_result(
    cl: &ClosedLoopConfig,
    sc: &mut SimClient,
    conn: u64,
    shape: &PlanShape,
    t_res: f64,
    res: &ServeResult,
    acc: &mut ClosedLoopReport,
) -> Result<(f64, ServeResult), Lost> {
    let mono_bytes = match res {
        Ok(_) => shape.coeffs() as u64 * 8 + 64,
        Err(_) => 64,
    };
    acc.monolithic_bytes += mono_bytes;
    // The response as a frame sequence: header then credited planes
    // when it streams progressively, one monolithic frame otherwise.
    let progressive = match (&cl.progressive, res) {
        (Some(ps), Ok(resp)) => {
            let seq =
                PlaneSequence::new(resp, ps.codec).expect("validated codec splits any response");
            Some((ps, seq))
        }
        _ => None,
    };
    let frames = progressive.as_ref().map_or(1, |(_, seq)| 1 + seq.len());
    let credit_s = cl.wire.frame_payload_s(4.0);
    let mut t = t_res;
    'attempt: loop {
        let mut reasm = progressive.as_ref().map(|(_, seq)| {
            Reassembler::new(seq.header().clone()).expect("header geometry is valid")
        });
        // On-wire bytes delivered this attempt (framing included), the
        // same quantity the live client's byte-budget predicate sees.
        let mut got_bytes = 0usize;
        // The Credit the reader's last step asked for, sent before the
        // next plane.
        let mut credit = None;
        for j in 0..frames {
            let plane = match &progressive {
                Some((_, seq)) if j > 0 => Some(seq.plane(j)),
                _ => None,
            };
            let frame = match (&progressive, &plane) {
                (None, _) => None,
                (Some((_, seq)), None) => Some(wire::encode_progressive_header(0, seq.header())),
                (Some((_, seq)), Some(p)) => {
                    Some(wire::encode_progressive_plane(0, p, j < seq.len()))
                }
            };
            let bytes = frame.map_or(mono_bytes, |f| {
                f.expect("a split response frames").payload.len() as u64
            });
            // A plane leaves the server only once the Credit the reader's
            // last step asked for lands.
            let credited = match credit.take() {
                Some(_) => transit(cl, sc, conn, WireDir::ClientToServer, t, credit_s, acc),
                None => Ok(t),
            };
            let sent = credited.and_then(|t| {
                acc.response_bytes += bytes;
                let one_way = cl.wire.frame_payload_s(bytes as f64);
                transit(cl, sc, conn, WireDir::ServerToClient, t, one_way, acc)
            });
            match sent {
                Ok(td) => t = td,
                Err(lost) => {
                    // Back off, reconnect, resend the request; the
                    // server replays the sequence from its book.
                    let t_re = pay_retry(cl, sc, lost, acc)?;
                    let req_cost = cl.wire.request_s(shape);
                    t = send_until_arrives(cl, sc, conn, t_re, req_cost, acc)?;
                    acc.replays += 1;
                    continue 'attempt;
                }
            }
            let (Some((ps, _)), Some(reasm)) = (&progressive, &mut reasm) else {
                continue;
            };
            got_bytes += bytes as usize + wire::HEADER_LEN + wire::TRAILER_LEN;
            if let Some(plane) = plane {
                reasm.apply(&plane).expect("planes fit their header");
                acc.planes += 1;
            }
            match reasm.step(j + 1 == frames, got_bytes, ps.tolerance, ps.byte_budget) {
                Step::Read { credit: next } => credit = next,
                Step::Finished => {}
                Step::Cancel { budget } => {
                    sc.frames[WireDir::ClientToServer as usize] += 1; // Cancel frame
                    acc.frames += 1;
                    acc.comm_s += cl.wire.frame_payload_s(0.0);
                    acc.cancels += 1;
                    acc.budget_stops += budget as u64;
                    break;
                }
            }
        }
        let assembled = reasm.map_or_else(|| res.clone(), |r| Ok(r.into_response()));
        return Ok((t, assembled));
    }
}

/// Turn freshly visible resolutions into deliveries. `now` is the
/// event time that made them visible: a served outcome surfaced by the
/// dispatch starting at `now` resolves at `now + service_s`; rejection
/// moments not carried by the outcome use `now` itself.
fn drain_resolutions(
    cl: &ClosedLoopConfig,
    shapes: &[PlanShape],
    clients: &mut [SimClient],
    outcomes: &[Option<ServeResult>],
    acc: &mut ClosedLoopReport,
    now: f64,
) {
    for (c, sc) in clients.iter_mut().enumerate() {
        let Some(ix) = sc.waiting_ix else { continue };
        let Some(res) = &outcomes[ix] else { continue };
        sc.waiting_ix = None;
        let t_res = match res {
            Ok(resp) => now + resp.service_s,
            Err(Rejection::DeadlineExpired { now: tx, .. }) => *tx,
            Err(_) => now,
        };
        let delivered = deliver_result(cl, sc, c as u64, &shapes[ix], t_res, res, acc);
        sc.finish_request(cl, delivered, acc);
    }
}

/// Run the service under a closed-loop multi-client workload with the
/// wire itself in the loop, and return client-observed outcomes and
/// latencies.
///
/// This is the simulator's prediction of what [`crate::RemoteServer`]
/// plus [`crate::RemoteClient`] do under the same
/// `(config, wire_faults)` pair: each client keeps one outstanding
/// request; every frame pays the [`WireCostModel`];
/// [`WireFaultPlan`] faults consume the same
/// `(conn = client id, dir, cumulative frame index)` coordinates the
/// live transports consume. A lost request is resubmitted after capped
/// exponential backoff and a reconnect; a lost *response* is recovered
/// by resubmitting the id and replaying the server's recorded
/// resolution — never by re-executing, exactly the live dedup book's
/// contract.
///
/// The server side is the same simulated service [`run_sim`] drives,
/// so the configuration's [`crate::faults::ShardFaultPlan`] applies:
/// worker kills, restart backoff, failover, poisoned batches, and
/// degraded delivery all compose with wire faults. Everything is a
/// pure function of the inputs — replays are byte-identical.
///
/// `requests` supplies each client's stream back to back:
/// `requests[c * reqs_per_client + k]` is client `c`'s `k`-th request.
pub fn run_closed_loop(
    config: &ServiceConfig,
    cost: &CostModel,
    cl: &ClosedLoopConfig,
    requests: Vec<DecomposeRequest>,
) -> ClosedLoopReport {
    cl.validate().expect("invalid closed-loop config");
    assert_eq!(
        requests.len(),
        cl.clients * cl.reqs_per_client,
        "need exactly clients * reqs_per_client requests"
    );

    let n = requests.len();
    let shapes: Vec<PlanShape> = requests.iter().map(|r| r.shape()).collect();
    let mut pool: Vec<Option<DecomposeRequest>> = requests.into_iter().map(Some).collect();
    let mut svc = SimService::new(config, cost, n);
    // The report being built; its wire totals accumulate in place.
    // Every client connects up front: one Hello + HelloAck each.
    let mut acc = ClosedLoopReport {
        outcomes: Vec::new(),
        metrics: MetricsSnapshot { shards: Vec::new() },
        latency: Histogram::default(),
        makespan_s: 0.0,
        comm_s: cl.wire.handshake_s() * cl.clients as f64,
        fault_recovery_s: 0.0,
        retries: 0,
        replays: 0,
        frames: 2 * cl.clients as u64,
        planes: 0,
        cancels: 0,
        budget_stops: 0,
        response_bytes: 0,
        monolithic_bytes: 0,
    };

    // The handshake was frame 0 each way, so the frame counters start
    // at 1; each client schedules its first submit.
    let mut clients: Vec<SimClient> = (0..cl.clients)
        .map(|c| SimClient {
            frames: [1, 1],
            next_k: 0,
            next_submit: (cl.reqs_per_client > 0)
                .then(|| c as f64 * CLIENT_STAGGER_S + cl.wire.handshake_s()),
            first_submit: 0.0,
            attempts: 0,
            waiting_ix: None,
            outcomes: Vec::new(),
        })
        .collect();
    // Request frames in flight toward the service, in send order:
    // (arrival time, outcome ix).
    let mut wire_in: Vec<(f64, usize)> = Vec::new();
    enum Next {
        Submit(usize),
        Arrival(usize),
        Dispatch(usize),
    }

    loop {
        // The earliest event; `min_by` keeps the first of equals, so
        // ties go to the lowest client, the earliest-sent frame and the
        // lowest shard — and between kinds to the client, then the
        // wire, then the shard.
        let submits = clients.iter().enumerate();
        let arrivals = wire_in.iter().enumerate();
        let candidates = [
            submits
                .filter_map(|(c, sc)| sc.next_submit.map(|t| (t, Next::Submit(c))))
                .min_by(|a, b| a.0.total_cmp(&b.0)),
            arrivals
                .map(|(pos, &(t, _))| (t, Next::Arrival(pos)))
                .min_by(|a, b| a.0.total_cmp(&b.0)),
            svc.next_dispatch().map(|(t, s)| (t, Next::Dispatch(s))),
        ];
        let earliest = candidates.into_iter().flatten();
        let Some((t, next)) = earliest.min_by(|a, b| a.0.total_cmp(&b.0)) else {
            break;
        };
        match next {
            Next::Submit(c) => {
                // A client starts its next request, walking send-half
                // losses closed-form until the frame reaches the
                // service (the server is oblivious until then, so
                // nothing else can interleave).
                let sc = &mut clients[c];
                let ix = c * cl.reqs_per_client + sc.next_k;
                sc.next_submit = None;
                sc.first_submit = t;
                sc.attempts = 1;
                let one_way = cl.wire.request_s(&shapes[ix]);
                match send_until_arrives(cl, sc, c as u64, t, one_way, &mut acc) {
                    Ok(tarr) => {
                        wire_in.push((tarr, ix));
                        sc.waiting_ix = Some(ix);
                    }
                    Err(lost) => sc.finish_request(cl, Err(lost), &mut acc),
                }
                continue;
            }
            Next::Arrival(pos) => {
                let (_, ix) = wire_in.remove(pos);
                let req = pool[ix].take().expect("each request arrives once");
                svc.arrive(t, ix, req);
            }
            Next::Dispatch(s) => svc.dispatch(s),
        }
        // A server-side event can make resolutions visible.
        let outcomes = &svc.store.outcomes;
        drain_resolutions(cl, &shapes, &mut clients, outcomes, &mut acc, t);
    }

    let (metrics, idle_at) = svc.finish();
    let outcomes: Vec<ClientOutcome> = clients.into_iter().flat_map(|sc| sc.outcomes).collect();
    assert_eq!(outcomes.len(), n, "every request terminates at its client");
    ClosedLoopReport {
        outcomes,
        metrics,
        makespan_s: acc.makespan_s.max(idle_at),
        ..acc
    }
}
