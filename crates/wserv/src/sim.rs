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
//! backend.

use crate::admission::AdmissionQueue;
use crate::batch::Batch;
use crate::cache::PlanCache;
use crate::elastic::{BalanceAction, BalanceController, ShardMap};
use crate::metrics::{LaneSplit, MetricsSnapshot, ShardMetrics};
use crate::policy::{self, Shards};
use crate::request::{DecomposeRequest, DecomposeResponse, Entry, ServeResult};
use crate::server::ServiceConfig;
use crate::shard;
use dwt::engine::PlanShape;

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
    /// One terminal outcome per submitted request, in stream order; a
    /// served one carries its latency ([`DecomposeResponse::latency_s`]).
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

    /// Nearest-rank latency quantile `q` over the served requests: each
    /// `Ok` outcome's [`DecomposeResponse::latency_s`].
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let served = self.outcomes.iter().flatten();
        nearest_rank(served.map(DecomposeResponse::latency_s).collect(), q)
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (0 when empty).
pub fn nearest_rank(mut samples: Vec<f64>, q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
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

/// The simulated service [`run_sim`] drives: shards, routing map,
/// elastic runtime and outcome slots. Each event
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
        let done = match shard::execute(&mut self.store.shards[s].cache, &batch, |_| None) {
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
            .record_batch(t, end, batch_size, split);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank_and_deterministic() {
        let samples = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(nearest_rank(samples.clone(), 0.0), 1.0);
        assert_eq!(nearest_rank(samples.clone(), 0.5), 3.0);
        assert_eq!(nearest_rank(samples, 1.0), 5.0);
        assert_eq!(nearest_rank(Vec::new(), 0.99), 0.0);
    }
}
