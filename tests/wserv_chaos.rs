//! Chaos invariants of the fault-tolerant serving layer.
//!
//! Under any seeded [`ShardFaultPlan`] — worker panics, permanent shard
//! crashes, stalls, poison requests — the serving layer must uphold:
//!
//! 1. **Exactly-once resolution.** Every accepted request terminates in
//!    exactly one outcome: a response (exact or bounded-error
//!    degraded), or a typed rejection. Nothing hangs, nothing is
//!    silently dropped, nothing resolves twice (the response cell
//!    debug-asserts single resolution).
//! 2. **Typed failures.** A worker death never surfaces as a
//!    caller-visible panic: supervised shards restart or fail over;
//!    unsupervised deaths become `ServiceError::WorkerPanicked` at
//!    shutdown with every stranded request resolved `ShardFailed`.
//! 3. **Deterministic replay.** The chaos simulator is a pure function
//!    of `(config, cost, stream)` — same seed, byte-identical run.
//! 4. **Asserted degradation.** A degraded response's detail planes
//!    deviate from the exact oracle by at most its carried
//!    `error_bound`; its LL plane is exact.

use dwt::engine::PlanShape;
use dwt::{dwt2d, Boundary, FilterBank, Matrix, Pyramid};
use proptest::prelude::*;
use wserv::sim::{run_sim, CostModel, SimReport};
use wserv::{
    DecomposeRequest, DegradedPolicy, MetricsSnapshot, Priority, RejectKind, Rejection,
    ServiceConfig, ServiceError, ShardFaultPlan, SupervisorPolicy, WaveletService,
};

fn image(n: usize, salt: u64) -> Matrix {
    Matrix::from_fn(n, n, |r, c| {
        ((r as u64 * 31 + c as u64 * 17 + salt * 7) % 61) as f64 - 30.0
    })
}

/// A deterministic open-loop stream over a small shape pool (the same
/// generator the serving property tests use).
fn stream(n_reqs: usize, seed: u64, rate: f64) -> Vec<(f64, DecomposeRequest)> {
    let sizes = [8usize, 16, 32];
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n_reqs);
    for _ in 0..n_reqs {
        let u = ((next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        let size = sizes[(next() % sizes.len() as u64) as usize];
        let levels = 1 + (next() % 2) as usize;
        let prio = Priority::ALL[(next() % 3) as usize];
        let req = DecomposeRequest::new(image(size, next() % 97), FilterBank::haar(), levels)
            .with_priority(prio);
        out.push((t, req));
    }
    out
}

/// An `(image size, levels)` pair whose haar shape routes to `target`
/// out of `nshards` shards. Varies both axes: the shape hash's low bit
/// is a byte-parity, so size alone cannot reach every shard.
fn shape_on_shard(target: usize, nshards: usize) -> (usize, usize) {
    let bank = FilterBank::haar();
    (8..=256)
        .step_by(4)
        .flat_map(|size| [(size, 1usize), (size, 2)])
        .find(|&(size, levels)| {
            let shape = PlanShape::new(size, size, &bank, levels, Boundary::Periodic);
            wserv::shard::shard_of(&shape, nshards) == target
        })
        .expect("some (size, levels) pair routes to every shard")
}

fn oracle(req: &DecomposeRequest) -> Pyramid {
    dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode).expect("valid request")
}

/// Assert a (possibly degraded) response pyramid against the exact
/// oracle: LL always exact, details within `bound`.
fn assert_within_bound(got: &Pyramid, exact: &Pyramid, bound: f64) {
    assert_eq!(got.approx, exact.approx, "LL plane must always be exact");
    for (g, e) in got.detail.iter().zip(exact.detail.iter()) {
        for (gp, ep) in [(&g.lh, &e.lh), (&g.hl, &e.hl), (&g.hh, &e.hh)] {
            for (a, b) in gp.data().iter().zip(ep.data().iter()) {
                assert!(
                    (a - b).abs() <= bound + 1e-12,
                    "detail coefficient {a} vs {b} exceeds the asserted bound {bound}"
                );
            }
        }
    }
}

fn assert_reports_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(
        a.makespan_s, b.makespan_s,
        "makespan diverged between replays"
    );
    assert_eq!(a.metrics.completed(), b.metrics.completed());
    assert_eq!(a.metrics.restarts(), b.metrics.restarts());
    assert_eq!(a.metrics.requeued(), b.metrics.requeued());
    assert_eq!(a.metrics.quarantined(), b.metrics.quarantined());
    assert_eq!(a.metrics.degraded_served(), b.metrics.degraded_served());
    assert_eq!(a.metrics.failed_shards(), b.metrics.failed_shards());
    assert_eq!(
        a.metrics.latency_quantile(0.95),
        b.metrics.latency_quantile(0.95)
    );
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
        match (x, y) {
            (Ok(rx), Ok(ry)) => {
                assert_eq!(rx.pyramid, ry.pyramid, "response bits diverged");
                assert_eq!(rx.wait_s, ry.wait_s);
                assert_eq!(rx.service_s, ry.service_s);
                assert_eq!(rx.degraded, ry.degraded);
                assert_eq!(rx.error_bound, ry.error_bound);
            }
            (Err(ex), Err(ey)) => assert_eq!(ex, ey),
            _ => panic!("outcome kind diverged between replays"),
        }
    }
}

// ---------------------------------------------------------------------
// Live threaded driver
// ---------------------------------------------------------------------

/// Regression for the historical fatal `expect` on worker join: with
/// supervision disabled, a dead worker surfaces at shutdown as a typed
/// `ServiceError` — never a caller-visible panic — and every stranded
/// request resolves `ShardFailed`.
#[test]
fn unsupervised_worker_death_is_a_typed_shutdown_error() {
    let nshards = 2;
    let victim = 0;
    let (size, levels) = shape_on_shard(victim, nshards);
    let service = WaveletService::start(
        ServiceConfig::default()
            .with_shards(nshards)
            .with_max_batch(1)
            .with_supervisor(SupervisorPolicy::disabled())
            .with_faults(ShardFaultPlan::none().with_shard_crash(victim, 0)),
    );
    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            service
                .submit(DecomposeRequest::new(
                    image(size, i),
                    FilterBank::haar(),
                    levels,
                ))
                .expect("queue has room")
        })
        .collect();
    // Give the worker a chance to pop a dispatch and die with it in
    // flight (the error path must hold either way).
    std::thread::sleep(std::time::Duration::from_millis(20));
    match service.shutdown() {
        Err(ServiceError::WorkerPanicked { shard }) => assert_eq!(shard, victim),
        Err(other) => panic!("wrong service error: {other:?}"),
        Ok(_) => panic!("a dead unsupervised worker must fail shutdown"),
    }
    for h in handles {
        match h.wait() {
            Err(Rejection::ShardFailed { shard, .. }) => assert_eq!(shard, victim),
            other => panic!("stranded request resolved {other:?}, want ShardFailed"),
        }
    }
}

/// A one-shot worker panic under supervision: the worker restarts, the
/// interrupted dispatch re-queues, and every request completes.
#[test]
fn supervisor_restarts_a_panicked_worker_without_losing_requests() {
    let nshards = 2;
    let victim = 1;
    let (size, levels) = shape_on_shard(victim, nshards);
    let service = WaveletService::start(
        ServiceConfig::default()
            .with_shards(nshards)
            .with_max_batch(1)
            .with_supervisor(SupervisorPolicy {
                max_restarts: 3,
                backoff_base_s: 2e-4,
                ..SupervisorPolicy::default()
            })
            .with_faults(ShardFaultPlan::none().with_worker_panic(victim, 1)),
    );
    let handles: Vec<_> = (0..8u64)
        .map(|i| {
            (
                i,
                service
                    .submit(DecomposeRequest::new(
                        image(size, i),
                        FilterBank::haar(),
                        levels,
                    ))
                    .expect("queue has room"),
            )
        })
        .collect();
    let snapshot = service.shutdown().expect("supervised shutdown succeeds");
    for (i, h) in handles {
        let resp = h
            .wait()
            .unwrap_or_else(|r| panic!("request {i} lost: {r:?}"));
        assert_eq!(
            resp.pyramid,
            oracle(&DecomposeRequest::new(
                image(size, i),
                FilterBank::haar(),
                levels
            )),
            "request {i} corrupted across the restart"
        );
        assert!(!resp.degraded);
    }
    assert_eq!(snapshot.completed(), 8);
    assert_eq!(snapshot.restarts(), 1, "exactly one injected death");
    assert!(
        snapshot.requeued() >= 1,
        "the interrupted dispatch re-queued"
    );
    assert!(
        snapshot.shards[victim].lanes.fault_recovery > 0.0,
        "restart backoff and requeue must be charged to the FaultRecovery lane"
    );
    assert!(snapshot.failed_shards().is_empty());
}

/// Submit `request(0..n)`, shut down straight away, and require that
/// the drain served every one exactly.
fn drain_serving_all(
    service: WaveletService,
    n: u64,
    request: impl Fn(u64) -> DecomposeRequest,
) -> MetricsSnapshot {
    let handles: Vec<_> = (0..n)
        .map(|i| service.submit(request(i)).expect("queue has room"))
        .collect();
    let snapshot = service.shutdown().expect("supervised shutdown succeeds");
    for (i, h) in (0..n).zip(handles) {
        let resp = h
            .wait()
            .unwrap_or_else(|r| panic!("request {i} lost: {r:?}"));
        assert_eq!(resp.pyramid, oracle(&request(i)), "request {i} corrupted");
    }
    assert_eq!(snapshot.completed(), n);
    snapshot
}

/// Two deaths reported back to back: both shards' workers die at the
/// same dispatch index, so the second report can arrive while the
/// supervisor is backing off for the first and must wait in its
/// channel. Neither is lost: each worker restarts once and every
/// request completes.
#[test]
fn two_workers_dying_at_the_same_dispatch_each_restart_once() {
    let nshards = 2;
    let shapes = [0, 1].map(|s| shape_on_shard(s, nshards));
    let request = |i: u64| {
        let (size, levels) = shapes[(i % 2) as usize];
        DecomposeRequest::new(image(size, i), FilterBank::haar(), levels)
    };
    let service = WaveletService::start(
        ServiceConfig::default()
            .with_shards(nshards)
            .with_max_batch(1)
            .with_supervisor(SupervisorPolicy {
                backoff_base_s: 2e-4,
                ..SupervisorPolicy::default()
            })
            .with_faults(
                ShardFaultPlan::none()
                    .with_worker_panic(0, 1)
                    .with_worker_panic(1, 1),
            ),
    );
    let snapshot = drain_serving_all(service, 12, request);
    for shard in &snapshot.shards {
        assert_eq!(shard.restarts, 1, "one injected death per shard");
    }
    assert!(snapshot.failed_shards().is_empty());
}

/// A death the supervisor hears about while `shutdown` is already
/// waiting on it: the panic is scheduled at the last dispatch of a
/// queue that is draining, so the worker dies with the queue empty and
/// the drain flag set (or about to be — the outcome must not depend on
/// which). The restarted worker finds the re-queued dispatch, serves it
/// and exits; nothing is left for the backstop sweep.
#[test]
fn a_worker_dying_on_the_last_dispatch_of_a_draining_queue_restarts_and_drains() {
    let n = 8u64;
    let service = WaveletService::start(
        ServiceConfig::default()
            .with_shards(1)
            .with_max_batch(1)
            .with_supervisor(SupervisorPolicy {
                backoff_base_s: 2e-4,
                ..SupervisorPolicy::default()
            })
            .with_faults(ShardFaultPlan::none().with_worker_panic(0, n - 1)),
    );
    let request = |i: u64| DecomposeRequest::new(image(16, i), FilterBank::haar(), 1);
    let snapshot = drain_serving_all(service, n, request);
    assert_eq!(snapshot.restarts(), 1, "exactly one injected death");
    assert_eq!(snapshot.rejected(RejectKind::ShardFailed), 0);
}

/// A permanently crashing shard burns its restart budget, fails over,
/// and its work — in-flight, queued, and future — is served by the
/// ring survivor.
#[test]
fn restart_budget_exhaustion_fails_over_to_ring_survivors() {
    let nshards = 2;
    let victim = 0;
    let survivor = 1;
    let (size, levels) = shape_on_shard(victim, nshards);
    let service = WaveletService::start(
        ServiceConfig::default()
            .with_shards(nshards)
            .with_max_batch(4)
            .with_supervisor(SupervisorPolicy {
                max_restarts: 2,
                backoff_base_s: 2e-4,
                ..SupervisorPolicy::default()
            })
            .with_faults(ShardFaultPlan::none().with_shard_crash(victim, 0)),
    );
    let first_wave: Vec<_> = (0..12u64)
        .map(|i| {
            (
                i,
                service
                    .submit(DecomposeRequest::new(
                        image(size, i),
                        FilterBank::haar(),
                        levels,
                    ))
                    .expect("queue has room"),
            )
        })
        .collect();
    // The crashed shard can never serve, so these resolve only after
    // failover re-routes them to the survivor — waiting is the
    // synchronization.
    for (i, h) in first_wave {
        match h.wait() {
            Ok(resp) => assert_eq!(
                resp.pyramid,
                oracle(&DecomposeRequest::new(
                    image(size, i),
                    FilterBank::haar(),
                    levels
                )),
                "failover corrupted request {i}"
            ),
            Err(Rejection::ShardFailed { shard, restarts }) => {
                assert_eq!(shard, victim);
                assert_eq!(restarts, 2);
            }
            Err(other) => panic!("request {i}: unexpected {other:?}"),
        }
    }
    // The shard is now marked failed: new work routes to the survivor.
    let late = service
        .submit(DecomposeRequest::new(
            image(size, 99),
            FilterBank::haar(),
            levels,
        ))
        .expect("failover routing admits to the survivor");
    let resp = late.wait().expect("survivor serves re-routed work");
    assert_eq!(
        resp.pyramid,
        oracle(&DecomposeRequest::new(
            image(size, 99),
            FilterBank::haar(),
            levels
        ))
    );
    let snapshot = service.shutdown().expect("supervised shutdown succeeds");
    assert_eq!(snapshot.failed_shards(), vec![victim]);
    assert_eq!(snapshot.restarts(), 2, "the whole budget was burned");
    assert!(snapshot.requeued() >= 1, "failover re-routed entries");
    assert!(snapshot.shards[survivor].completed > 0);
}

/// The poisoned-batch protocol: a request that panics execution is
/// quarantined (typed `Requeued` rejection) and its batchmates retry
/// solo and complete.
#[test]
fn poisoned_requests_quarantine_without_killing_batchmates() {
    let poisoned_id = 2u64;
    let service = WaveletService::start(
        ServiceConfig::default()
            .with_shards(1)
            .with_max_batch(4)
            .with_faults(ShardFaultPlan::none().with_poison(poisoned_id)),
    );
    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            (
                i,
                service
                    .submit(DecomposeRequest::new(image(16, i), FilterBank::haar(), 1))
                    .expect("queue has room"),
            )
        })
        .collect();
    let snapshot = service
        .shutdown()
        .expect("quarantine never kills the service");
    for (i, h) in handles {
        match h.wait() {
            Ok(resp) => {
                assert_ne!(i, poisoned_id, "the poisoned request must not complete");
                assert_eq!(
                    resp.pyramid,
                    oracle(&DecomposeRequest::new(image(16, i), FilterBank::haar(), 1)),
                    "batchmate {i} corrupted by the quarantine retry"
                );
            }
            Err(Rejection::Requeued { attempts }) => {
                assert_eq!(i, poisoned_id, "only the poison is quarantined");
                assert!(attempts >= 1);
            }
            Err(other) => panic!("request {i}: unexpected {other:?}"),
        }
    }
    assert_eq!(snapshot.completed(), 5);
    assert_eq!(snapshot.quarantined(), 1);
    assert_eq!(snapshot.rejected(RejectKind::Requeued), 1);
    assert!(
        snapshot.failed_shards().is_empty(),
        "no worker died for a poison"
    );
}

/// Degraded-mode serving: under pressure, sub-interactive work gets a
/// bounded-error response (exact LL, thresholded/quantized details),
/// interactive work stays exact.
#[test]
fn degraded_mode_serves_bounded_error_under_pressure() {
    let policy = DegradedPolicy {
        threshold: 0.75,
        step: 0.5,
        queue_high_water: 0.0, // always under pressure: every dispatch degrades
    };
    let service = WaveletService::start(
        ServiceConfig::default()
            .with_shards(1)
            .with_max_batch(4)
            .with_degraded(policy),
    );
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let prio = if i % 4 == 0 {
            Priority::Interactive
        } else {
            Priority::Batch
        };
        let req = DecomposeRequest::new(image(16, i), FilterBank::haar(), 2).with_priority(prio);
        handles.push((i, prio, service.submit(req).expect("queue has room")));
    }
    let snapshot = service.shutdown().expect("fault-free shutdown succeeds");
    let mut degraded_seen = 0;
    for (i, prio, h) in handles {
        let resp = h
            .wait()
            .unwrap_or_else(|r| panic!("request {i} lost: {r:?}"));
        let exact = oracle(&DecomposeRequest::new(image(16, i), FilterBank::haar(), 2));
        if prio == Priority::Interactive {
            assert!(!resp.degraded, "interactive work is never degraded");
            assert_eq!(resp.error_bound, 0.0);
            assert_eq!(resp.pyramid, exact);
        } else {
            assert!(
                resp.degraded,
                "sub-interactive work degrades under pressure"
            );
            assert_eq!(resp.error_bound, policy.error_bound());
            assert_within_bound(&resp.pyramid, &exact, resp.error_bound);
            degraded_seen += 1;
        }
    }
    assert_eq!(snapshot.degraded_served(), degraded_seen);
    assert!(degraded_seen > 0);
}

// ---------------------------------------------------------------------
// Deterministic chaos simulator
// ---------------------------------------------------------------------

/// Digest of everything a run reports — outcome kinds, response timing
/// and error-bound bit patterns, pyramid bits, every shard's books, the
/// makespan — through the wire checksum. The books are walked field by
/// field, so the digest moves when a number moves, not when the
/// metrics structs gain or lose a field.
fn report_digest(report: &SimReport) -> u64 {
    let mut bytes = Vec::new();
    for outcome in &report.outcomes {
        match outcome {
            Ok(resp) => {
                bytes.push(0u8);
                for v in [resp.wait_s, resp.service_s, resp.error_bound] {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                let detail = resp.pyramid.detail.iter();
                let planes = std::iter::once(&resp.pyramid.approx)
                    .chain(detail.flat_map(|b| [&b.lh, &b.hl, &b.hh]));
                for v in planes.flat_map(|plane| plane.data()) {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Err(rejection) => bytes.push(1 + rejection.kind() as u8),
        }
    }
    for s in &report.metrics.shards {
        let counters = [
            s.queue.accepted,
            s.completed,
            s.batches,
            s.cache_hits,
            s.cache_misses,
            s.cache_evictions,
            s.restarts,
            s.requeued,
            s.quarantined,
            s.degraded_served,
            s.stolen_in,
            s.stolen_out,
            s.splits,
            s.merges,
            s.failed as u64,
        ];
        for n in counters.iter().chain(&s.queue.rejected) {
            bytes.extend_from_slice(&n.to_le_bytes());
        }
        let l = &s.lanes;
        let seconds = [
            l.useful,
            l.communication,
            l.duplication,
            l.unique_redundancy,
            l.wait,
            l.fault_recovery,
            l.completion,
            s.busy_s,
        ];
        for v in seconds {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        // The latency samples, in recording order. They are private to
        // the histogram; `{:?}` of a finite f64 is its shortest
        // round-trip decimal, so the text is one-to-one with the bits.
        bytes.extend_from_slice(format!("{:?}", s.latency).as_bytes());
    }
    bytes.extend_from_slice(&report.makespan_s.to_bits().to_le_bytes());
    wserv::wire::checksum(&bytes)
}

/// The fault-free simulator used to be a second, per-shard event loop,
/// asserted bit-identical to the joint loop under an empty fault plan.
/// That loop is gone; the digests were taken from it before it was
/// deleted, so the joint loop still has to reproduce it bit for bit —
/// on a plain stream and on one exercising batching, cache eviction,
/// shedding and deadline expiry. (Re-pinned once since, with the same
/// simulator on both sides: when `report_digest` went from the `{:?}`
/// text of the snapshot to walking its fields.)
#[test]
fn run_sim_matches_pinned_golden() {
    let cost = CostModel::default();
    let plain = ServiceConfig::default()
        .with_shards(3)
        .with_queue_capacity(8);
    let run = run_sim(&plain, &cost, stream(80, 11, 100_000.0));
    assert_eq!(report_digest(&run), 0x783b_e06d_e46e_b306);

    let batched = plain.with_cache_capacity(1).with_max_batch(4);
    let deadlined = stream(80, 11, 100_000.0).into_iter().enumerate();
    let deadlined = deadlined.map(|(i, (t, req))| match i % 3 {
        0 => (t, req.with_deadline(t + 60e-6)),
        _ => (t, req),
    });
    let run = run_sim(&batched, &cost, deadlined.collect());
    let expired = run.metrics.rejected(RejectKind::DeadlineExpired);
    assert!(expired > 0 && run.metrics.rejected(RejectKind::Shed) > 0);
    assert_eq!(report_digest(&run), 0xee8f_c831_66d0_4ca8);
}

/// Simulated failover: a permanently crashed shard burns its budget,
/// its work re-routes, the recovery is charged to the FaultRecovery
/// lane, and the ledger still closes.
#[test]
fn chaos_sim_failover_reroutes_and_charges_fault_recovery() {
    let cfg = ServiceConfig::default()
        .with_shards(2)
        .with_queue_capacity(32)
        .with_supervisor(SupervisorPolicy {
            max_restarts: 2,
            ..SupervisorPolicy::default()
        })
        .with_faults(ShardFaultPlan::none().with_shard_crash(0, 0));
    let n = 60;
    let run = run_sim(&cfg, &CostModel::default(), stream(n, 5, 50_000.0));
    assert_eq!(run.outcomes.len(), n);
    assert_eq!(run.metrics.failed_shards(), vec![0]);
    assert_eq!(run.metrics.restarts(), 2);
    assert!(run.metrics.requeued() > 0, "failover must re-route entries");
    assert!(
        run.metrics.shards[0].lanes.fault_recovery > 0.0,
        "restarts and requeues bill the FaultRecovery lane"
    );
    let ok = run.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    assert_eq!(ok, run.metrics.completed());
    assert!(ok > 0, "the survivor must serve re-routed work");
    // Exactness survives re-routing: responses match the oracle.
    let replay = stream(n, 5, 50_000.0);
    for (outcome, (_, req)) in run.outcomes.iter().zip(replay.iter()) {
        if let Ok(resp) = outcome {
            assert_eq!(resp.pyramid, oracle(req), "failover corrupted a response");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The chaos invariant, property-tested: under an arbitrary seeded
    /// fault plan every submitted request resolves exactly once (the
    /// simulator hard-fails otherwise), degraded responses honor their
    /// carried error bound against the exact oracle, the ledger closes,
    /// and the whole run replays byte-identically.
    #[test]
    fn chaos_invariants_hold_for_any_seeded_plan(seed in 0u64..1_000_000) {
        let degraded = DegradedPolicy::default();
        let plan = ShardFaultPlan::seeded(seed)
            .with_shard_crash((seed % 3) as usize, seed % 5)
            .with_worker_panic(((seed + 1) % 3) as usize, seed % 7)
            .with_stall(((seed + 2) % 3) as usize, 2.0, 0, 6)
            .with_poison_rate(0.05);
        let cfg = ServiceConfig::default()
            .with_shards(3)
            .with_queue_capacity(8)
            .with_supervisor(SupervisorPolicy {
                max_restarts: (seed % 3) as u32,
                ..SupervisorPolicy::default()
            })
            .with_degraded(degraded)
            .with_faults(plan);
        let cost = CostModel::default();
        let n = 70;
        let run = run_sim(&cfg, &cost, stream(n, seed, 100_000.0));

        // Exactly-once: one terminal outcome per submission.
        prop_assert_eq!(run.outcomes.len(), n);
        let ok = run.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        prop_assert_eq!(ok, run.metrics.completed());

        // Every response honors its error contract.
        let replay = stream(n, seed, 100_000.0);
        for (outcome, (_, req)) in run.outcomes.iter().zip(replay.iter()) {
            match outcome {
                Ok(resp) if resp.degraded => {
                    prop_assert_eq!(resp.error_bound, degraded.error_bound());
                    assert_within_bound(&resp.pyramid, &oracle(req), resp.error_bound);
                }
                Ok(resp) => {
                    prop_assert_eq!(resp.error_bound, 0.0);
                    prop_assert_eq!(&resp.pyramid, &oracle(req));
                }
                Err(
                    Rejection::QueueFull { .. }
                    | Rejection::Shed { .. }
                    | Rejection::DeadlineExpired { .. }
                    | Rejection::ShardFailed { .. }
                    | Rejection::Requeued { .. },
                ) => {}
                Err(other) => prop_assert!(false, "untyped loss: {:?}", other),
            }
        }

        // Byte-identical replay from the same seed.
        let again = run_sim(&cfg, &cost, stream(n, seed, 100_000.0));
        assert_reports_identical(&run, &again);
    }
}

// ---------------------------------------------------------------------
// Fault-matrix grid point (environment-driven, like tests/fault_matrix.rs)
// ---------------------------------------------------------------------

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Grid axis for CI: `WSERV_CRASH_SHARDS` (0..=2, default 1) shards
/// crash permanently at their first dispatch. Whatever the grid point,
/// every request resolves, survivors serve exact responses, and the
/// run replays byte-identically.
#[test]
fn serving_survives_the_configured_shard_crash_grid_point() {
    let crashes = env_usize("WSERV_CRASH_SHARDS", 1).min(2);
    let mut plan = ShardFaultPlan::seeded(7);
    for s in 0..crashes {
        plan = plan.with_shard_crash(s, 0);
    }
    let cfg = ServiceConfig::default()
        .with_shards(3)
        .with_queue_capacity(32)
        .with_supervisor(SupervisorPolicy {
            max_restarts: 1,
            ..SupervisorPolicy::default()
        })
        .with_faults(plan);
    let cost = CostModel::default();
    let n = 60;
    let run = run_sim(&cfg, &cost, stream(n, 7, 50_000.0));
    assert_eq!(run.outcomes.len(), n);
    let ok = run.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    assert_eq!(ok, run.metrics.completed());
    assert!(ok > 0, "survivors must keep serving");
    assert!(run.metrics.failed_shards().len() <= crashes);
    let replay = stream(n, 7, 50_000.0);
    for (outcome, (_, req)) in run.outcomes.iter().zip(replay.iter()) {
        if let Ok(resp) = outcome {
            assert_eq!(resp.pyramid, oracle(req), "grid point corrupted a response");
        }
    }
    assert_reports_identical(&run, &run_sim(&cfg, &cost, stream(n, 7, 50_000.0)));
}
