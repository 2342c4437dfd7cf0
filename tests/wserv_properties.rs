//! Serving-layer invariants:
//!
//! 1. responses are bit-identical with the plan cache on or off and
//!    with any batching factor (and match the sequential oracle);
//! 2. graceful drain loses nothing — every accepted request resolves,
//!    and the books balance (accepted = completed + shed + expired);
//! 3. shedding only ever displaces strictly-lower-priority work.

use dwt::{dwt2d, Boundary, FilterBank, Matrix};
use proptest::prelude::*;
use wserv::sim::{run_sim, CostModel};
use wserv::{
    AdmissionQueue, Admit, DecomposeRequest, Entry, Priority, RejectKind, Rejection, ServiceConfig,
    ShardFaultPlan, WaveletService,
};

fn image(n: usize, salt: u64) -> Matrix {
    Matrix::from_fn(n, n, |r, c| {
        ((r as u64 * 31 + c as u64 * 17 + salt * 7) % 61) as f64 - 30.0
    })
}

/// A deterministic open-loop stream over a small shape pool.
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
        t += -u.ln() / rate; // exponential inter-arrival
        let size = sizes[(next() % sizes.len() as u64) as usize];
        let levels = 1 + (next() % 2) as usize;
        let prio = Priority::ALL[(next() % 3) as usize];
        let req = DecomposeRequest::new(image(size, next() % 97), FilterBank::haar(), levels)
            .with_priority(prio);
        out.push((t, req));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Caching and batching are pure execution strategies: the pyramids
    /// the service returns are bit-identical across {cache on, cache
    /// off} x {batch 1, batch 8}, and equal to the sequential oracle.
    #[test]
    fn responses_bit_identical_across_cache_and_batch(seed in 0u64..1_000_000) {
        let arrivals = stream(40, seed, 5_000.0);
        let cost = CostModel::default();
        let base = ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(256); // ample: no shedding, pure identity check
        let configs = [
            base.clone().with_cache_capacity(8).with_max_batch(8),
            base.clone().with_cache_capacity(0).with_max_batch(8),
            base.clone().with_cache_capacity(8).with_max_batch(1),
            base.clone().with_cache_capacity(0).with_max_batch(1),
        ];
        let runs: Vec<_> = configs
            .iter()
            .map(|c| run_sim(c, &cost, arrivals.clone()))
            .collect();
        for (i, (_, req)) in arrivals.iter().enumerate() {
            let oracle =
                dwt2d::decompose(&req.image, &req.bank, req.levels, Boundary::Periodic).unwrap();
            for run in &runs {
                let resp = run.outcomes[i].as_ref().expect("uncontended run completes all");
                prop_assert_eq!(&resp.pyramid, &oracle);
            }
        }
        // The batching run really batched and the cache really hit —
        // otherwise the identity above is vacuous.
        prop_assert!(runs[0].metrics.cache_hit_rate() > 0.0);
        prop_assert!(runs[1].metrics.cache_hit_rate() == 0.0);
        prop_assert!(runs[2].metrics.mean_batch_occupancy() == 1.0);
    }

    /// The same stream replayed through the simulator twice produces
    /// identical outcomes and identical latency statistics.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..1_000_000) {
        let cfg = ServiceConfig::default().with_shards(3).with_queue_capacity(4);
        let cost = CostModel::default();
        let a = run_sim(&cfg, &cost, stream(60, seed, 50_000.0));
        let b = run_sim(&cfg, &cost, stream(60, seed, 50_000.0));
        prop_assert_eq!(a.makespan_s, b.makespan_s);
        prop_assert_eq!(a.metrics.completed(), b.metrics.completed());
        prop_assert_eq!(
            a.latency_quantile(0.95),
            b.latency_quantile(0.95)
        );
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            match (x, y) {
                (Ok(rx), Ok(ry)) => {
                    prop_assert_eq!(&rx.pyramid, &ry.pyramid);
                    prop_assert_eq!(rx.wait_s, ry.wait_s);
                    prop_assert_eq!(rx.service_s, ry.service_s);
                }
                (Err(ex), Err(ey)) => prop_assert_eq!(ex, ey),
                _ => prop_assert!(false, "outcome kind diverged between replays"),
            }
        }
    }

    /// Accounting closes under overload: every submitted request gets
    /// exactly one outcome, and accepted = completed + shed + expired.
    #[test]
    fn books_balance_under_overload(seed in 0u64..1_000_000) {
        let cfg = ServiceConfig::default().with_shards(2).with_queue_capacity(3);
        // Saturating rate so shedding and queue-full rejections occur.
        let run = run_sim(&cfg, &CostModel::default(), stream(80, seed, 200_000.0));
        prop_assert_eq!(run.outcomes.len(), 80);
        let ok = run.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        let shed = run
            .outcomes
            .iter()
            .filter(|o| matches!(o, Err(Rejection::Shed { .. })))
            .count() as u64;
        prop_assert_eq!(ok, run.metrics.completed());
        prop_assert_eq!(run.metrics.accepted(), ok + shed);
        prop_assert_eq!(shed, run.metrics.rejected(wserv::RejectKind::Shed));
    }

    /// Pure admission-queue property: a shed victim's class is always
    /// strictly below the displacing arrival's, and `QueueFull` is only
    /// returned when nothing strictly lower is queued.
    #[test]
    fn shedding_only_hits_strictly_lower_priority(
        capacity in 1usize..6,
        arrivals in prop::collection::vec(0usize..3, 1..60),
    ) {
        let mut q: AdmissionQueue<usize> = AdmissionQueue::new(capacity);
        let mut queued: Vec<Priority> = Vec::new(); // mirror of queue contents
        let bank = FilterBank::haar();
        for (i, &p) in arrivals.iter().enumerate() {
            let priority = Priority::ALL[p];
            let entry = Entry {
                id: i as u64,
                arrival: i as f64,
                req: DecomposeRequest::new(Matrix::zeros(8, 8), bank.clone(), 1)
                    .with_priority(priority),
                attempts: 0,
                tag: i,
            };
            match q.admit(i as f64, entry) {
                Admit::Accepted => queued.push(priority),
                Admit::AcceptedShedding(victim) => {
                    prop_assert!(
                        victim.req.priority < priority,
                        "shed victim {:?} not strictly below arrival {:?}",
                        victim.req.priority,
                        priority
                    );
                    let pos = queued
                        .iter()
                        .position(|&x| x == victim.req.priority)
                        .expect("victim must have been queued");
                    queued.remove(pos);
                    queued.push(priority);
                }
                Admit::Rejected(_, Rejection::QueueFull { .. }) => {
                    prop_assert!(
                        queued.iter().all(|&x| x >= priority),
                        "QueueFull returned while strictly lower work was queued"
                    );
                }
                Admit::Rejected(_, other) => {
                    prop_assert!(false, "unexpected rejection {:?}", other)
                }
            }
            prop_assert!(queued.len() <= capacity);
        }
    }
}

/// Live-server drain invariant: submit a burst, shut down, and require
/// that every handle resolves to exactly one outcome with the ledger
/// balanced. (Not a proptest: it exercises real threads and wall time.)
#[test]
fn graceful_drain_resolves_every_accepted_request() {
    let service = WaveletService::start(
        ServiceConfig::default()
            .with_shards(3)
            .with_queue_capacity(16)
            .with_cache_capacity(4)
            .with_max_batch(4),
    );
    let mut handles = Vec::new();
    let mut door_rejects = 0u64;
    for i in 0..120u64 {
        let size = [8usize, 16, 32][(i % 3) as usize];
        let req = DecomposeRequest::new(image(size, i), FilterBank::haar(), 1)
            .with_priority(Priority::ALL[(i % 3) as usize]);
        match service.submit(req) {
            Ok(h) => handles.push((i, size, h)),
            Err(_) => door_rejects += 1,
        }
    }
    let snapshot = service
        .shutdown()
        .expect("no worker died in a fault-free run");
    let mut ok = 0u64;
    let mut shed = 0u64;
    for (i, size, h) in handles {
        match h.wait() {
            Ok(resp) => {
                ok += 1;
                let req_img = image(size, i);
                let oracle =
                    dwt2d::decompose(&req_img, &FilterBank::haar(), 1, Boundary::Periodic).unwrap();
                assert_eq!(resp.pyramid, oracle, "request {i} corrupted in flight");
                assert!(resp.batch_size >= 1);
            }
            Err(Rejection::Shed { by }) => {
                shed += 1;
                assert!(by > Priority::Batch, "only a higher class displaces work");
            }
            Err(other) => panic!("unexpected terminal outcome: {other:?}"),
        }
    }
    assert_eq!(ok, snapshot.completed());
    assert_eq!(snapshot.accepted(), ok + shed);
    assert_eq!(shed, snapshot.rejected(wserv::RejectKind::Shed));
    assert_eq!(
        door_rejects,
        snapshot.rejected(wserv::RejectKind::QueueFull)
            + snapshot.rejected(wserv::RejectKind::Draining)
    );
    // The cache did its job across the drain.
    assert!(snapshot.cache_hit_rate() > 0.0);
    assert!(snapshot.budget_report().is_some());
}

/// Lane-books regression: a shard's idle wait is billed once, to
/// ImbalanceWait when `shutdown` closes the books, and not a second
/// time as the next dispatch's DuplicationRedundancy overhead. One shard idles 200 ms,
/// then serves a single request; its six lanes must fit inside its
/// lifetime. (The sleep is the scenario, not a synchronization.)
#[test]
fn idle_time_is_billed_to_one_lane() {
    let service = WaveletService::start(ServiceConfig::default().with_shards(1));
    std::thread::sleep(std::time::Duration::from_millis(200));
    let handle = service
        .submit(DecomposeRequest::new(image(32, 0), FilterBank::haar(), 1))
        .expect("an idle shard admits");
    handle.wait().expect("the request serves");
    let snapshot = service.shutdown().expect("no worker died");
    let lanes = snapshot.shards[0].lanes;
    assert!(
        lanes.duplication < 10e-3,
        "dispatch overhead {:.4}s includes the idle wait",
        lanes.duplication
    );
    let booked = lanes.useful
        + lanes.communication
        + lanes.duplication
        + lanes.unique_redundancy
        + lanes.wait
        + lanes.fault_recovery;
    assert!(
        booked <= lanes.completion + 10e-3,
        "lanes sum to {booked:.4}s on a shard that lived {:.4}s",
        lanes.completion
    );
}

/// One-door regression: the live `submit` settles an admission through
/// the same policy code as the simulator's `arrive`. One shard with a
/// capacity-1 queue, its worker held on a stalled first dispatch; a
/// queued Batch request is shed by an Interactive arrival after a
/// measured wait, then a malformed request knocks. The victim's wasted
/// queue time must land in the FaultRecovery lane and the malformed
/// request on the door books, and `run_sim` fed the same four requests
/// back to back must book the same rejections. (The stall and the sleep
/// are the scenario; the one interleaving that matters — the victim
/// queues only after the worker took the busy request — is forced by
/// probing the door.)
#[test]
fn live_door_books_what_the_sim_books() {
    let config = ServiceConfig::default()
        .with_shards(1)
        .with_queue_capacity(1)
        .with_faults(ShardFaultPlan::none().with_stall(0, 200.0, 0, 1));
    let request =
        |n, salt, levels| DecomposeRequest::new(image(n, salt), FilterBank::haar(), levels);
    let busy = request(256, 0, 1);
    let victim = request(8, 1, 1).with_priority(Priority::Batch);
    let winner = request(8, 2, 1).with_priority(Priority::Interactive);
    let invalid = request(8, 3, 0);

    let service = WaveletService::start(config.clone());
    let busy_handle = service.submit(busy.clone()).expect("an idle shard admits");
    // The one queue slot frees when the worker pops `busy`; until then
    // the door refuses the victim, and every refusal is on the books.
    let mut probes = 0;
    let victim_handle = loop {
        match service.submit(victim.clone()) {
            Ok(handle) => break handle,
            Err(Rejection::QueueFull { .. }) => probes += 1,
            Err(other) => panic!("unexpected door rejection: {other:?}"),
        }
    };
    let queued_by = service.now();
    std::thread::sleep(std::time::Duration::from_millis(2));
    let shed_after = service.now();
    let winner_handle = service
        .submit(winner.clone())
        .expect("an Interactive arrival displaces queued Batch work");
    assert!(matches!(
        service.submit(invalid.clone()),
        Err(Rejection::Invalid { .. })
    ));
    assert!(
        matches!(victim_handle.wait(), Err(Rejection::Shed { by }) if by == Priority::Interactive),
        "the stalled dispatch must outlast the victim's wait"
    );
    busy_handle.wait().expect("the busy request serves");
    winner_handle.wait().expect("the winner serves");
    let live = service.shutdown().expect("no worker died");

    let wasted = live.shards[0].lanes.fault_recovery;
    assert!(
        wasted >= shed_after - queued_by,
        "FaultRecovery lane {wasted:.6}s misses the victim's {:.6}s in the queue",
        shed_after - queued_by
    );
    assert_eq!(live.rejected(RejectKind::Invalid), 1);

    let arrivals = [busy, victim, winner, invalid].into_iter().enumerate();
    let arrivals = arrivals.map(|(i, req)| (i as f64 * 1e-6, req)).collect();
    let sim = run_sim(&config, &CostModel::default(), arrivals).metrics;
    for kind in RejectKind::ALL {
        let probes = u64::from(kind == RejectKind::QueueFull) * probes;
        assert_eq!(live.rejected(kind) - probes, sim.rejected(kind), "{kind:?}");
    }
    assert_eq!(
        (live.accepted(), live.completed()),
        (sim.accepted(), sim.completed())
    );
}
