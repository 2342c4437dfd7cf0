//! Invariants of the elastic sharding layer.
//!
//! Under any seeded workload, with stealing and split/merge enabled:
//!
//! 1. **Exactly-once resolution.** Every submitted request terminates
//!    in exactly one outcome, and the books balance — migration moves
//!    queue entries, never accounting.
//! 2. **Bit-identical responses.** Which shard executes a request must
//!    not change a single bit of its pyramid: elastic and static
//!    layouts agree on every matched response.
//! 3. **Deterministic replay.** The elastic simulator is a pure
//!    function of `(config, stream)`: same seed, byte-identical
//!    outcomes *and* byte-identical `BalanceAction` log.
//! 4. **Failures stay fenced.** A shard mid-failover is never chosen
//!    as a steal target — queued work never migrates onto a corpse.
//! 5. **Strict-priority shedding survives migration.** A shed victim's
//!    class stays strictly below the arrival that displaced it.

use dwt::engine::PlanShape;
use dwt::{dwt2d, Boundary, FilterBank, Matrix, Pyramid};
use proptest::prelude::*;
use wserv::sim::{run_sim, CostModel, SimReport};
use wserv::{
    BalanceAction, DecomposeRequest, ElasticPolicy, Priority, Rejection, ServiceConfig,
    ShardFaultPlan, SupervisorPolicy, WaveletService,
};

fn image(n: usize, salt: u64) -> Matrix {
    Matrix::from_fn(n, n, |r, c| {
        ((r as u64 * 31 + c as u64 * 17 + salt * 7) % 61) as f64 - 30.0
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// An `(image size, levels)` pair whose haar shape routes home to
/// `target` out of `nshards` base shards.
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

/// A deterministic Poisson stream skewed onto `hot` out of `nshards`
/// base shards: ~4 of 5 requests route home to the hot shard, the rest
/// spread uniformly, with mixed priorities. This is the imbalance the
/// controller exists to fix.
fn skewed_stream(
    n_reqs: usize,
    seed: u64,
    rate: f64,
    nshards: usize,
    hot: usize,
) -> Vec<(f64, DecomposeRequest)> {
    let mut state = seed;
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n_reqs);
    for _ in 0..n_reqs {
        let u = ((splitmix(&mut state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        let target = if splitmix(&mut state) % 5 < 4 {
            hot
        } else {
            (splitmix(&mut state) % nshards as u64) as usize
        };
        let (size, levels) = shape_on_shard(target, nshards);
        let prio = Priority::ALL[(splitmix(&mut state) % 3) as usize];
        let req = DecomposeRequest::new(
            image(size, splitmix(&mut state) % 97),
            FilterBank::haar(),
            levels,
        )
        .with_priority(prio);
        out.push((t, req));
    }
    out
}

fn oracle(req: &DecomposeRequest) -> Pyramid {
    dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode).expect("valid request")
}

fn assert_reports_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_eq!(a.metrics.completed(), b.metrics.completed());
    assert_eq!(a.metrics.stolen(), b.metrics.stolen());
    assert_eq!(a.metrics.splits(), b.metrics.splits());
    assert_eq!(a.metrics.merges(), b.metrics.merges());
    assert_eq!(a.actions, b.actions, "BalanceAction log diverged");
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
        match (x, y) {
            (Ok(rx), Ok(ry)) => {
                assert_eq!(rx.pyramid, ry.pyramid, "response bits diverged");
                assert_eq!(rx.wait_s, ry.wait_s);
                assert_eq!(rx.service_s, ry.service_s);
            }
            (Err(ex), Err(ey)) => assert_eq!(ex, ey),
            _ => panic!("outcome kind diverged between replays"),
        }
    }
}

// ---------------------------------------------------------------------
// Directed regressions
// ---------------------------------------------------------------------

/// Skewed load with stealing on actually steals, and the imbalance the
/// budget report charges drops below the static layout's.
#[test]
fn stealing_levels_a_skewed_stream() {
    let nshards = 2;
    let n = 120;
    let stream = || skewed_stream(n, 42, 150_000.0, nshards, 0);
    let static_cfg = ServiceConfig::default()
        .with_shards(nshards)
        .with_queue_capacity(256);
    // Thresholds scaled to the simulator's ~10us/request service
    // times (the defaults target live wall-clock costs).
    let elastic_cfg = static_cfg.clone().with_elastic(ElasticPolicy {
        min_gap_s: 40e-6,
        steal_gap_s: 50e-6,
        ..ElasticPolicy::stealing()
    });
    let cost = CostModel::default();
    let stat = run_sim(&static_cfg, &cost, stream());
    let ela = run_sim(&elastic_cfg, &cost, stream());
    assert!(
        ela.metrics.stolen() > 0,
        "a 4:1 skew must trigger at least one steal, log {:?}",
        ela.actions
    );
    assert!(
        ela.actions
            .iter()
            .any(|(_, a)| matches!(a, BalanceAction::Steal { .. })),
        "the decision log must record the steals"
    );
    assert_eq!(ela.metrics.completed() + shed_count(&ela), n as u64);
    let (si, ei) = (imbalance_pct(&stat), imbalance_pct(&ela));
    assert!(
        ei < si,
        "stealing must reduce imbalance ({ei:.1}% vs static {si:.1}%)"
    );
}

/// Split/merge on a skewed stream activates the reserve shard, retires
/// it once the backlog drains, and loses nothing in either direction.
#[test]
fn split_activates_reserve_and_merge_retires_it() {
    let nshards = 2;
    let n = 160;
    let policy = ElasticPolicy {
        min_gap_s: 40e-6,
        steal_gap_s: 60e-6,
        split_backlog_s: 120e-6,
        merge_backlog_s: 30e-6,
        ..ElasticPolicy::split_merge(1)
    };
    let cfg = ServiceConfig::default()
        .with_shards(nshards)
        .with_queue_capacity(256)
        .with_elastic(policy);
    let run = run_sim(&cfg, &CostModel::default(), {
        skewed_stream(n, 7, 250_000.0, nshards, 0)
    });
    assert!(
        run.metrics.splits() > 0,
        "the hot shard must split onto the reserve, log {:?}",
        run.actions
    );
    assert!(
        run.metrics.merges() > 0,
        "the drained reserve must merge back, log {:?}",
        run.actions
    );
    assert_eq!(
        run.metrics.completed() + shed_count(&run),
        n as u64,
        "split/merge must not lose or duplicate a single request"
    );
    // The activated reserve slot's books are part of the snapshot.
    assert!(run.metrics.shards.len() > nshards);
    let replay = skewed_stream(n, 7, 250_000.0, nshards, 0);
    for (outcome, (_, req)) in run.outcomes.iter().zip(replay.iter()) {
        if let Ok(resp) = outcome {
            assert_eq!(resp.pyramid, oracle(req), "migration corrupted a response");
        }
    }
}

/// The failover fence: a shard that crashes mid-run is never a steal
/// target afterwards — queued work never migrates onto the corpse, and
/// every request still resolves exactly once.
#[test]
fn steal_never_targets_a_crashed_shard() {
    let nshards = 2;
    let victim = 1;
    let n = 100;
    // The *hot* shard is the victim: pre-crash it only ever donates
    // (steals flow hot -> cold), post-crash it is failed and fenced, so
    // any Steal targeting it — ever — is a bug.
    let cfg = ServiceConfig::default()
        .with_shards(nshards)
        .with_queue_capacity(256)
        .with_elastic(ElasticPolicy::stealing())
        .with_supervisor(SupervisorPolicy {
            max_restarts: 0,
            ..SupervisorPolicy::default()
        })
        .with_faults(ShardFaultPlan::none().with_shard_crash(victim, 2));
    let run = run_sim(
        &cfg,
        &CostModel::default(),
        skewed_stream(n, 13, 150_000.0, nshards, victim),
    );
    assert_eq!(run.metrics.failed_shards(), vec![victim]);
    for (t, action) in &run.actions {
        if let BalanceAction::Steal { to, .. } = action {
            assert_ne!(
                *to, victim,
                "t={t}: stole toward the hot/crashed shard {victim}"
            );
        }
    }
    assert_eq!(
        run.metrics.shards[victim].stolen_in, 0,
        "no entry may migrate onto the corpse"
    );
    // Exactly-once through crash + failover + stealing combined.
    assert_eq!(run.outcomes.len(), n);
    let ok = run.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    assert_eq!(ok, run.metrics.completed());
    for outcome in &run.outcomes {
        match outcome {
            Ok(_)
            | Err(
                Rejection::QueueFull { .. }
                | Rejection::Shed { .. }
                | Rejection::ShardFailed { .. }
                | Rejection::Requeued { .. },
            ) => {}
            Err(other) => panic!("untyped loss: {other:?}"),
        }
    }
}

/// The live split/merge setup: two base shards and one reserve slot,
/// with thresholds low enough for the live clock to trip them.
fn live_split_merge() -> WaveletService {
    WaveletService::start(
        ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(128)
            .with_max_batch(4)
            .with_elastic(ElasticPolicy {
                min_gap_s: 0.0,
                steal_gap_s: 50e-6,
                split_backlog_s: 200e-6,
                merge_backlog_s: 50e-6,
                ..ElasticPolicy::split_merge(1)
            }),
    )
}

/// Request `i` of the live elastic workload: a 4:1 skew onto shard 0
/// of 2 — enough pressure to make the controller act under the live
/// clock.
fn live_request(i: u64) -> DecomposeRequest {
    let (size, levels) = shape_on_shard(usize::from(i.is_multiple_of(5)), 2);
    DecomposeRequest::new(image(size, i), FilterBank::haar(), levels)
}

/// The live driver end-to-end with split/merge enabled: every accepted
/// request resolves, the books close over base + activated reserve
/// slots only, and the decision log is exposed.
#[test]
fn live_elastic_service_loses_nothing() {
    let nshards = 2;
    let service = live_split_merge();
    let handles: Vec<_> = (0..80u64)
        .map(|i| (i, service.submit(live_request(i)).expect("queue has room")))
        .collect();
    for (i, h) in handles {
        match h.wait() {
            Ok(resp) => assert_eq!(
                resp.pyramid,
                oracle(&live_request(i)),
                "request {i} corrupted"
            ),
            Err(Rejection::Shed { .. } | Rejection::QueueFull { .. }) => {}
            Err(other) => panic!("request {i}: unexpected {other:?}"),
        }
    }
    let log = service.elastic_log();
    let epoch = service.shard_map_epoch();
    let snapshot = service.shutdown().expect("clean drain");
    // The snapshot covers the base shards plus any activated reserve —
    // never a pristine reserve slot.
    assert!(snapshot.shards.len() >= nshards);
    assert!(snapshot.shards.len() <= nshards + 1);
    let migrated = snapshot.stolen();
    let split_count = snapshot.splits();
    // Whether the controller acted depends on live timing; what must
    // hold is consistency between the log, the map epoch, and books.
    if log.is_empty() {
        assert_eq!(migrated, 0);
        assert_eq!(split_count, 0);
        assert_eq!(epoch, 0, "no decision, no map mutation");
    }
    let ok = snapshot.completed();
    assert!(ok > 0, "the service must actually serve");
}

/// The live driver closes a split-in reserve slot's books the way the
/// simulator does: the slot owes idle time only over its activation
/// windows — from each Split that activated it to the Merge that
/// retired it, or to the end of the run — not for the whole run. Live
/// timing decides whether the controller splits, so up to five
/// services run until one logs a Split; if none does, the test fails
/// rather than pass vacuously.
#[test]
fn live_reserve_slot_owes_idle_time_only_since_its_split() {
    for _ in 0..5 {
        let service = live_split_merge();
        let handles: Vec<_> = (0..80u64)
            .map(|i| service.submit(live_request(i)).expect("queue has room"))
            .collect();
        for h in handles {
            // Shed and QueueFull are legal under the skew; only the
            // books are under test.
            let _ = h.wait();
        }
        let log = service.elastic_log();
        let snapshot = service.shutdown().expect("clean drain");
        // The reserve slot has books only if a Split activated it.
        let Some(reserve) = snapshot.shards.get(2) else {
            continue;
        };
        let (mut active_s, mut since) = (0.0, None);
        for (t, action) in &log {
            match action {
                BalanceAction::Split { to: 2, .. } => since = Some(*t),
                BalanceAction::Merge { from: 2 } => {
                    active_s += t - since.take().expect("a Merge follows a Split");
                }
                _ => {}
            }
        }
        if let Some(t_split) = since {
            active_s += reserve.lanes.completion - t_split;
        }
        let owed = (active_s - reserve.busy_s).max(0.0);
        assert!(
            (reserve.lanes.wait - owed).abs() <= 1e-12,
            "active {active_s} s of {} s: wait {} s, owed {owed} s",
            reserve.lanes.completion,
            reserve.lanes.wait
        );
        return;
    }
    panic!("no live run of five logged a Split");
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

fn shed_count(run: &SimReport) -> u64 {
    run.outcomes
        .iter()
        .filter(|o| matches!(o, Err(Rejection::Shed { .. })))
        .count() as u64
}

fn imbalance_pct(run: &SimReport) -> f64 {
    run.metrics
        .budget_report()
        .expect("completed work yields a budget report")
        .imbalance_pct()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exactly-once books under any seed: every request terminates in
    /// one outcome, completions match the Ok count, and the admission
    /// ledger balances even though entries migrate between queues.
    #[test]
    fn elastic_books_balance_for_any_seed(seed in 0u64..1_000_000) {
        let cfg = ServiceConfig::default()
            .with_shards(3)
            .with_queue_capacity(8)
            .with_elastic(ElasticPolicy::split_merge(1));
        let n = 90;
        let run = run_sim(
            &cfg,
            &CostModel::default(),
            skewed_stream(n, seed, 200_000.0, 3, (seed % 3) as usize),
        );
        prop_assert_eq!(run.outcomes.len(), n);
        let ok = run.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        prop_assert_eq!(ok, run.metrics.completed());
        // Door accounting: accepted entries either complete or are
        // shed; migration must be counter-neutral.
        prop_assert_eq!(run.metrics.accepted(), ok + shed_count(&run));
    }

    /// A shed victim's priority class is strictly below the arrival
    /// that displaced it, elastic migrations notwithstanding.
    #[test]
    fn shedding_stays_strictly_prioritized_under_elastic(seed in 0u64..1_000_000) {
        let cfg = ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(4) // tiny: force shedding
            .with_elastic(ElasticPolicy::stealing());
        let n = 80;
        let stream = skewed_stream(n, seed, 400_000.0, 2, 0);
        let run = run_sim(&cfg, &CostModel::default(), stream.clone());
        for (outcome, (_, req)) in run.outcomes.iter().zip(stream.iter()) {
            if let Err(Rejection::Shed { by }) = outcome {
                prop_assert!(
                    req.priority < *by,
                    "shed victim {:?} not strictly below arrival {:?}",
                    req.priority,
                    by
                );
            }
        }
    }

    /// Elastic placement must not change a single response bit: for
    /// every request served by both layouts, the pyramids are
    /// bit-identical to each other (and to the oracle).
    #[test]
    fn responses_are_bit_identical_to_the_static_layout(seed in 0u64..1_000_000) {
        let static_cfg = ServiceConfig::default()
            .with_shards(3)
            .with_queue_capacity(512); // ample: everything serves
        let elastic_cfg = static_cfg
            .clone()
            .with_elastic(ElasticPolicy::split_merge(1));
        let n = 60;
        let stream = || skewed_stream(n, seed, 150_000.0, 3, (seed % 3) as usize);
        let cost = CostModel::default();
        let stat = run_sim(&static_cfg, &cost, stream());
        let ela = run_sim(&elastic_cfg, &cost, stream());
        prop_assert_eq!(stat.outcomes.len(), ela.outcomes.len());
        for (i, (a, b)) in stat.outcomes.iter().zip(ela.outcomes.iter()).enumerate() {
            let (Ok(ra), Ok(rb)) = (a, b) else {
                panic!("request {i} must serve under both layouts");
            };
            prop_assert_eq!(
                &ra.pyramid, &rb.pyramid,
                "request {} bits diverged between layouts", i
            );
        }
    }

    /// The elastic simulator replays bit-identically from its seed —
    /// outcomes, metrics, and the BalanceAction decision log.
    #[test]
    fn elastic_replay_is_bit_identical(seed in 0u64..1_000_000) {
        let cfg = ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(64)
            .with_elastic(ElasticPolicy {
                split_backlog_s: 500e-6,
                ..ElasticPolicy::split_merge(1)
            });
        let n = 80;
        let stream = || skewed_stream(n, seed, 250_000.0, 2, (seed % 2) as usize);
        let cost = CostModel::default();
        let a = run_sim(&cfg, &cost, stream());
        let b = run_sim(&cfg, &cost, stream());
        assert_reports_identical(&a, &b);
    }
}
