//! Machine-readable serving benchmark: a seeded open-loop load
//! generator drives the `wserv` discrete-event simulator across an
//! arrival-rate x shard-count x cache x batching grid, plus a seeded
//! chaos sweep (worker panics, shard crashes, stalls, poison requests,
//! degraded-mode brownout) through `run_sim`, plus a closed-loop
//! multi-client transport sweep (`transport_results`) through
//! `run_closed_loop` with the wire itself in the loop — framing cost
//! charged to the Communication lane, seeded `WireFaultPlan` resets,
//! truncations, bit flips and stalls — and writes `BENCH_service.json`
//! in the current directory. Every chaos and transport row is checked
//! for the exactly-once invariant: nothing injected loses a request.
//!
//! Every latency and throughput number in those sections is *virtual*
//! (simulated) time: they are a pure function of the seed, and this
//! harness proves it by generating the report twice and comparing the
//! bytes. A final `transport_live` section then runs the same
//! closed-loop workload for real — `RemoteServer` + `RemoteClient`
//! over both the in-memory shim transport and localhost TCP, with the
//! same wire faults and with real worker threads killed mid-load — and
//! reports measured wall-clock tail latency next to the simulator's
//! prediction. Live rows are wall-clock and sit outside the
//! byte-compare; their invariants (exactly-once, zero lost,
//! shim-vs-TCP identical resolution books) are asserted instead.
//!
//! Run from the repo root with `just serve-bench` (or
//! `cargo run --release -p bench --bin bench_service`). Set
//! `WSERV_SMOKE=1` for the downscaled CI mode, which writes
//! `target/BENCH_service_smoke.json` instead and additionally asserts
//! the acceptance conditions on the smaller grid.

use std::time::{Duration, Instant};

use dwt::{dwt2d, FilterBank, Matrix};
use dwt_mimd::CheckpointCodec;
use wserv::progressive::pyramid_max_abs_diff;
use wserv::sim::{
    run_closed_loop, run_sim, ClosedLoopConfig, ClosedLoopReport, CostModel, ProgressiveSim,
    SimReport,
};
use wserv::transport::Connector;
use wserv::{
    DecomposeRequest, DegradedPolicy, ElasticPolicy, MemListener, Priority, RejectKind,
    RemoteClient, RemoteConfig, RemoteMetrics, RemoteServer, RetryPolicy, ServeResult,
    ServiceConfig, ShardFaultPlan, SupervisorPolicy, TcpAcceptor, TcpConnector, WireDir,
    WireFaultPlan,
};

const SEED: u64 = 1996; // the paper's year; any fixed seed works

/// SplitMix64 — the same generator `paragon::faults` seeds from.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        // Strictly positive so ln() is finite.
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// The tenant shape pool: sizes x banks x depths, sixteen plan shapes.
/// The CDF 5/3 and 9/7 entries compile to lifting-kernel plans, so the
/// cache and batch paths exercise both engine kinds under load.
fn shape_pool() -> Vec<(usize, FilterBank, usize)> {
    let haar = FilterBank::haar();
    let d4 = FilterBank::daubechies(4).expect("D4 exists");
    let cdf53 = FilterBank::cdf53();
    let cdf97 = FilterBank::cdf97();
    vec![
        (32, haar.clone(), 1),
        (32, haar.clone(), 2),
        (32, d4.clone(), 1),
        (32, d4.clone(), 2),
        (64, haar.clone(), 1),
        (64, haar, 2),
        (64, d4.clone(), 1),
        (64, d4, 2),
        (32, cdf53.clone(), 1),
        (32, cdf53.clone(), 2),
        (64, cdf53.clone(), 2),
        (96, cdf53, 3),
        (32, cdf97.clone(), 1),
        (64, cdf97.clone(), 2),
        (96, cdf97.clone(), 1),
        (128, cdf97, 3),
    ]
}

fn image(n: usize, salt: u64) -> Matrix {
    Matrix::from_fn(n, n, |r, c| {
        ((r as u64 * 31 + c as u64 * 17 + salt * 7) % 61) as f64 - 30.0
    })
}

/// Seeded open-loop stream: exponential inter-arrivals at `rate_hz`,
/// shapes uniform over the pool, priorities mixed, and a tight deadline
/// on part of the interactive class so the expiry path is exercised.
fn stream(n_reqs: usize, rate_hz: f64) -> Vec<(f64, DecomposeRequest)> {
    let pool = shape_pool();
    let mut rng = SplitMix64(SEED);
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n_reqs);
    for _ in 0..n_reqs {
        t += -rng.unit_f64().ln() / rate_hz;
        let (size, bank, levels) = pool[(rng.next_u64() % pool.len() as u64) as usize].clone();
        let priority = Priority::ALL[(rng.next_u64() % 3) as usize];
        let mut req = DecomposeRequest::new(image(size, rng.next_u64() % 13), bank, levels)
            .with_priority(priority);
        // Loose enough not to censor the p95 comparison at saturation,
        // tight enough that deep overload still trips the expiry path.
        if priority == Priority::Interactive && rng.next_u64().is_multiple_of(2) {
            req = req.with_deadline(t + 5e-3);
        }
        out.push((t, req));
    }
    out
}

struct Cell {
    shards: usize,
    cache_capacity: usize,
    max_batch: usize,
    rate_hz: f64,
    report: SimReport,
}

impl Cell {
    fn p_ms(&self, q: f64) -> f64 {
        self.report.metrics.latency_quantile(q) * 1e3
    }

    fn json(&self) -> String {
        let m = &self.report.metrics;
        let budget = m.budget_report().expect("at least one shard");
        format!(
            concat!(
                "{{\"shards\": {}, \"cache_capacity\": {}, \"max_batch\": {}, ",
                "\"rate_hz\": {}, \"accepted\": {}, \"completed\": {}, ",
                "\"rejected_queue_full\": {}, \"rejected_shed\": {}, ",
                "\"rejected_deadline\": {}, \"cache_hit_rate\": {:.4}, ",
                "\"mean_batch_occupancy\": {:.4}, \"p50_ms\": {:.6}, ",
                "\"p95_ms\": {:.6}, \"p99_ms\": {:.6}, \"throughput_hz\": {:.3}, ",
                "\"makespan_s\": {:.9}, \"useful_pct\": {:.3}, \"imbalance_pct\": {:.3}}}"
            ),
            self.shards,
            self.cache_capacity,
            self.max_batch,
            self.rate_hz,
            m.accepted(),
            m.completed(),
            m.rejected(RejectKind::QueueFull),
            m.rejected(RejectKind::Shed),
            m.rejected(RejectKind::DeadlineExpired),
            m.cache_hit_rate(),
            m.mean_batch_occupancy(),
            self.p_ms(0.50),
            self.p_ms(0.95),
            self.p_ms(0.99),
            self.report.throughput(),
            self.report.makespan_s,
            budget.useful_pct(),
            budget.imbalance_pct(),
        )
    }
}

fn sweep(n_reqs: usize, shard_grid: &[usize], rates: &[f64]) -> Vec<Cell> {
    let cost = CostModel::default();
    let mut cells = Vec::new();
    for &shards in shard_grid {
        for &(cache_capacity, max_batch) in &[(16usize, 8usize), (0, 8), (16, 1), (0, 1)] {
            for &rate_hz in rates {
                let cfg = ServiceConfig::default()
                    .with_shards(shards)
                    .with_queue_capacity(64)
                    .with_cache_capacity(cache_capacity)
                    .with_max_batch(max_batch);
                let report = run_sim(&cfg, &cost, stream(n_reqs, rate_hz));
                let cell = Cell {
                    shards,
                    cache_capacity,
                    max_batch,
                    rate_hz,
                    report,
                };
                eprintln!(
                    "shards={shards} cache={cache_capacity:<2} batch={max_batch} \
                     rate={rate_hz:<8} p95={:.3}ms tput={:.0}/s hit={:.2}",
                    cell.p_ms(0.95),
                    cell.report.throughput(),
                    cell.report.metrics.cache_hit_rate()
                );
                cells.push(cell);
            }
        }
    }
    cells
}

/// Seeded chaos scenarios for the fault-tolerance sweep: every plan is a
/// pure function of `SEED`, so the rows reproduce byte for byte. The
/// grid covers each injected fault kind in isolation plus one combined
/// brownout, all on the same three-shard service.
fn chaos_scenarios() -> Vec<(&'static str, ServiceConfig)> {
    let base = || {
        ServiceConfig::default()
            .with_shards(3)
            .with_queue_capacity(64)
            .with_cache_capacity(16)
            .with_max_batch(4)
    };
    vec![
        ("fault_free", base()),
        (
            "worker_panic",
            base().with_faults(ShardFaultPlan::seeded(SEED).with_worker_panic(0, 3)),
        ),
        (
            "shard_crash_failover",
            base()
                .with_faults(ShardFaultPlan::seeded(SEED).with_shard_crash(0, 0))
                .with_supervisor(SupervisorPolicy {
                    max_restarts: 2,
                    ..SupervisorPolicy::default()
                }),
        ),
        (
            "poison_quarantine",
            base().with_faults(ShardFaultPlan::seeded(SEED).with_poison_rate(0.05)),
        ),
        (
            "stall_window",
            base().with_faults(ShardFaultPlan::seeded(SEED).with_stall(1, 3.0, 0, 40)),
        ),
        (
            "degraded_brownout",
            base()
                .with_faults(ShardFaultPlan::seeded(SEED).with_shard_crash(2, 0))
                .with_supervisor(SupervisorPolicy {
                    max_restarts: 1,
                    ..SupervisorPolicy::default()
                })
                .with_degraded(DegradedPolicy::default()),
        ),
        (
            "combined",
            base()
                .with_faults(
                    ShardFaultPlan::seeded(SEED)
                        .with_shard_crash(0, 2)
                        .with_worker_panic(1, 5)
                        .with_stall(2, 2.0, 0, 30)
                        .with_poison_rate(0.02),
                )
                .with_supervisor(SupervisorPolicy {
                    max_restarts: 1,
                    ..SupervisorPolicy::default()
                })
                .with_degraded(DegradedPolicy::default()),
        ),
    ]
}

struct ChaosCell {
    scenario: &'static str,
    shards: usize,
    rate_hz: f64,
    requests: usize,
    report: SimReport,
}

impl ChaosCell {
    /// The chaos invariant, asserted on every generated row: each
    /// submitted request resolves exactly once (completed, typed
    /// rejection, or bounded-error degraded response) — injected crashes
    /// lose nothing.
    fn assert_nothing_lost(&self) {
        let m = &self.report.metrics;
        assert_eq!(
            self.report.outcomes.len(),
            self.requests,
            "{}: every request must have a terminal outcome",
            self.scenario
        );
        let ok = self.report.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        assert_eq!(
            ok,
            m.completed(),
            "{}: completions must match Ok outcomes",
            self.scenario
        );
        let rejected: u64 = RejectKind::ALL.iter().map(|&k| m.rejected(k)).sum();
        assert_eq!(
            ok + rejected,
            self.requests as u64,
            "{}: lost requests (completed {} + rejected {} != submitted {})",
            self.scenario,
            ok,
            rejected,
            self.requests
        );
        let degraded = self
            .report
            .outcomes
            .iter()
            .filter(|o| o.as_ref().is_ok_and(|r| r.degraded))
            .count() as u64;
        assert_eq!(
            degraded,
            m.degraded_served(),
            "{}: degraded counter must match degraded Ok outcomes",
            self.scenario
        );
    }

    fn json(&self) -> String {
        let m = &self.report.metrics;
        let budget = m.budget_report().expect("at least one shard");
        let failed: Vec<String> = m.failed_shards().iter().map(|s| s.to_string()).collect();
        let rejected_total: u64 = RejectKind::ALL.iter().map(|&k| m.rejected(k)).sum();
        format!(
            concat!(
                "{{\"scenario\": \"{}\", \"shards\": {}, \"rate_hz\": {}, ",
                "\"requests\": {}, \"completed\": {}, \"degraded_served\": {}, ",
                "\"restarts\": {}, \"requeued\": {}, \"quarantined\": {}, ",
                "\"rejected_total\": {}, ",
                "\"rejected_shard_failed\": {}, \"rejected_requeued\": {}, ",
                "\"rejected_deadline\": {}, \"failed_shards\": [{}], ",
                "\"p95_ms\": {:.6}, \"throughput_hz\": {:.3}, ",
                "\"makespan_s\": {:.9}, \"fault_recovery_pct\": {:.3}}}"
            ),
            self.scenario,
            self.shards,
            self.rate_hz,
            self.requests,
            m.completed(),
            m.degraded_served(),
            m.restarts(),
            m.requeued(),
            m.quarantined(),
            rejected_total,
            m.rejected(RejectKind::ShardFailed),
            m.rejected(RejectKind::Requeued),
            m.rejected(RejectKind::DeadlineExpired),
            failed.join(", "),
            m.latency_quantile(0.95) * 1e3,
            self.report.throughput(),
            self.report.makespan_s,
            budget.fault_pct(),
        )
    }
}

fn chaos_sweep(n_reqs: usize, rate_hz: f64) -> Vec<ChaosCell> {
    let cost = CostModel::default();
    let mut cells = Vec::new();
    for (scenario, cfg) in chaos_scenarios() {
        let report = run_sim(&cfg, &cost, stream(n_reqs, rate_hz));
        let cell = ChaosCell {
            scenario,
            shards: 3,
            rate_hz,
            requests: n_reqs,
            report,
        };
        cell.assert_nothing_lost();
        let m = &cell.report.metrics;
        eprintln!(
            "chaos {scenario:<20} completed={:<4} degraded={:<3} restarts={} \
             requeued={:<3} failed_shards={:?}",
            m.completed(),
            m.degraded_served(),
            m.restarts(),
            m.requeued(),
            m.failed_shards()
        );
        cells.push(cell);
    }
    cells
}

/// Spot checks that the chaos grid exercises what it claims to: the
/// failover scenario loses a shard yet strands nothing, and the
/// brownout scenario actually serves bounded-error responses.
fn assert_chaos_coverage(cells: &[ChaosCell]) {
    let find = |name: &str| -> &ChaosCell {
        cells
            .iter()
            .find(|c| c.scenario == name)
            .expect("scenario present in the chaos grid")
    };
    let fault_free = find("fault_free");
    assert_eq!(
        fault_free.report.metrics.failed_shards(),
        Vec::<usize>::new()
    );
    assert_eq!(fault_free.report.metrics.restarts(), 0);
    let failover = find("shard_crash_failover");
    assert!(
        !failover.report.metrics.failed_shards().is_empty(),
        "crash scenario must exhaust the restart budget"
    );
    assert!(failover.report.metrics.restarts() > 0);
    let brownout = find("degraded_brownout");
    assert!(
        brownout.report.metrics.degraded_served() > 0,
        "brownout scenario must serve degraded responses"
    );
    let panicked = find("worker_panic");
    assert!(panicked.report.metrics.restarts() > 0);
    assert_eq!(panicked.report.metrics.failed_shards(), Vec::<usize>::new());
    let poisoned = find("poison_quarantine");
    assert!(poisoned.report.metrics.quarantined() > 0);
}

/// Per-client request streams for the closed-loop sweeps, flattened
/// `client * reqs_per_client + k`. Deadline-free on purpose: the live
/// comparison needs outcomes that do not depend on wall-clock timing,
/// so the shim and TCP resolution books can be asserted identical.
fn closed_requests(clients: usize, reqs_per_client: usize) -> Vec<DecomposeRequest> {
    let pool = shape_pool();
    let mut out = Vec::with_capacity(clients * reqs_per_client);
    for c in 0..clients {
        let mut rng = SplitMix64(SEED ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for _ in 0..reqs_per_client {
            let (size, bank, levels) = pool[(rng.next_u64() % pool.len() as u64) as usize].clone();
            let priority = Priority::ALL[(rng.next_u64() % 3) as usize];
            out.push(
                DecomposeRequest::new(image(size, rng.next_u64() % 13), bank, levels)
                    .with_priority(priority),
            );
        }
    }
    out
}

/// The literal wire-fault schedule shared by the deterministic sweep
/// and the live drivers. Coordinates are `(conn = client id, dir,
/// cumulative frame index)`: frame 0 each way is the handshake, so the
/// client-to-server reset at frame 2 kills client 0's second request
/// mid-frame, and the server-to-client bit flip at frame 2 corrupts
/// client 2's second response — which the client recovers via
/// resubmit + dedup replay, never re-execution.
fn wire_chaos_plan() -> WireFaultPlan {
    WireFaultPlan::seeded(SEED)
        .with_reset(0, WireDir::ClientToServer, 2)
        .with_truncate(1, WireDir::ClientToServer, 4)
        .with_bitflip(2, WireDir::ServerToClient, 2)
        .with_stall(1, WireDir::ServerToClient, 3, 4e-3)
}

/// The shard-fault schedule for the failover-under-load scenarios:
/// shard 0's worker is killed once mid-load (supervised restart),
/// shard 1 crashes permanently and fails over to the survivors.
fn kill_plan() -> ShardFaultPlan {
    ShardFaultPlan::seeded(SEED)
        .with_worker_panic(0, 1)
        .with_shard_crash(1, 2)
}

/// Base service shape for every closed-loop scenario: three shards so
/// one can die and two survive, a queue deep enough that closed-loop
/// admission never rejects.
fn closed_loop_service(faults: ShardFaultPlan) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(3)
        .with_queue_capacity(64)
        .with_cache_capacity(16)
        .with_max_batch(4)
        .with_faults(faults)
        .with_supervisor(SupervisorPolicy {
            max_restarts: 1,
            ..SupervisorPolicy::default()
        })
}

/// Deterministic closed-loop transport scenarios.
fn transport_scenarios() -> Vec<(&'static str, ServiceConfig, WireFaultPlan)> {
    vec![
        (
            "clean_wire",
            closed_loop_service(ShardFaultPlan::none()),
            WireFaultPlan::none(),
        ),
        (
            "wire_chaos",
            closed_loop_service(ShardFaultPlan::none()),
            wire_chaos_plan(),
        ),
        (
            "flip_rate",
            closed_loop_service(ShardFaultPlan::none()),
            WireFaultPlan::seeded(SEED).with_flip_rate(0.01),
        ),
        (
            "failover_under_load",
            closed_loop_service(kill_plan()),
            wire_chaos_plan(),
        ),
    ]
}

struct TransportCell {
    scenario: &'static str,
    clients: usize,
    reqs_per_client: usize,
    report: ClosedLoopReport,
}

impl TransportCell {
    fn requests(&self) -> usize {
        self.clients * self.reqs_per_client
    }

    /// The transport exactly-once invariant: every request terminates
    /// at its client exactly once, and with the literal fault plans
    /// and default retry budget nothing is lost to the wire either.
    fn assert_nothing_lost(&self) {
        assert_eq!(
            self.report.outcomes.len(),
            self.requests(),
            "{}: every request must terminate at its client",
            self.scenario
        );
        let delivered = self.report.outcomes.iter().filter(|o| o.is_ok()).count();
        let given_up = self.requests() - delivered;
        assert_eq!(
            given_up, 0,
            "{}: the retry budget must cover the fault plan (lost {given_up})",
            self.scenario
        );
        // Deadline-free closed-loop traffic under a shallow queue never
        // rejects: every delivered outcome is a served response.
        let served = self
            .report
            .outcomes
            .iter()
            .filter(|o| matches!(o, Ok(Ok(_))))
            .count();
        assert_eq!(
            served,
            self.requests(),
            "{}: closed-loop requests must all serve",
            self.scenario
        );
    }

    fn p_ms(&self, q: f64) -> f64 {
        self.report.latency.quantile(q) * 1e3
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"scenario\": \"{}\", \"clients\": {}, \"reqs_per_client\": {}, ",
                "\"delivered\": {}, \"retries\": {}, \"replays\": {}, \"frames\": {}, ",
                "\"p50_ms\": {:.6}, \"p95_ms\": {:.6}, \"p99_ms\": {:.6}, ",
                "\"comm_ms\": {:.6}, \"fault_recovery_ms\": {:.6}, ",
                "\"throughput_hz\": {:.3}, \"makespan_s\": {:.9}}}"
            ),
            self.scenario,
            self.clients,
            self.reqs_per_client,
            self.report.outcomes.iter().filter(|o| o.is_ok()).count(),
            self.report.retries,
            self.report.replays,
            self.report.frames,
            self.p_ms(0.50),
            self.p_ms(0.95),
            self.p_ms(0.99),
            self.report.comm_s * 1e3,
            self.report.fault_recovery_s * 1e3,
            self.report.throughput(),
            self.report.makespan_s,
        )
    }
}

fn transport_sweep(clients: usize, reqs_per_client: usize) -> Vec<TransportCell> {
    let cost = CostModel::default();
    let mut cells = Vec::new();
    for (scenario, cfg, wire_faults) in transport_scenarios() {
        let cl = ClosedLoopConfig {
            clients,
            reqs_per_client,
            wire_faults,
            ..ClosedLoopConfig::default()
        };
        let report = run_closed_loop(&cfg, &cost, &cl, closed_requests(clients, reqs_per_client));
        let cell = TransportCell {
            scenario,
            clients,
            reqs_per_client,
            report,
        };
        cell.assert_nothing_lost();
        eprintln!(
            "transport {scenario:<20} delivered={:<3} retries={:<2} replays={:<2} \
             frames={:<4} p99={:.3}ms comm={:.3}ms",
            cell.report.outcomes.iter().filter(|o| o.is_ok()).count(),
            cell.report.retries,
            cell.report.replays,
            cell.report.frames,
            cell.p_ms(0.99),
            cell.report.comm_s * 1e3,
        );
        cells.push(cell);
    }
    cells
}

/// Spot checks that the transport grid exercises what it claims to.
fn assert_transport_coverage(cells: &[TransportCell]) {
    let find = |name: &str| -> &TransportCell {
        cells
            .iter()
            .find(|c| c.scenario == name)
            .expect("scenario present in the transport grid")
    };
    let clean = find("clean_wire");
    assert_eq!(clean.report.retries, 0, "a clean wire never retries");
    assert_eq!(clean.report.replays, 0);
    assert!(clean.report.comm_s > 0.0, "framing cost must be charged");
    let chaos = find("wire_chaos");
    assert!(chaos.report.retries > 0, "wire chaos must force retries");
    assert!(
        chaos.report.replays > 0,
        "a response-path fault must recover via dedup replay"
    );
    assert!(
        chaos.report.fault_recovery_s > 0.0,
        "fault handling must be charged to the FaultRecovery lane"
    );
    let failover = find("failover_under_load");
    assert!(
        !failover.report.metrics.failed_shards().is_empty(),
        "the failover scenario must actually lose a shard"
    );
    assert!(failover.report.metrics.restarts() > 0);
    assert!(
        failover.p_ms(0.99) >= clean.p_ms(0.99),
        "killing workers mid-load cannot improve the p99 tail"
    );
}

// ---------------------------------------------------------------------
// Progressive delivery: bytes-to-tolerance vs monolithic
// ---------------------------------------------------------------------

/// The detail-plane codec every lossy progressive scenario shares:
/// `threshold + step / 2 = 0.5` of absolute per-coefficient tolerance.
fn lossy_codec() -> CheckpointCodec {
    CheckpointCodec::WaveletQuant {
        threshold: 0.25,
        step: 0.5,
    }
}

/// Deterministic progressive scenarios over the same closed-loop
/// workload: a monolithic baseline, lossless streaming (must stay
/// bitwise), lossy streaming (must shrink the wire), tolerance-met
/// cancellation (must shrink it further), cancellation under the
/// literal wire-chaos plan (must stay exactly-once), and a hard byte
/// budget (must bound the wire regardless of tolerance).
fn progressive_scenarios() -> Vec<(&'static str, Option<ProgressiveSim>, WireFaultPlan)> {
    vec![
        ("monolithic", None, WireFaultPlan::none()),
        (
            "progressive_lossless",
            Some(ProgressiveSim {
                codec: CheckpointCodec::Raw,
                tolerance: None,
                byte_budget: None,
            }),
            WireFaultPlan::none(),
        ),
        (
            "progressive_lossy",
            Some(ProgressiveSim {
                codec: lossy_codec(),
                tolerance: None,
                byte_budget: None,
            }),
            WireFaultPlan::none(),
        ),
        (
            "tolerance_cancel",
            Some(ProgressiveSim {
                codec: lossy_codec(),
                tolerance: Some(30.0),
                byte_budget: None,
            }),
            WireFaultPlan::none(),
        ),
        (
            "tolerance_cancel_chaos",
            Some(ProgressiveSim {
                codec: lossy_codec(),
                tolerance: Some(30.0),
                byte_budget: None,
            }),
            wire_chaos_plan(),
        ),
        (
            "byte_budget",
            Some(ProgressiveSim {
                codec: lossy_codec(),
                tolerance: None,
                byte_budget: Some(4096),
            }),
            WireFaultPlan::none(),
        ),
    ]
}

struct ProgressiveCell {
    scenario: &'static str,
    clients: usize,
    reqs_per_client: usize,
    progressive: Option<ProgressiveSim>,
    report: ClosedLoopReport,
}

impl ProgressiveCell {
    fn requests(&self) -> usize {
        self.clients * self.reqs_per_client
    }

    /// Largest reported error bound across delivered responses.
    fn max_error_bound(&self) -> f64 {
        self.report
            .outcomes
            .iter()
            .filter_map(|o| match o {
                Ok(Ok(r)) => Some(r.error_bound),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    fn savings_pct(&self) -> f64 {
        if self.report.monolithic_bytes == 0 {
            return 0.0;
        }
        (1.0 - self.report.response_bytes as f64 / self.report.monolithic_bytes as f64) * 100.0
    }

    fn p_ms(&self, q: f64) -> f64 {
        self.report.latency.quantile(q) * 1e3
    }

    fn json(&self) -> String {
        let (threshold, step, tolerance, budget) = match &self.progressive {
            None => (0.0, 0.0, "null".to_string(), "null".to_string()),
            Some(p) => {
                let (t, s) = match p.codec {
                    CheckpointCodec::Raw => (0.0, 0.0),
                    CheckpointCodec::WaveletQuant { threshold, step } => (threshold, step),
                };
                (
                    t,
                    s,
                    p.tolerance.map_or("null".into(), |v| format!("{v}")),
                    p.byte_budget.map_or("null".into(), |v| format!("{v}")),
                )
            }
        };
        format!(
            concat!(
                "{{\"scenario\": \"{}\", \"clients\": {}, \"reqs_per_client\": {}, ",
                "\"delivered\": {}, \"threshold\": {}, \"step\": {}, ",
                "\"tolerance\": {}, \"byte_budget\": {}, \"planes\": {}, \"cancels\": {}, ",
                "\"budget_stops\": {}, ",
                "\"response_bytes\": {}, \"monolithic_bytes\": {}, ",
                "\"savings_pct\": {:.3}, \"max_error_bound\": {:.6}, ",
                "\"p50_ms\": {:.6}, \"p95_ms\": {:.6}, \"p99_ms\": {:.6}, ",
                "\"comm_ms\": {:.6}, \"throughput_hz\": {:.3}, \"makespan_s\": {:.9}}}"
            ),
            self.scenario,
            self.clients,
            self.reqs_per_client,
            self.report.outcomes.iter().filter(|o| o.is_ok()).count(),
            threshold,
            step,
            tolerance,
            budget,
            self.report.planes,
            self.report.cancels,
            self.report.budget_stops,
            self.report.response_bytes,
            self.report.monolithic_bytes,
            self.savings_pct(),
            self.max_error_bound(),
            self.p_ms(0.50),
            self.p_ms(0.95),
            self.p_ms(0.99),
            self.report.comm_s * 1e3,
            self.report.throughput(),
            self.report.makespan_s,
        )
    }
}

fn progressive_sweep(clients: usize, reqs_per_client: usize) -> Vec<ProgressiveCell> {
    let cost = CostModel::default();
    let mut cells = Vec::new();
    for (scenario, progressive, wire_faults) in progressive_scenarios() {
        let cl = ClosedLoopConfig {
            clients,
            reqs_per_client,
            wire_faults,
            progressive,
            ..ClosedLoopConfig::default()
        };
        let report = run_closed_loop(
            &closed_loop_service(ShardFaultPlan::none()),
            &cost,
            &cl,
            closed_requests(clients, reqs_per_client),
        );
        let cell = ProgressiveCell {
            scenario,
            clients,
            reqs_per_client,
            progressive,
            report,
        };
        eprintln!(
            "progressive {scenario:<23} delivered={:<3} planes={:<4} cancels={:<3} \
             resp_B={:<7} mono_B={:<7} savings={:.1}% bound={:.3}",
            cell.report.outcomes.iter().filter(|o| o.is_ok()).count(),
            cell.report.planes,
            cell.report.cancels,
            cell.report.response_bytes,
            cell.report.monolithic_bytes,
            cell.savings_pct(),
            cell.max_error_bound(),
        );
        cells.push(cell);
    }
    cells
}

/// The progressive acceptance checks, on every generated grid:
///
/// * nothing is ever lost: every request terminates at its client, in
///   every scenario, cancels and chaos included;
/// * lossless streaming is *bitwise*: each delivered pyramid equals the
///   monolithic baseline's for the same request, with a zero bound;
/// * every reported error bound is honest against the local engine
///   oracle (`actual max-abs error <= bound`);
/// * lossy streaming beats the monolithic counterfactual on response
///   bytes, and tolerance-met cancellation beats plain lossy.
fn assert_progressive_coverage(cells: &[ProgressiveCell]) {
    let find = |name: &str| -> &ProgressiveCell {
        cells
            .iter()
            .find(|c| c.scenario == name)
            .expect("scenario present in the progressive grid")
    };
    for cell in cells {
        assert_eq!(
            cell.report.outcomes.len(),
            cell.requests(),
            "{}: every request must terminate at its client",
            cell.scenario
        );
        let served = cell
            .report
            .outcomes
            .iter()
            .filter(|o| matches!(o, Ok(Ok(_))))
            .count();
        assert_eq!(
            served,
            cell.requests(),
            "{}: closed-loop requests must all serve",
            cell.scenario
        );
    }

    let mono = find("monolithic");
    assert_eq!(mono.report.planes, 0);
    assert_eq!(mono.report.cancels, 0);

    // Lossless streaming: bitwise against the monolithic baseline.
    let lossless = find("progressive_lossless");
    assert!(lossless.report.planes > 0, "responses must actually stream");
    assert_eq!(lossless.report.cancels, 0, "no tolerance, no cancels");
    for (i, (a, b)) in mono
        .report
        .outcomes
        .iter()
        .zip(lossless.report.outcomes.iter())
        .enumerate()
    {
        let (Ok(Ok(ra)), Ok(Ok(rb))) = (a, b) else {
            panic!("request {i} must serve in both runs");
        };
        assert_eq!(
            ra.pyramid, rb.pyramid,
            "request {i}: lossless streaming must be bitwise"
        );
        assert_eq!(rb.error_bound, 0.0);
    }

    // Every reported bound is honest against the engine oracle.
    let requests = closed_requests(mono.clients, mono.reqs_per_client);
    for cell in cells {
        for (req, out) in requests.iter().zip(cell.report.outcomes.iter()) {
            let Ok(Ok(resp)) = out else { continue };
            let oracle = dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
                .expect("pool geometry is valid");
            let actual =
                pyramid_max_abs_diff(&resp.pyramid, &oracle).expect("geometry matches the oracle");
            assert!(
                actual <= resp.error_bound,
                "{}: actual error {actual} exceeds the reported bound {}",
                cell.scenario,
                resp.error_bound
            );
        }
    }

    // Bytes-to-tolerance: quantization shrinks the wire, cancellation
    // shrinks it further, and the tolerance is respected.
    let lossy = find("progressive_lossy");
    assert!(
        lossy.report.response_bytes < lossy.report.monolithic_bytes,
        "lossy streaming must beat the monolithic counterfactual \
         ({} vs {} bytes)",
        lossy.report.response_bytes,
        lossy.report.monolithic_bytes
    );
    let cancel = find("tolerance_cancel");
    assert!(
        cancel.report.cancels > 0,
        "a 30.0 tolerance on this imagery must cancel at least once"
    );
    assert!(
        cancel.report.response_bytes < lossy.report.response_bytes,
        "cancellation must save bytes over reading every plane \
         ({} vs {} bytes)",
        cancel.report.response_bytes,
        lossy.report.response_bytes
    );
    let chaos = find("tolerance_cancel_chaos");
    assert!(
        chaos.report.retries > 0,
        "the chaos plan must force at least one retry"
    );
    // The byte budget is the second cancel predicate: every delivery
    // still terminates, the budget cuts are surfaced, and the wire
    // carries less than reading every plane would.
    let budget = find("byte_budget");
    assert!(
        budget.report.budget_stops > 0,
        "a 4 KiB budget on this imagery must stop at least one sequence"
    );
    assert_eq!(
        budget.report.budget_stops, budget.report.cancels,
        "with no tolerance every cancel here is a budget stop"
    );
    assert!(
        budget.report.response_bytes < lossy.report.response_bytes,
        "a byte budget must save wire over reading every plane \
         ({} vs {} bytes)",
        budget.report.response_bytes,
        lossy.report.response_bytes
    );

    eprintln!(
        "progressive acceptance: lossless bitwise over {} responses, \
         lossy saves {:.1}%, cancel saves {:.1}%",
        mono.requests(),
        lossy.savings_pct(),
        cancel.savings_pct(),
    );
}

// ---------------------------------------------------------------------
// Live closed-loop mode: real server, real sockets, real worker kills
// ---------------------------------------------------------------------

/// Stable label of a client-observed service outcome, the currency of
/// the cross-transport resolution-book comparison.
fn outcome_label(res: &ServeResult) -> String {
    match res {
        Ok(r) if r.degraded => "ok_degraded".into(),
        Ok(_) => "ok".into(),
        Err(rej) => rej.kind().label().into(),
    }
}

struct LiveRun {
    /// `(client, request index, outcome label)`, sorted — the
    /// resolution book as the clients observed it.
    book: Vec<(u64, u64, String)>,
    /// Client-observed wall-clock latencies, seconds.
    latency: wserv::Histogram,
    metrics: RemoteMetrics,
    client_retries: u64,
    /// Wall seconds of serialization + framing across both sides.
    comm_s: f64,
    elapsed_s: f64,
}

/// Drive `clients` real closed-loop clients against a `RemoteServer`
/// over the chosen transport, with the service's `ShardFaultPlan`
/// killing real worker threads mid-load and `wire` faulting both
/// directions of every connection.
fn live_closed_loop(
    tcp: bool,
    clients: usize,
    reqs_per_client: usize,
    service: ServiceConfig,
    wire: WireFaultPlan,
) -> LiveRun {
    let tick = Duration::from_millis(1);
    let remote = RemoteConfig {
        wire_faults: wire.clone(),
        ..RemoteConfig::default()
    };
    let (server, dial): (
        RemoteServer,
        Box<dyn Fn() -> Box<dyn Connector> + Send + Sync>,
    ) = if tcp {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0", tick).expect("bind localhost");
        let addr = acceptor.local_addr();
        (
            RemoteServer::start(service, remote, Box::new(acceptor)).expect("server starts"),
            Box::new(move || Box::new(TcpConnector { addr, tick })),
        )
    } else {
        let listener = MemListener::new(1 << 16, tick);
        let peer = listener.clone();
        (
            RemoteServer::start(service, remote, Box::new(listener)).expect("server starts"),
            Box::new(move || Box::new(peer.clone())),
        )
    };

    let requests = closed_requests(clients, reqs_per_client);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let stream: Vec<DecomposeRequest> =
            requests[c * reqs_per_client..(c + 1) * reqs_per_client].to_vec();
        let connector = dial();
        let plan = wire.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = RemoteClient::new(connector, c as u64)
                .with_faults(plan)
                .with_retry(RetryPolicy::default())
                .with_response_timeout(Duration::from_secs(10));
            let mut lat = Vec::with_capacity(stream.len());
            let mut book = Vec::with_capacity(stream.len());
            for (k, req) in stream.iter().enumerate() {
                let t0 = Instant::now();
                let res = client
                    .call(req)
                    .expect("the retry budget covers the fault plan");
                lat.push(t0.elapsed().as_secs_f64());
                book.push((c as u64, k as u64, outcome_label(&res)));
            }
            client.goodbye();
            (lat, book, client.transport, client.retries)
        }));
    }
    let mut latency = wserv::Histogram::default();
    let mut book = Vec::new();
    let mut client_retries = 0u64;
    let mut comm_s = 0.0;
    for h in handles {
        let (lat, b, transport, retries) = h.join().expect("client threads never panic");
        for v in lat {
            latency.record(v);
        }
        book.extend(b);
        client_retries += retries;
        comm_s += transport.ser_s;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let metrics = server.shutdown().expect("graceful drain succeeds");
    comm_s += metrics.transport.ser_s;
    book.sort();
    LiveRun {
        book,
        latency,
        metrics,
        client_retries,
        comm_s,
        elapsed_s,
    }
}

/// Run the live closed-loop comparison over both transports, assert
/// its invariants, and return the `transport_live` JSON rows (outside
/// the byte-compare: these are wall-clock numbers).
fn live_rows(clients: usize, reqs_per_client: usize, prediction: &ClosedLoopReport) -> String {
    let total = (clients * reqs_per_client) as u64;
    let mut rows = Vec::new();
    let mut books = Vec::new();
    for (transport, tcp) in [("shim", false), ("tcp", true)] {
        let run = live_closed_loop(
            tcp,
            clients,
            reqs_per_client,
            closed_loop_service(kill_plan()),
            wire_chaos_plan(),
        );
        // Exactly-once under real worker kills: the service resolved
        // every distinct request once — retried ids were answered from
        // the resolution book, not re-executed.
        assert_eq!(
            run.book.len() as u64,
            total,
            "{transport}: every request must terminate at its client"
        );
        assert_eq!(
            run.metrics.service.completed(),
            total,
            "{transport}: deadline-free closed-loop requests must all serve exactly once"
        );
        assert!(
            run.book.iter().all(|(_, _, label)| label == "ok"),
            "{transport}: failover must be lossless for closed-loop traffic"
        );
        assert!(
            run.metrics.transport.dedup_replays >= 1,
            "{transport}: the response-path fault must be recovered via dedup replay"
        );
        assert!(
            run.metrics.service.restarts() > 0,
            "{transport}: the worker-kill plan must actually kill a worker"
        );
        assert!(
            !run.metrics.service.failed_shards().is_empty(),
            "{transport}: the crash plan must actually fail a shard over"
        );
        eprintln!(
            "live {transport:<4} p99={:.3}ms (sim predicts {:.3}ms) replays={} \
             resets={} aborted={} retries={} elapsed={:.3}s",
            run.latency.quantile(0.99) * 1e3,
            prediction.latency.quantile(0.99) * 1e3,
            run.metrics.transport.dedup_replays,
            run.metrics.transport.conn_reset,
            run.metrics.transport.conn_aborted,
            run.client_retries,
            run.elapsed_s,
        );
        rows.push(format!(
            concat!(
                "{{\"transport\": \"{}\", \"scenario\": \"failover_under_load\", ",
                "\"clients\": {}, \"reqs_per_client\": {}, \"completed\": {}, ",
                "\"p50_ms\": {:.6}, \"p95_ms\": {:.6}, \"p99_ms\": {:.6}, ",
                "\"sim_p50_ms\": {:.6}, \"sim_p95_ms\": {:.6}, \"sim_p99_ms\": {:.6}, ",
                "\"comm_ms\": {:.6}, \"dedup_replays\": {}, \"conn_reset\": {}, ",
                "\"conn_aborted\": {}, \"client_retries\": {}, \"restarts\": {}, ",
                "\"failed_shards\": {}, \"elapsed_s\": {:.6}}}"
            ),
            transport,
            clients,
            reqs_per_client,
            run.metrics.service.completed(),
            run.latency.quantile(0.50) * 1e3,
            run.latency.quantile(0.95) * 1e3,
            run.latency.quantile(0.99) * 1e3,
            prediction.latency.quantile(0.50) * 1e3,
            prediction.latency.quantile(0.95) * 1e3,
            prediction.latency.quantile(0.99) * 1e3,
            run.comm_s * 1e3,
            run.metrics.transport.dedup_replays,
            run.metrics.transport.conn_reset,
            run.metrics.transport.conn_aborted,
            run.client_retries,
            run.metrics.service.restarts(),
            run.metrics.service.failed_shards().len(),
            run.elapsed_s,
        ));
        books.push(run.book);
    }
    assert_eq!(
        books[0], books[1],
        "shim and TCP must produce identical resolution books for the same seed"
    );
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(r);
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out
}

// ---------------------------------------------------------------------
// Live progressive mode: real streaming, real cancels, real sockets
// ---------------------------------------------------------------------

/// The live progressive comparison stream: deep CDF 9/7 decompositions
/// of a smooth field plus faint texture. The smoothness is the point —
/// the fine detail planes quantize to near-empty sparse frames (the
/// deterministic byte saving), while the sinusoid's energy keeps the
/// coarse planes above the client tolerance so real mid-sequence
/// cancels occur too.
fn progressive_live_requests(clients: usize, reqs_per_client: usize) -> Vec<DecomposeRequest> {
    let tau = std::f64::consts::TAU;
    let smooth = |n: usize, salt: u64| {
        Matrix::from_fn(n, n, |r, c| {
            40.0 * (tau * r as f64 / n as f64).sin() * (tau * c as f64 / n as f64).sin()
                + ((r as u64 * 13 + c as u64 * 7 + salt) % 7) as f64 * 0.03
        })
    };
    let mut out = Vec::with_capacity(clients * reqs_per_client);
    for c in 0..clients {
        for k in 0..reqs_per_client {
            out.push(DecomposeRequest::new(
                smooth(64, (c * reqs_per_client + k) as u64 % 13),
                FilterBank::cdf97(),
                3,
            ));
        }
    }
    out
}

struct ProgressiveLiveRun {
    completed: u64,
    /// Server-side bytes put on the wire (responses dominate).
    bytes_out: u64,
    planes_sent: u64,
    cancels: u64,
    partials: u64,
    max_bound: f64,
    latency: wserv::Histogram,
    elapsed_s: f64,
}

/// Drive the progressive comparison workload live: a clean wire (the
/// byte comparison must not be confounded by faulted re-sends), with
/// every delivered response checked against the local engine oracle.
fn progressive_live(
    tcp: bool,
    clients: usize,
    reqs_per_client: usize,
    tolerance: Option<f64>,
) -> ProgressiveLiveRun {
    let tick = Duration::from_millis(1);
    let remote = RemoteConfig {
        progressive: tolerance.is_some().then(lossy_codec),
        ..RemoteConfig::default()
    };
    let service = closed_loop_service(ShardFaultPlan::none());
    let (server, dial): (
        RemoteServer,
        Box<dyn Fn() -> Box<dyn Connector> + Send + Sync>,
    ) = if tcp {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0", tick).expect("bind localhost");
        let addr = acceptor.local_addr();
        (
            RemoteServer::start(service, remote, Box::new(acceptor)).expect("server starts"),
            Box::new(move || Box::new(TcpConnector { addr, tick })),
        )
    } else {
        let listener = MemListener::new(1 << 16, tick);
        let peer = listener.clone();
        (
            RemoteServer::start(service, remote, Box::new(listener)).expect("server starts"),
            Box::new(move || Box::new(peer.clone())),
        )
    };

    let requests = progressive_live_requests(clients, reqs_per_client);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let stream: Vec<DecomposeRequest> =
            requests[c * reqs_per_client..(c + 1) * reqs_per_client].to_vec();
        let connector = dial();
        handles.push(std::thread::spawn(move || {
            let mut client = RemoteClient::new(connector, c as u64)
                .with_response_timeout(Duration::from_secs(10));
            if let Some(t) = tolerance {
                client = client.with_tolerance(t);
            }
            let mut lat = Vec::with_capacity(stream.len());
            let mut max_bound = 0.0f64;
            for req in &stream {
                let t0 = Instant::now();
                let resp = client
                    .call(req)
                    .expect("clean wire")
                    .expect("deadline-free requests all serve");
                lat.push(t0.elapsed().as_secs_f64());
                // The reported bound must be honest against the local
                // engine oracle and, when a tolerance is set, met.
                let oracle = dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
                    .expect("pool geometry is valid");
                let actual = pyramid_max_abs_diff(&resp.pyramid, &oracle)
                    .expect("geometry matches the oracle");
                assert!(
                    actual <= resp.error_bound || resp.error_bound == 0.0 && actual == 0.0,
                    "actual error {actual} exceeds the reported bound {}",
                    resp.error_bound
                );
                if let Some(t) = tolerance {
                    assert!(
                        resp.error_bound <= t,
                        "reported bound {} must meet the {t} tolerance",
                        resp.error_bound
                    );
                }
                max_bound = max_bound.max(resp.error_bound);
            }
            client.goodbye();
            (lat, max_bound, client.progressive)
        }));
    }
    let mut latency = wserv::Histogram::default();
    let mut max_bound = 0.0f64;
    let mut cancels = 0u64;
    let mut partials = 0u64;
    for h in handles {
        let (lat, mb, tally) = h.join().expect("client threads never panic");
        for v in lat {
            latency.record(v);
        }
        max_bound = max_bound.max(mb);
        cancels += tally.cancels;
        partials += tally.partial_responses;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let metrics = server.shutdown().expect("graceful drain succeeds");
    ProgressiveLiveRun {
        completed: metrics.service.completed(),
        bytes_out: metrics.transport.bytes_out,
        planes_sent: metrics.transport.planes_sent,
        cancels,
        partials,
        max_bound,
        latency,
        elapsed_s,
    }
}

/// Run the monolithic-vs-progressive live comparison over both
/// transports, assert the bytes-to-tolerance and bound-honesty
/// invariants, and return the `progressive_live` JSON rows.
fn progressive_live_rows(clients: usize, reqs_per_client: usize) -> String {
    let total = (clients * reqs_per_client) as u64;
    let tolerance = 30.0;
    let mut rows = Vec::new();
    for (transport, tcp) in [("shim", false), ("tcp", true)] {
        let mono = progressive_live(tcp, clients, reqs_per_client, None);
        let prog = progressive_live(tcp, clients, reqs_per_client, Some(tolerance));
        for run in [&mono, &prog] {
            assert_eq!(
                run.completed, total,
                "{transport}: every request must serve exactly once"
            );
        }
        assert_eq!(mono.planes_sent, 0, "{transport}: baseline is monolithic");
        assert!(
            prog.partials >= 1,
            "{transport}: the tolerance must cut at least one sequence short"
        );
        assert!(
            prog.bytes_out < mono.bytes_out,
            "{transport}: progressive-to-tolerance must beat monolithic bytes \
             ({} vs {})",
            prog.bytes_out,
            mono.bytes_out
        );
        eprintln!(
            "progressive live {transport:<4} mono_B={:<8} prog_B={:<8} savings={:.1}% \
             planes={} cancels={} bound={:.3} elapsed={:.3}s",
            mono.bytes_out,
            prog.bytes_out,
            (1.0 - prog.bytes_out as f64 / mono.bytes_out as f64) * 100.0,
            prog.planes_sent,
            prog.cancels,
            prog.max_bound,
            mono.elapsed_s + prog.elapsed_s,
        );
        for (scenario, run) in [("monolithic", &mono), ("progressive_cancel", &prog)] {
            rows.push(format!(
                concat!(
                    "{{\"transport\": \"{}\", \"scenario\": \"{}\", ",
                    "\"clients\": {}, \"reqs_per_client\": {}, \"completed\": {}, ",
                    "\"tolerance\": {}, \"bytes_out\": {}, \"planes_sent\": {}, ",
                    "\"cancels\": {}, \"partial_responses\": {}, ",
                    "\"max_error_bound\": {:.6}, \"p50_ms\": {:.6}, ",
                    "\"p95_ms\": {:.6}, \"p99_ms\": {:.6}, \"elapsed_s\": {:.6}}}"
                ),
                transport,
                scenario,
                clients,
                reqs_per_client,
                run.completed,
                if scenario == "monolithic" {
                    "null".to_string()
                } else {
                    format!("{tolerance}")
                },
                run.bytes_out,
                run.planes_sent,
                run.cancels,
                run.partials,
                run.max_bound,
                run.latency.quantile(0.50) * 1e3,
                run.latency.quantile(0.95) * 1e3,
                run.latency.quantile(0.99) * 1e3,
                run.elapsed_s,
            ));
        }
    }
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(r);
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out
}

// ---------------------------------------------------------------------
// Elastic sharding: static vs stealing vs split/merge under Zipf skew
// ---------------------------------------------------------------------

/// Zipf exponent of the elastic workload's shape popularity: a mild
/// real-traffic skew — the top shape draws ~31% of arrivals, the top
/// four ~63% — which lands disproportionately on whichever shards the
/// FNV placement happens to give the popular shapes.
const ZIPF_S: f64 = 1.1;

/// Seeded open-loop stream whose shape popularity is Zipf(`s`) over
/// the shared pool (rank k drawn with probability proportional to
/// `1/(k+1)^s`), priorities mixed. Same arrival process as [`stream`],
/// different popularity law: this is the imbalance generator the
/// elastic controller is benched against.
fn zipf_stream(n_reqs: usize, rate_hz: f64, s: f64) -> Vec<(f64, DecomposeRequest)> {
    let pool = shape_pool();
    let weights: Vec<f64> = (0..pool.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = SplitMix64(SEED ^ 0xe1a5_71c5);
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n_reqs);
    for _ in 0..n_reqs {
        t += -rng.unit_f64().ln() / rate_hz;
        // Inverse-CDF sample of the Zipf rank.
        let mut u = rng.unit_f64() * total;
        let mut rank = pool.len() - 1;
        for (k, w) in weights.iter().enumerate() {
            if u < *w {
                rank = k;
                break;
            }
            u -= *w;
        }
        let (size, bank, levels) = pool[rank].clone();
        let priority = Priority::ALL[(rng.next_u64() % 3) as usize];
        let req = DecomposeRequest::new(image(size, rng.next_u64() % 13), bank, levels)
            .with_priority(priority);
        out.push((t, req));
    }
    out
}

/// The elastic comparison grid: one static baseline and two controller
/// modes over the identical Zipf stream. Thresholds are scaled to the
/// simulator's microsecond-level service times (the policy defaults
/// target live wall-clock costs).
fn elastic_scenarios() -> Vec<(&'static str, Option<ElasticPolicy>)> {
    let stealing = ElasticPolicy {
        min_gap_s: 40e-6,
        steal_gap_s: 50e-6,
        ..ElasticPolicy::stealing()
    };
    let split_merge = ElasticPolicy {
        min_gap_s: 40e-6,
        steal_gap_s: 50e-6,
        split_backlog_s: 150e-6,
        merge_backlog_s: 30e-6,
        ..ElasticPolicy::split_merge(2)
    };
    vec![
        ("static", None),
        ("stealing", Some(stealing)),
        ("split_merge", Some(split_merge)),
    ]
}

struct ElasticCell {
    scenario: &'static str,
    requests: usize,
    rate_hz: f64,
    reserve: usize,
    report: SimReport,
}

impl ElasticCell {
    fn shed(&self) -> u64 {
        self.report.metrics.rejected(RejectKind::Shed)
    }

    fn imbalance_pct(&self) -> f64 {
        self.report
            .metrics
            .budget_report()
            .expect("completed work yields a budget report")
            .imbalance_pct()
    }

    fn p_ms(&self, q: f64) -> f64 {
        self.report.metrics.latency_quantile(q) * 1e3
    }

    fn json(&self) -> String {
        let m = &self.report.metrics;
        format!(
            concat!(
                "{{\"scenario\": \"{}\", \"requests\": {}, \"rate_hz\": {}, ",
                "\"zipf_s\": {}, \"shards\": {}, \"reserve\": {}, ",
                "\"accepted\": {}, \"completed\": {}, \"shed\": {}, ",
                "\"stolen\": {}, \"splits\": {}, \"merges\": {}, \"actions\": {}, ",
                "\"imbalance_pct\": {:.3}, \"p50_ms\": {:.6}, \"p95_ms\": {:.6}, ",
                "\"p99_ms\": {:.6}, \"throughput_hz\": {:.3}, \"makespan_s\": {:.9}}}"
            ),
            self.scenario,
            self.requests,
            self.rate_hz,
            ZIPF_S,
            ELASTIC_SHARDS,
            self.reserve,
            m.accepted(),
            m.completed(),
            self.shed(),
            m.stolen(),
            m.splits(),
            m.merges(),
            self.report.actions.len(),
            self.imbalance_pct(),
            self.p_ms(0.50),
            self.p_ms(0.95),
            self.p_ms(0.99),
            self.report.throughput(),
            self.report.makespan_s,
        )
    }
}

/// Base shard count of every elastic scenario (reserve slots extra).
const ELASTIC_SHARDS: usize = 4;

fn elastic_sweep(n_reqs: usize, rate_hz: f64) -> Vec<ElasticCell> {
    let cost = CostModel::default();
    let mut cells = Vec::new();
    for (scenario, policy) in elastic_scenarios() {
        let reserve = policy.as_ref().map_or(0, |p| p.reserve);
        let mut cfg = ServiceConfig::default()
            .with_shards(ELASTIC_SHARDS)
            .with_queue_capacity(64);
        if let Some(policy) = policy {
            cfg = cfg.with_elastic(policy);
        }
        let report = run_sim(&cfg, &cost, zipf_stream(n_reqs, rate_hz, ZIPF_S));
        let cell = ElasticCell {
            scenario,
            requests: n_reqs,
            rate_hz,
            reserve,
            report,
        };
        eprintln!(
            "elastic {scenario:<12} completed={:<4} stolen={:<3} splits={} merges={} \
             imbalance={:.1}% p95={:.3}ms",
            cell.report.metrics.completed(),
            cell.report.metrics.stolen(),
            cell.report.metrics.splits(),
            cell.report.metrics.merges(),
            cell.imbalance_pct(),
            cell.p_ms(0.95),
        );
        cells.push(cell);
    }
    cells
}

/// Elastic acceptance criteria:
/// * exactly-once: every request terminates, completions match the Ok
///   count, the admission books balance despite migration;
/// * both controller modes actually act (steals > 0; splits and merges
///   > 0 for split/merge);
/// * both controller modes beat the static layout on imbalance, and
///   hold the matched-set p95 at least even under the same skew.
fn assert_elastic_coverage(cells: &[ElasticCell]) {
    let find = |name: &str| -> &ElasticCell {
        cells
            .iter()
            .find(|c| c.scenario == name)
            .expect("scenario present in the elastic grid")
    };
    for cell in cells {
        assert_eq!(
            cell.report.outcomes.len(),
            cell.requests,
            "{}: every request must terminate exactly once",
            cell.scenario
        );
        let ok = cell.report.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        assert_eq!(
            ok,
            cell.report.metrics.completed(),
            "{}: completions must match the outcome log",
            cell.scenario
        );
        assert_eq!(
            cell.report.metrics.accepted(),
            ok + cell.shed(),
            "{}: migration must be counter-neutral in the books",
            cell.scenario
        );
    }
    let stat = find("static");
    assert_eq!(stat.report.metrics.stolen(), 0);
    assert!(stat.report.actions.is_empty());
    for name in ["stealing", "split_merge"] {
        let ela = find(name);
        assert!(
            ela.report.metrics.stolen() > 0,
            "{name}: the Zipf skew must trigger steals"
        );
        assert!(
            ela.imbalance_pct() < stat.imbalance_pct(),
            "{name}: imbalance {:.2}% must undercut static {:.2}%",
            ela.imbalance_pct(),
            stat.imbalance_pct()
        );
        let (stat_p95, ela_p95) = matched_p95(&stat.report, &ela.report);
        assert!(
            ela_p95 <= stat_p95,
            "{name}: matched-set p95 {:.4}ms must not regress static {:.4}ms",
            ela_p95 * 1e3,
            stat_p95 * 1e3
        );
    }
    let sm = find("split_merge");
    assert!(
        sm.report.metrics.splits() > 0,
        "split_merge: the hot shard must split onto a reserve"
    );
    assert!(
        sm.report.metrics.merges() > 0,
        "split_merge: drained reserves must retire"
    );
}

fn render(
    n_reqs: usize,
    cells: &[Cell],
    chaos: &[ChaosCell],
    transport: &[TransportCell],
    progressive: &[ProgressiveCell],
    elastic: &[ElasticCell],
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"wserv_load\",\n");
    out.push_str("  \"unit\": \"virtual_seconds\",\n");
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"requests_per_cell\": {n_reqs},\n"));
    out.push_str(&format!("  \"shape_pool\": {},\n", shape_pool().len()));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&c.json());
        out.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"chaos_requests_per_cell\": {},\n",
        chaos.first().map_or(0, |c| c.requests)
    ));
    out.push_str("  \"chaos_results\": [\n");
    for (i, c) in chaos.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&c.json());
        out.push_str(if i + 1 == chaos.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"transport_results\": [\n");
    for (i, c) in transport.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&c.json());
        out.push_str(if i + 1 == transport.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"progressive_results\": [\n");
    for (i, c) in progressive.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&c.json());
        out.push_str(if i + 1 == progressive.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"elastic_results\": [\n");
    for (i, c) in elastic.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&c.json());
        out.push_str(if i + 1 == elastic.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// p95 latency of each run over the *matched set* of request ids that
/// completed in both. Under overload the two systems shed different
/// victims, so comparing raw completed-set quantiles confounds speed
/// with survivorship (the slower system completes a faster-skewed
/// subset); the matched set removes that bias.
fn matched_p95(a: &SimReport, b: &SimReport) -> (f64, f64) {
    let mut ha = wserv::Histogram::default();
    let mut hb = wserv::Histogram::default();
    for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
        if let (Ok(rx), Ok(ry)) = (x, y) {
            ha.record(rx.latency_s());
            hb.record(ry.latency_s());
        }
    }
    (ha.quantile(0.95), hb.quantile(0.95))
}

/// Acceptance criteria, checked on every run:
/// * at the top arrival rate, cache-on strictly beats cache-off on
///   matched-set p95 at equal shard count and batching;
/// * at the top arrival rate, batching strictly raises saturation
///   throughput over batch-1 at equal shard count and caching.
fn assert_dominance(cells: &[Cell], top_rate: f64) {
    let find = |shards: usize, cache: usize, batch: usize| -> &Cell {
        cells
            .iter()
            .find(|c| {
                c.shards == shards
                    && c.cache_capacity == cache
                    && c.max_batch == batch
                    && c.rate_hz == top_rate
            })
            .expect("cell present in the grid")
    };
    let shard_grid: Vec<usize> = {
        let mut v: Vec<usize> = cells.iter().map(|c| c.shards).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for &shards in &shard_grid {
        for &batch in &[1usize, 8] {
            let on = find(shards, 16, batch);
            let off = find(shards, 0, batch);
            let (on_p95, off_p95) = matched_p95(&on.report, &off.report);
            assert!(
                on_p95 < off_p95,
                "cache-on matched-set p95 {:.4}ms must undercut cache-off {:.4}ms \
                 (shards={shards} batch={batch})",
                on_p95 * 1e3,
                off_p95 * 1e3
            );
            assert!(on.report.metrics.cache_hit_rate() > 0.0);
        }
        for &cache in &[0usize, 16] {
            let batched = find(shards, cache, 8);
            let single = find(shards, cache, 1);
            assert!(
                batched.report.throughput() > single.report.throughput(),
                "batch-8 throughput {:.0}/s must beat batch-1 {:.0}/s \
                 (shards={shards} cache={cache})",
                batched.report.throughput(),
                single.report.throughput()
            );
        }
    }
}

fn main() {
    let smoke = std::env::var("WSERV_SMOKE").is_ok_and(|v| v == "1");
    let (n_reqs, shard_grid, rates): (usize, Vec<usize>, Vec<f64>) = if smoke {
        (300, vec![2], vec![20_000.0, 120_000.0])
    } else {
        (1500, vec![1, 4], vec![5_000.0, 20_000.0, 120_000.0])
    };
    let top_rate = *rates.last().expect("non-empty rate grid");

    let chaos_reqs = if smoke { 200 } else { 800 };
    let chaos_rate = 50_000.0;

    let (cl_clients, cl_reqs) = if smoke { (3, 6) } else { (4, 12) };

    let cells = sweep(n_reqs, &shard_grid, &rates);
    assert_dominance(&cells, top_rate);
    let chaos = chaos_sweep(chaos_reqs, chaos_rate);
    assert_chaos_coverage(&chaos);
    let transport = transport_sweep(cl_clients, cl_reqs);
    assert_transport_coverage(&transport);
    let progressive = progressive_sweep(cl_clients, cl_reqs);
    assert_progressive_coverage(&progressive);
    let (elastic_reqs, elastic_rate) = if smoke {
        (400, 220_000.0)
    } else {
        (1200, 220_000.0)
    };
    let elastic = elastic_sweep(elastic_reqs, elastic_rate);
    assert_elastic_coverage(&elastic);
    let report = render(n_reqs, &cells, &chaos, &transport, &progressive, &elastic);

    // Byte-reproducibility is part of the contract: regenerate the
    // whole sweep — chaos, transport, progressive, and elastic rows
    // included — and require the identical document.
    let again = render(
        n_reqs,
        &sweep(n_reqs, &shard_grid, &rates),
        &chaos_sweep(chaos_reqs, chaos_rate),
        &transport_sweep(cl_clients, cl_reqs),
        &progressive_sweep(cl_clients, cl_reqs),
        &elastic_sweep(elastic_reqs, elastic_rate),
    );
    assert_eq!(report, again, "service bench must be byte-reproducible");

    // Live closed-loop comparison: wall-clock rows, appended after the
    // byte-compare. The simulator's failover-under-load row is the
    // prediction the live tails are reported against.
    let prediction = &transport
        .iter()
        .find(|c| c.scenario == "failover_under_load")
        .expect("failover scenario present")
        .report;
    let live = live_rows(cl_clients, cl_reqs, prediction);
    let plive = progressive_live_rows(cl_clients, cl_reqs);
    let report = {
        let tail = "  ]\n}\n";
        let base = report
            .strip_suffix(tail)
            .expect("render ends with the elastic section");
        format!(
            "{base}  ],\n  \"transport_live\": [\n{live}  ],\n  \
             \"progressive_live\": [\n{plive}  ]\n}}\n"
        )
    };

    let path = if smoke {
        "target/BENCH_service_smoke.json"
    } else {
        "BENCH_service.json"
    };
    std::fs::write(path, &report).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}
