//! Machine-readable serving benchmark, as one scenario table and one
//! pipeline. [`scenarios`] lists every row of `BENCH_service.json` as
//! data — section, name, `ServiceConfig`, and how it is driven: a
//! seeded open-loop arrival stream through `run_sim` (the arrival-rate
//! x shard-count x cache x batching grid, the chaos scenarios, the
//! Zipf-skewed elastic comparison) or a closed-loop multi-client
//! workload through `run_closed_loop` with the wire itself in the loop
//! (framing cost charged to the Communication lane, seeded
//! `WireFaultPlan` faults, progressive delivery). [`run`] drives one
//! row and checks the exactly-once invariant on it — nothing injected
//! loses a request — and [`column()`] defines what it reports.
//!
//! This binary is the *model* and only the model: every latency and
//! throughput number is virtual time under the `CostModel` /
//! `WireCostModel` constants printed in the header (`"source":
//! "model"`), a pure function of the seed — proved by running the table
//! twice and comparing the bytes. It starts no server and reads no wall
//! clock: the same paths are *measured* by `benchmark/` (wbench
//! `rpc_*`, `pipe_zipf`), and the live invariants (exactly-once under
//! worker kills and wire faults, shim-vs-TCP identical books, honest
//! bounds) run on every push in `tests/wserv_remote.rs`.
//!
//! Run from the repo root with `just serve-bench` (or
//! `cargo run --release -p bench --bin bench_service`). Set
//! `WSERV_SMOKE=1` for the downscaled CI mode, which writes
//! `target/BENCH_service_smoke.json` instead; every gate is asserted
//! at both scales.

use bench::{render, Row, Val};
use dwt::{dwt2d, FilterBank, Matrix};
use dwt_mimd::CheckpointCodec;
use perfbudget::BudgetReport;
use wserv::progressive::pyramid_max_abs_diff;
use wserv::sim::{
    run_closed_loop, run_sim, ClosedLoopConfig, ClosedLoopReport, CostModel, ProgressiveSim,
    SimReport, WireCostModel,
};
use wserv::{
    DecomposeRequest, DegradedPolicy, ElasticPolicy, MetricsSnapshot, Priority, RejectKind,
    ServeResult, ServiceConfig, ShardFaultPlan, SupervisorPolicy, WireDir, WireFaultPlan,
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

/// Zipf exponent of the elastic workload's shape popularity: a mild
/// real-traffic skew — the top shape draws ~31% of arrivals, the top
/// four ~63% — which lands disproportionately on whichever shards the
/// FNV placement happens to give the popular shapes.
const ZIPF_S: f64 = 1.1;

/// Seeded open-loop stream whose shape popularity is Zipf([`ZIPF_S`])
/// over the shared pool (rank k drawn with probability proportional to
/// `1/(k+1)^s`), priorities mixed. Same arrival process as [`stream`],
/// different popularity law: this is the imbalance generator the
/// elastic controller is benched against.
fn zipf_stream(n_reqs: usize, rate_hz: f64) -> Vec<(f64, DecomposeRequest)> {
    let pool = shape_pool();
    let weights: Vec<f64> = (0..pool.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
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

/// Per-client request streams for the closed-loop scenarios, flattened
/// `client * reqs_per_client + k`. Deadline-free on purpose: with no
/// expiry and a queue deeper than the client count, every closed-loop
/// request must serve, which [`assert_nothing_lost`] holds each row to.
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

/// The literal wire-fault schedule of the faulted closed-loop
/// scenarios. Coordinates are `(conn = client id,
/// dir, cumulative frame index)`: frame 0 each way is the handshake, so
/// the client-to-server reset at frame 2 kills client 0's second
/// request mid-frame, and the server-to-client bit flip at frame 2
/// corrupts client 2's second response — which the client recovers via
/// resubmit + dedup replay, never re-execution.
fn wire_chaos_plan() -> WireFaultPlan {
    WireFaultPlan::seeded(SEED)
        .with_reset(0, WireDir::ClientToServer, 2)
        .with_truncate(1, WireDir::ClientToServer, 4)
        .with_bitflip(2, WireDir::ServerToClient, 2)
        .with_stall(1, WireDir::ServerToClient, 3, 4e-3)
}

/// The shard-fault schedule of the failover-under-load scenario:
/// shard 0's worker is killed once mid-load (supervised restart),
/// shard 1 crashes permanently and fails over to the survivors.
fn kill_plan() -> ShardFaultPlan {
    ShardFaultPlan::seeded(SEED)
        .with_worker_panic(0, 1)
        .with_shard_crash(1, 2)
}

/// Base service shape of every chaos and closed-loop scenario: three
/// shards so one can die and two survive, a queue deep enough that
/// closed-loop admission never rejects.
fn three_shards() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(3)
        .with_queue_capacity(64)
        .with_cache_capacity(16)
        .with_max_batch(4)
}

fn restart_budget(max_restarts: u32) -> SupervisorPolicy {
    SupervisorPolicy {
        max_restarts,
        ..SupervisorPolicy::default()
    }
}

/// The detail-plane codec every lossy progressive scenario shares:
/// `threshold + step / 2 = 0.5` of absolute per-coefficient tolerance.
fn lossy_codec() -> CheckpointCodec {
    CheckpointCodec::WaveletQuant {
        threshold: 0.25,
        step: 0.5,
    }
}

// ---------------------------------------------------------------------
// The scenario table
// ---------------------------------------------------------------------

const RESULTS: &str = "results";
const CHAOS: &str = "chaos_results";
const TRANSPORT: &str = "transport_results";
const PROGRESSIVE: &str = "progressive_results";
const ELASTIC: &str = "elastic_results";

/// The sim-derived sections in document order: JSON key, then the
/// columns of its rows in output order (each defined in [`column()`]).
const SECTIONS: [(&str, &str); 5] = [
    (
        RESULTS,
        "shards cache_capacity max_batch rate_hz accepted completed rejected_queue_full \
         rejected_shed rejected_deadline cache_hit_rate mean_batch_occupancy p50_ms p95_ms p99_ms \
         throughput_hz makespan_s useful_pct imbalance_pct",
    ),
    (
        CHAOS,
        "scenario shards rate_hz requests completed degraded_served restarts requeued quarantined \
         rejected_total rejected_shard_failed rejected_requeued rejected_deadline failed_shards \
         p95_ms throughput_hz makespan_s fault_recovery_pct",
    ),
    (
        TRANSPORT,
        "scenario clients reqs_per_client delivered retries replays frames p50_ms p95_ms p99_ms \
         comm_ms fault_recovery_ms throughput_hz makespan_s",
    ),
    (
        PROGRESSIVE,
        "scenario clients reqs_per_client delivered threshold step tolerance byte_budget planes \
         cancels budget_stops response_bytes monolithic_bytes savings_pct max_error_bound p50_ms \
         p95_ms p99_ms comm_ms throughput_hz makespan_s",
    ),
    (
        ELASTIC,
        "scenario requests rate_hz zipf_s shards reserve accepted completed shed stolen splits \
         merges actions imbalance_pct p50_ms p95_ms p99_ms throughput_hz makespan_s",
    ),
];

type Stream = fn(usize, f64) -> Vec<(f64, DecomposeRequest)>;

enum Drive {
    /// Open loop: `(stream, requests, rate_hz)` — that many seeded
    /// arrivals at that rate from the generator, through `run_sim`.
    Open(Stream, usize, f64),
    /// Closed loop: the [`closed_requests`] streams through
    /// `run_closed_loop`, the wire in the loop.
    Closed(Box<ClosedLoopConfig>),
}

/// One row of `BENCH_service.json`, as data.
struct Scenario {
    section: &'static str,
    name: String,
    service: ServiceConfig,
    drive: Drive,
}

/// Name of a `results` grid point (the grid rows carry their
/// coordinates as columns, not a `scenario` label).
fn grid_name(shards: usize, cache: usize, batch: usize, rate_hz: f64) -> String {
    format!("shards={shards} cache={cache} batch={batch} rate={rate_hz}")
}

/// Every row of the bench, in document order. All fault plans are a
/// pure function of `SEED`, so the rows reproduce byte for byte.
fn scenarios(smoke: bool) -> Vec<Scenario> {
    use Drive::{Closed, Open};
    let mut table = Vec::new();
    let mut add = |section, name: &str, service, drive| {
        let name = name.to_string();
        table.push(Scenario {
            section,
            name,
            service,
            drive,
        })
    };

    // Arrival rate x shard count x cache x batching.
    let (grid_reqs, shard_grid, rates): (usize, &[usize], &[f64]) = if smoke {
        (300, &[2], &[20_000.0, 120_000.0])
    } else {
        (1500, &[1, 4], &[5_000.0, 20_000.0, 120_000.0])
    };
    for &shards in shard_grid {
        for (cache, batch) in [(16, 8), (0, 8), (16, 1), (0, 1)] {
            for &rate_hz in rates {
                let service = ServiceConfig::default()
                    .with_shards(shards)
                    .with_queue_capacity(64)
                    .with_cache_capacity(cache)
                    .with_max_batch(batch);
                let name = grid_name(shards, cache, batch, rate_hz);
                add(RESULTS, &name, service, Open(stream, grid_reqs, rate_hz));
            }
        }
    }

    // Chaos: each injected fault kind in isolation plus one combined
    // brownout, all on the same three-shard service.
    let plan = || ShardFaultPlan::seeded(SEED);
    let faulted = |faults| three_shards().with_faults(faults);
    let brownout = |faults| {
        faulted(faults)
            .with_supervisor(restart_budget(1))
            .with_degraded(DegradedPolicy::default())
    };
    let failover = faulted(plan().with_shard_crash(0, 0)).with_supervisor(restart_budget(2));
    let combined = plan()
        .with_shard_crash(0, 2)
        .with_worker_panic(1, 5)
        .with_stall(2, 2.0, 0, 30)
        .with_poison_rate(0.02);
    let chaos_reqs = if smoke { 200 } else { 800 };
    for (name, service) in [
        ("fault_free", three_shards()),
        ("worker_panic", faulted(plan().with_worker_panic(0, 3))),
        ("shard_crash_failover", failover),
        ("poison_quarantine", faulted(plan().with_poison_rate(0.05))),
        ("stall_window", faulted(plan().with_stall(1, 3.0, 0, 40))),
        ("degraded_brownout", brownout(plan().with_shard_crash(2, 0))),
        ("combined", brownout(combined)),
    ] {
        add(CHAOS, name, service, Open(stream, chaos_reqs, 50_000.0));
    }

    // Transport: the wire in the loop — clean, faulted, then with
    // workers killed under the same wire chaos. Progressive delivery
    // over the same closed-loop workload: a monolithic baseline,
    // lossless streaming (must stay bitwise), lossy streaming (must
    // shrink the wire), tolerance-met cancellation (must shrink it
    // further), cancellation under the literal wire-chaos plan (must
    // stay exactly-once), and a hard byte budget (must bound the wire
    // regardless of tolerance).
    let (clients, reqs_per_client) = if smoke { (3, 6) } else { (4, 12) };
    let (none, clean) = (ShardFaultPlan::none, WireFaultPlan::none);
    let flips = WireFaultPlan::seeded(SEED).with_flip_rate(0.01);
    let progressive = |codec, tolerance, byte_budget| {
        Some(ProgressiveSim {
            codec,
            tolerance,
            byte_budget,
        })
    };
    let lossless = progressive(CheckpointCodec::Raw, None, None);
    let lossy = progressive(lossy_codec(), None, None);
    let cancel = progressive(lossy_codec(), Some(30.0), None);
    let budget = progressive(lossy_codec(), None, Some(4096));
    for (section, name, faults, wire_faults, progressive) in [
        (TRANSPORT, "clean_wire", none(), clean(), None),
        (TRANSPORT, "wire_chaos", none(), wire_chaos_plan(), None),
        (TRANSPORT, "flip_rate", none(), flips, None),
        (
            TRANSPORT,
            "failover_under_load",
            kill_plan(),
            wire_chaos_plan(),
            None,
        ),
        (PROGRESSIVE, "monolithic", none(), clean(), None),
        (
            PROGRESSIVE,
            "progressive_lossless",
            none(),
            clean(),
            lossless,
        ),
        (PROGRESSIVE, "progressive_lossy", none(), clean(), lossy),
        (PROGRESSIVE, "tolerance_cancel", none(), clean(), cancel),
        (
            PROGRESSIVE,
            "tolerance_cancel_chaos",
            none(),
            wire_chaos_plan(),
            cancel,
        ),
        (PROGRESSIVE, "byte_budget", none(), clean(), budget),
    ] {
        let service = faulted(faults).with_supervisor(restart_budget(1));
        let cl = ClosedLoopConfig {
            clients,
            reqs_per_client,
            wire_faults,
            progressive,
            ..ClosedLoopConfig::default()
        };
        add(section, name, service, Closed(Box::new(cl)));
    }

    // Elastic: one static baseline and two controller modes over the
    // identical Zipf stream. Thresholds are scaled to the simulator's
    // microsecond-level service times (the policy defaults target live
    // wall-clock costs).
    let scaled = |policy| ElasticPolicy {
        min_gap_s: 40e-6,
        steal_gap_s: 50e-6,
        ..policy
    };
    let split_merge = ElasticPolicy {
        split_backlog_s: 150e-6,
        merge_backlog_s: 30e-6,
        ..scaled(ElasticPolicy::split_merge(2))
    };
    let elastic_reqs = if smoke { 400 } else { 1200 };
    for (name, elastic) in [
        ("static", None),
        ("stealing", Some(scaled(ElasticPolicy::stealing()))),
        ("split_merge", Some(split_merge)),
    ] {
        let service = ServiceConfig::default()
            .with_shards(4)
            .with_queue_capacity(64);
        let service = ServiceConfig { elastic, ..service };
        add(
            ELASTIC,
            name,
            service,
            Open(zipf_stream, elastic_reqs, 220_000.0),
        );
    }
    table
}

/// The table is complete: `(section, name)` pairs are unique and every
/// section has its pinned row count, so a scenario dropped from the
/// table cannot silently shrink a section.
fn assert_table_complete(table: &[Scenario], smoke: bool) {
    let mut names: Vec<(&str, &str)> = table.iter().map(|s| (s.section, &*s.name)).collect();
    names.sort_unstable();
    assert!(
        names.windows(2).all(|w| w[0] != w[1]),
        "duplicate (section, name) in the scenario table"
    );
    let grid = if smoke { 8 } else { 24 };
    for ((section, _), rows) in SECTIONS.into_iter().zip([grid, 7, 4, 6, 3]) {
        let have = table.iter().filter(|s| s.section == section).count();
        assert_eq!(have, rows, "{section}: row count changed");
    }
}

// ---------------------------------------------------------------------
// One runner, one books check, one renderer
// ---------------------------------------------------------------------

enum Report {
    Open(SimReport),
    Closed(ClosedLoopReport),
}

struct Run {
    scenario: Scenario,
    report: Report,
}

impl Run {
    fn name(&self) -> &str {
        &self.scenario.name
    }

    fn closed(&self) -> (&ClosedLoopConfig, &ClosedLoopReport) {
        match (&self.scenario.drive, &self.report) {
            (Drive::Closed(cl), Report::Closed(r)) => (cl.as_ref(), r),
            _ => panic!("{} is an open-loop scenario", self.name()),
        }
    }

    fn requests(&self) -> usize {
        match &self.scenario.drive {
            Drive::Open(_, requests, _) => *requests,
            Drive::Closed(cl) => cl.clients * cl.reqs_per_client,
        }
    }

    fn metrics(&self) -> &MetricsSnapshot {
        match &self.report {
            Report::Open(r) => &r.metrics,
            Report::Closed(r) => &r.metrics,
        }
    }

    /// What each request's client ended up holding: `None` only when a
    /// closed-loop client gave up on the transport.
    fn outcomes(&self) -> Vec<Option<&ServeResult>> {
        match &self.report {
            Report::Open(r) => r.outcomes.iter().map(Some).collect(),
            Report::Closed(r) => r.outcomes.iter().map(|o| o.as_ref().ok()).collect(),
        }
    }

    /// Latency quantile in milliseconds: server-side for open-loop
    /// rows, client-observed across every retry for closed-loop rows.
    fn p_ms(&self, q: f64) -> f64 {
        match &self.report {
            Report::Open(r) => r.metrics.latency_quantile(q) * 1e3,
            Report::Closed(r) => r.latency.quantile(q) * 1e3,
        }
    }

    /// `(throughput_hz, makespan_s)`, virtual.
    fn pace(&self) -> (f64, f64) {
        match &self.report {
            Report::Open(r) => (r.throughput(), r.makespan_s),
            Report::Closed(r) => (r.throughput(), r.makespan_s),
        }
    }

    fn rejected_total(&self) -> u64 {
        let m = self.metrics();
        RejectKind::ALL.iter().map(|&k| m.rejected(k)).sum()
    }

    fn budget(&self) -> BudgetReport {
        let budget = self.metrics().budget_report();
        budget.expect("completed work yields a budget report")
    }

    /// Largest reported error bound across served responses.
    fn max_error_bound(&self) -> f64 {
        let served = self.outcomes().into_iter().flatten().flatten();
        served.map(|r| r.error_bound).fold(0.0, f64::max)
    }

    fn savings_pct(&self) -> f64 {
        let (_, r) = self.closed();
        if r.monolithic_bytes == 0 {
            return 0.0;
        }
        (1.0 - r.response_bytes as f64 / r.monolithic_bytes as f64) * 100.0
    }
}

fn run(scenario: Scenario) -> Run {
    let (cfg, cost) = (&scenario.service, CostModel::default());
    let report = match &scenario.drive {
        Drive::Open(stream, requests, rate_hz) => {
            Report::Open(run_sim(cfg, &cost, stream(*requests, *rate_hz)))
        }
        Drive::Closed(cl) => {
            let requests = closed_requests(cl.clients, cl.reqs_per_client);
            Report::Closed(run_closed_loop(cfg, &cost, cl, requests))
        }
    };
    let run = Run { scenario, report };
    assert_nothing_lost(&run);
    eprintln!(
        "{:<19} {:<38} completed={:<4} p95={:.3}ms tput={:.0}/s",
        run.scenario.section,
        run.name(),
        run.metrics().completed(),
        run.p_ms(0.95),
        run.pace().0,
    );
    run
}

/// The exactly-once invariant, asserted on every row of every section:
/// each submitted request resolves exactly once (completed, typed
/// rejection, or bounded-error degraded response) — injected crashes,
/// wire faults, cancels and migration lose nothing.
fn assert_nothing_lost(run: &Run) {
    let (name, m, requests) = (run.name(), run.metrics(), run.requests());
    let outcomes = run.outcomes();
    assert_eq!(
        outcomes.len(),
        requests,
        "{name}: every request must have a terminal outcome"
    );
    let delivered = outcomes.iter().flatten().count();
    assert_eq!(
        delivered,
        requests,
        "{name}: the retry budget must cover the fault plan (lost {})",
        requests - delivered
    );
    let served = outcomes.iter().flatten().filter(|o| o.is_ok());
    let ok = served.clone().count() as u64;
    assert_eq!(
        ok,
        m.completed(),
        "{name}: completions must match Ok outcomes"
    );
    let rejected = run.rejected_total();
    assert_eq!(
        ok + rejected,
        requests as u64,
        "{name}: lost requests (completed {ok} + rejected {rejected} != submitted {requests})"
    );
    if matches!(run.report, Report::Closed(_)) {
        // Deadline-free closed-loop traffic under a shallow queue never
        // rejects: every delivered outcome is a served response. (Its
        // `degraded` flags are the client's lossy reassembly, not the
        // service's degraded mode, so the counter check is open-loop.)
        assert_eq!(
            ok, requests as u64,
            "{name}: closed-loop requests must all serve"
        );
    } else {
        let degraded = served.filter(|o| o.as_ref().is_ok_and(|r| r.degraded));
        assert_eq!(
            degraded.count() as u64,
            m.degraded_served(),
            "{name}: degraded counter must match degraded Ok outcomes"
        );
    }
}

/// Every column a sim-derived row can report, defined once; which of
/// them a section reports, and in what order, is [`SECTIONS`].
fn column(run: &Run, key: &str) -> Val {
    use Val::{Fix, Null, Num, Str};
    let (cfg, m) = (&run.scenario.service, run.metrics());
    let rejected = |kind| Val::from(m.rejected(kind));
    let progressive = || run.closed().0.progressive;
    let codec = || match progressive().map(|p| p.codec) {
        Some(CheckpointCodec::WaveletQuant { threshold, step }) => (threshold, step),
        Some(CheckpointCodec::Raw) | None => (0.0, 0.0),
    };
    match key {
        "scenario" => Str(run.name().into()),
        "shards" => cfg.shards.into(),
        "cache_capacity" => cfg.cache_capacity.into(),
        "max_batch" => cfg.batch.max_batch.into(),
        "reserve" => cfg.elastic.map_or(0, |p| p.reserve).into(),
        "zipf_s" => Num(ZIPF_S),
        "rate_hz" => match run.scenario.drive {
            Drive::Open(_, _, rate_hz) => Num(rate_hz),
            Drive::Closed(_) => unreachable!("closed-loop rows have no arrival rate"),
        },
        "requests" => run.requests().into(),
        "clients" => run.closed().0.clients.into(),
        "reqs_per_client" => run.closed().0.reqs_per_client.into(),
        "threshold" => Num(codec().0),
        "step" => Num(codec().1),
        "tolerance" => progressive().and_then(|p| p.tolerance).map_or(Null, Num),
        "byte_budget" => progressive()
            .and_then(|p| p.byte_budget)
            .map_or(Null, Val::from),
        "accepted" => m.accepted().into(),
        "completed" => m.completed().into(),
        "delivered" => run.outcomes().iter().flatten().count().into(),
        "degraded_served" => m.degraded_served().into(),
        "restarts" => m.restarts().into(),
        "requeued" => m.requeued().into(),
        "quarantined" => m.quarantined().into(),
        "rejected_total" => run.rejected_total().into(),
        "rejected_queue_full" => rejected(RejectKind::QueueFull),
        "rejected_shed" | "shed" => rejected(RejectKind::Shed),
        "rejected_deadline" => rejected(RejectKind::DeadlineExpired),
        "rejected_shard_failed" => rejected(RejectKind::ShardFailed),
        "rejected_requeued" => rejected(RejectKind::Requeued),
        "failed_shards" => m.failed_shards().into_iter().collect(),
        "stolen" => m.stolen().into(),
        "splits" => m.splits().into(),
        "merges" => m.merges().into(),
        "actions" => match &run.report {
            Report::Open(r) => r.actions.len().into(),
            Report::Closed(_) => unreachable!("closed-loop rows have no controller log"),
        },
        "retries" => run.closed().1.retries.into(),
        "replays" => run.closed().1.replays.into(),
        "frames" => run.closed().1.frames.into(),
        "planes" => run.closed().1.planes.into(),
        "cancels" => run.closed().1.cancels.into(),
        "budget_stops" => run.closed().1.budget_stops.into(),
        "response_bytes" => run.closed().1.response_bytes.into(),
        "monolithic_bytes" => run.closed().1.monolithic_bytes.into(),
        "savings_pct" => Fix(run.savings_pct(), 3),
        "max_error_bound" => Fix(run.max_error_bound(), 6),
        "cache_hit_rate" => Fix(m.cache_hit_rate(), 4),
        "mean_batch_occupancy" => Fix(m.mean_batch_occupancy(), 4),
        "p50_ms" => Fix(run.p_ms(0.50), 6),
        "p95_ms" => Fix(run.p_ms(0.95), 6),
        "p99_ms" => Fix(run.p_ms(0.99), 6),
        "comm_ms" => Fix(run.closed().1.comm_s * 1e3, 6),
        "fault_recovery_ms" => Fix(run.closed().1.fault_recovery_s * 1e3, 6),
        "throughput_hz" => Fix(run.pace().0, 3),
        "makespan_s" => Fix(run.pace().1, 9),
        "useful_pct" => Fix(run.budget().useful_pct(), 3),
        "imbalance_pct" => Fix(run.budget().imbalance_pct(), 3),
        "fault_recovery_pct" => Fix(run.budget().fault_pct(), 3),
        _ => unreachable!("no column {key}"),
    }
}

fn section<'a>(runs: &'a [Run], key: &'a str) -> impl Iterator<Item = &'a Run> + Clone {
    runs.iter().filter(move |r| r.scenario.section == key)
}

fn row(run: &Run) -> Row {
    let spec = SECTIONS
        .iter()
        .find(|(key, _)| *key == run.scenario.section);
    let (_, columns) = spec.expect("every scenario is in a known section");
    columns.split(' ').map(|c| (c, column(run, c))).collect()
}

/// The default constants of a cost model as a header object. The
/// pattern has no `..`, so a constant added to the model cannot be left
/// out of the header, and a key cannot drift from its field's name.
macro_rules! constants {
    ($model:ident { $($field:ident),+ }) => {{
        let $model { $($field),+ } = $model::default();
        Val::Obj(vec![$((stringify!($field), Val::Num($field))),+])
    }};
}

/// The document: what was run and the model constants every row was
/// priced with ([`run`] uses the same defaults), then each section.
fn document(runs: &[Run]) -> Row {
    let requests = |key| section(runs, key).next().map_or(0, Run::requests);
    let mut doc: Row = vec![
        ("bench", Val::Str("wserv_load".into())),
        ("unit", Val::Str("virtual_seconds".into())),
        ("source", Val::Str("model".into())),
        (
            "cost_model",
            constants!(CostModel {
                transform_s_per_coeff_tap,
                plan_base_s,
                plan_s_per_coeff,
                dispatch_s,
                deliver_s_per_request
            }),
        ),
        (
            "wire_cost_model",
            constants!(WireCostModel {
                ser_s_per_byte,
                frame_overhead_s,
                wire_s_per_byte,
                rtt_s
            }),
        ),
        ("seed", SEED.into()),
        ("requests_per_cell", requests(RESULTS).into()),
        ("shape_pool", shape_pool().len().into()),
    ];
    for (key, _) in SECTIONS {
        if key == CHAOS {
            doc.push(("chaos_requests_per_cell", requests(key).into()));
        }
        doc.push((key, Val::Rows(section(runs, key).map(row).collect())));
    }
    doc
}

// ---------------------------------------------------------------------
// Coverage gates: each section exercises what it claims to
// ---------------------------------------------------------------------

fn find<'a>(runs: &'a [Run], key: &str, name: &str) -> &'a Run {
    let mut runs = runs.iter();
    runs.find(|r| r.scenario.section == key && r.name() == name)
        .unwrap_or_else(|| panic!("scenario {name} present in {key}"))
}

/// p95 latency of each run over the *matched set* of request ids that
/// completed in both. Under overload the two systems shed different
/// victims, so comparing raw completed-set quantiles confounds speed
/// with survivorship (the slower system completes a faster-skewed
/// subset); the matched set removes that bias.
fn matched_p95(a: &Run, b: &Run) -> (f64, f64) {
    let mut ha = wserv::Histogram::default();
    let mut hb = wserv::Histogram::default();
    for (x, y) in a.outcomes().into_iter().zip(b.outcomes()) {
        if let (Some(Ok(rx)), Some(Ok(ry))) = (x, y) {
            ha.record(rx.latency_s());
            hb.record(ry.latency_s());
        }
    }
    (ha.quantile(0.95), hb.quantile(0.95))
}

/// Acceptance criteria of the `results` grid, checked on every run:
/// * at the top arrival rate, cache-on strictly beats cache-off on
///   matched-set p95 at equal shard count and batching;
/// * at the top arrival rate, batching strictly raises saturation
///   throughput over batch-1 at equal shard count and caching.
fn assert_dominance(runs: &[Run]) {
    let grid = section(runs, RESULTS);
    let rates = grid.clone().map(|r| column(r, "rate_hz").magnitude());
    let top_rate = rates.fold(0.0, f64::max);
    let mut shard_grid: Vec<usize> = grid.map(|r| r.scenario.service.shards).collect();
    shard_grid.sort_unstable();
    shard_grid.dedup();
    let cell = |shards, cache, batch| {
        let name = grid_name(shards, cache, batch, top_rate);
        find(runs, RESULTS, &name)
    };
    for &shards in &shard_grid {
        for batch in [1, 8] {
            let (on, off) = (cell(shards, 16, batch), cell(shards, 0, batch));
            let (on_p95, off_p95) = matched_p95(on, off);
            assert!(
                on_p95 < off_p95,
                "cache-on matched-set p95 {:.4}ms must undercut cache-off {:.4}ms \
                 (shards={shards} batch={batch})",
                on_p95 * 1e3,
                off_p95 * 1e3
            );
            assert!(on.metrics().cache_hit_rate() > 0.0);
        }
        for cache in [0, 16] {
            let (batched, single) = (cell(shards, cache, 8), cell(shards, cache, 1));
            assert!(
                batched.pace().0 > single.pace().0,
                "batch-8 throughput {:.0}/s must beat batch-1 {:.0}/s \
                 (shards={shards} cache={cache})",
                batched.pace().0,
                single.pace().0
            );
        }
    }
}

/// Spot checks that each scenario exercises what it claims to, as data:
/// `(section, scenario, column, fires)` — the column must be positive
/// (a non-empty list) when `fires`, and exactly zero (empty) otherwise.
const SPOT_CHECKS: [(&str, &str, &str, bool); 29] = [
    // The failover scenario exhausts the restart budget and loses a
    // shard, a panicked worker is restarted in place, the brownout
    // actually serves bounded-error responses, poison is quarantined.
    (CHAOS, "fault_free", "failed_shards", false),
    (CHAOS, "fault_free", "restarts", false),
    (CHAOS, "shard_crash_failover", "failed_shards", true),
    (CHAOS, "shard_crash_failover", "restarts", true),
    (CHAOS, "degraded_brownout", "degraded_served", true),
    (CHAOS, "worker_panic", "restarts", true),
    (CHAOS, "worker_panic", "failed_shards", false),
    (CHAOS, "poison_quarantine", "quarantined", true),
    // A clean wire never retries yet framing is still charged; wire
    // chaos forces retries, recovers its response-path fault via dedup
    // replay and bills the FaultRecovery lane; failover loses a shard.
    (TRANSPORT, "clean_wire", "retries", false),
    (TRANSPORT, "clean_wire", "replays", false),
    (TRANSPORT, "clean_wire", "comm_ms", true),
    (TRANSPORT, "wire_chaos", "retries", true),
    (TRANSPORT, "wire_chaos", "replays", true),
    (TRANSPORT, "wire_chaos", "fault_recovery_ms", true),
    (TRANSPORT, "failover_under_load", "failed_shards", true),
    (TRANSPORT, "failover_under_load", "restarts", true),
    // Responses actually stream; no tolerance, no cancels; a 30.0
    // tolerance and a 4 KiB budget on this imagery each cut at least
    // one sequence short; the chaos plan forces at least one retry.
    (PROGRESSIVE, "monolithic", "planes", false),
    (PROGRESSIVE, "monolithic", "cancels", false),
    (PROGRESSIVE, "progressive_lossless", "planes", true),
    (PROGRESSIVE, "progressive_lossless", "cancels", false),
    (PROGRESSIVE, "tolerance_cancel", "cancels", true),
    (PROGRESSIVE, "tolerance_cancel_chaos", "retries", true),
    (PROGRESSIVE, "byte_budget", "budget_stops", true),
    // The static layout never acts; the Zipf skew triggers steals in
    // both controller modes; the hot shard splits onto a reserve and
    // drained reserves retire.
    (ELASTIC, "static", "stolen", false),
    (ELASTIC, "static", "actions", false),
    (ELASTIC, "stealing", "stolen", true),
    (ELASTIC, "split_merge", "stolen", true),
    (ELASTIC, "split_merge", "splits", true),
    (ELASTIC, "split_merge", "merges", true),
];

/// [`SPOT_CHECKS`], plus the two chaos/transport gates that compare
/// rows: every chaos row that lost a shard charged the FaultRecovery
/// lane for it, and killing workers mid-load cannot improve the p99.
fn assert_spot_checks(runs: &[Run]) {
    for (section, name, key, fires) in SPOT_CHECKS {
        let value = column(find(runs, section, name), key).magnitude();
        assert!(
            if fires { value > 0.0 } else { value == 0.0 },
            "{section} {name}: {key} = {value}, must {}",
            if fires { "be positive" } else { "stay zero" }
        );
    }
    for run in section(runs, CHAOS) {
        let lost_shard = !run.metrics().failed_shards().is_empty();
        assert!(
            !lost_shard || run.budget().fault_pct() > 0.0,
            "{}: a lost shard must cost FaultRecovery time",
            run.name()
        );
    }
    let p99 = |name| find(runs, TRANSPORT, name).p_ms(0.99);
    assert!(
        p99("failover_under_load") >= p99("clean_wire"),
        "killing workers mid-load cannot improve the p99 tail"
    );
}

/// The progressive acceptance checks, on every generated grid:
///
/// * lossless streaming is *bitwise*: each delivered pyramid equals the
///   monolithic baseline's for the same request, with a zero bound;
/// * every reported error bound is honest against the local engine
///   oracle (`actual max-abs error <= bound`), and under a tolerance
///   never exceeds it;
/// * lossy streaming beats the monolithic counterfactual on response
///   bytes, and tolerance-met cancellation beats plain lossy.
///
/// (Nothing is ever lost, cancels and chaos included: [`run`] checks
/// that on every row; that each scenario streams, cancels or retries
/// as intended is in [`SPOT_CHECKS`].)
fn assert_progressive_coverage(runs: &[Run]) {
    let find = |name| find(runs, PROGRESSIVE, name);
    let (mono_cl, mono) = find("monolithic").closed();

    // Lossless streaming: bitwise against the monolithic baseline.
    let (_, lossless) = find("progressive_lossless").closed();
    for (i, (a, b)) in mono.outcomes.iter().zip(&lossless.outcomes).enumerate() {
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
    let requests = closed_requests(mono_cl.clients, mono_cl.reqs_per_client);
    for run in section(runs, PROGRESSIVE) {
        for (req, out) in requests.iter().zip(run.outcomes()) {
            let Some(Ok(resp)) = out else { continue };
            let oracle = dwt2d::decompose(&req.image, &req.bank, req.levels, req.mode)
                .expect("pool geometry is valid");
            let actual =
                pyramid_max_abs_diff(&resp.pyramid, &oracle).expect("geometry matches the oracle");
            assert!(
                actual <= resp.error_bound,
                "{}: actual error {actual} exceeds the reported bound {}",
                run.name(),
                resp.error_bound
            );
        }
    }

    // Bytes-to-tolerance: quantization shrinks the wire, cancellation
    // shrinks it further, and the tolerance is respected.
    let (_, lossy) = find("progressive_lossy").closed();
    assert!(
        lossy.response_bytes < lossy.monolithic_bytes,
        "lossy streaming must beat the monolithic counterfactual \
         ({} vs {} bytes)",
        lossy.response_bytes,
        lossy.monolithic_bytes
    );
    let cancel_run = find("tolerance_cancel");
    let (cancel_cl, cancel) = cancel_run.closed();
    let tolerance = cancel_cl.progressive.and_then(|p| p.tolerance);
    let tolerance = tolerance.expect("tolerance_cancel sets a tolerance");
    assert!(
        cancel_run.max_error_bound() <= tolerance,
        "a tolerance-met cancel must leave every bound within {tolerance}"
    );
    assert!(
        cancel.response_bytes < lossy.response_bytes,
        "cancellation must save bytes over reading every plane \
         ({} vs {} bytes)",
        cancel.response_bytes,
        lossy.response_bytes
    );
    // The byte budget is the second cancel predicate: every delivery
    // still terminates, the budget cuts are surfaced, and the wire
    // carries less than reading every plane would.
    let (_, budget) = find("byte_budget").closed();
    assert_eq!(
        budget.budget_stops, budget.cancels,
        "with no tolerance every cancel here is a budget stop"
    );
    assert!(
        budget.response_bytes < lossy.response_bytes,
        "a byte budget must save wire over reading every plane \
         ({} vs {} bytes)",
        budget.response_bytes,
        lossy.response_bytes
    );
}

/// Elastic acceptance criteria:
/// * the admission books balance despite migration (on top of the
///   exactly-once check [`run`] makes on every row);
/// * both controller modes beat the static layout on imbalance, and
///   hold the matched-set p95 at least even under the same skew.
fn assert_elastic_coverage(runs: &[Run]) {
    for run in section(runs, ELASTIC) {
        let m = run.metrics();
        assert_eq!(
            m.accepted(),
            m.completed() + m.rejected(RejectKind::Shed),
            "{}: migration must be counter-neutral in the books",
            run.name()
        );
    }
    let stat = find(runs, ELASTIC, "static");
    let stat_imbalance = stat.budget().imbalance_pct();
    for name in ["stealing", "split_merge"] {
        let ela = find(runs, ELASTIC, name);
        assert!(
            ela.budget().imbalance_pct() < stat_imbalance,
            "{name}: imbalance {:.2}% must undercut static {stat_imbalance:.2}%",
            ela.budget().imbalance_pct(),
        );
        let (stat_p95, ela_p95) = matched_p95(stat, ela);
        assert!(
            ela_p95 <= stat_p95,
            "{name}: matched-set p95 {:.4}ms must not regress static {:.4}ms",
            ela_p95 * 1e3,
            stat_p95 * 1e3
        );
    }
}

fn main() {
    let smoke = std::env::var("WSERV_SMOKE").is_ok_and(|v| v == "1");
    let sweep = || -> Vec<Run> {
        let table = scenarios(smoke);
        assert_table_complete(&table, smoke);
        table.into_iter().map(run).collect()
    };
    let runs = sweep();
    assert_dominance(&runs);
    assert_spot_checks(&runs);
    assert_progressive_coverage(&runs);
    assert_elastic_coverage(&runs);
    let doc = render(&document(&runs));

    // Byte-reproducibility is the contract: run the whole table again
    // and require the identical document.
    assert_eq!(
        doc,
        render(&document(&sweep())),
        "service bench must be byte-reproducible"
    );

    let path = if smoke {
        "target/BENCH_service_smoke.json"
    } else {
        "BENCH_service.json"
    };
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::render_row;

    /// Fast golden for the shared row renderer (`bench::render_row`, which
    /// `bench_dwt` and `bench_faults` write through too) and the column
    /// definitions: one full-scale scenario per value kind, run and
    /// rendered, against its line as committed in `BENCH_service.json` —
    /// a `results` row for the `{}`-displayed `rate_hz` and the
    /// `{:.4}`/`{:.6}`/`{:.9}` floats, a `chaos_results` row for the
    /// `failed_shards` list, a `progressive_results` row for `null`
    /// tolerance and byte budget.
    #[test]
    fn rows_render_as_committed() {
        let committed = [
            (
                RESULTS,
                grid_name(1, 16, 8, 5_000.0),
                r#"{"shards": 1, "cache_capacity": 16, "max_batch": 8, "rate_hz": 5000, "accepted": 1500, "completed": 1500, "rejected_queue_full": 0, "rejected_shed": 0, "rejected_deadline": 0, "cache_hit_rate": 0.9893, "mean_batch_occupancy": 1.0013, "p50_ms": 0.034373, "p95_ms": 0.093355, "p99_ms": 0.120842, "throughput_hz": 4884.350, "makespan_s": 0.307103293, "useful_pct": 5.754, "imbalance_pct": 80.949}"#,
            ),
            (
                CHAOS,
                "shard_crash_failover".into(),
                r#"{"scenario": "shard_crash_failover", "shards": 3, "rate_hz": 50000, "requests": 800, "completed": 788, "degraded_served": 0, "restarts": 2, "requeued": 66, "quarantined": 0, "rejected_total": 12, "rejected_shard_failed": 0, "rejected_requeued": 0, "rejected_deadline": 0, "failed_shards": [0], "p95_ms": 2.300808, "throughput_hz": 49315.010, "makespan_s": 0.015978908, "fault_recovery_pct": 15.463}"#,
            ),
            (
                PROGRESSIVE,
                "monolithic".into(),
                r#"{"scenario": "monolithic", "clients": 4, "reqs_per_client": 12, "delivered": 48, "threshold": 0, "step": 0, "tolerance": null, "byte_budget": null, "planes": 0, "cancels": 0, "budget_stops": 0, "response_bytes": 1747968, "monolithic_bytes": 1747968, "savings_pct": 0.000, "max_error_bound": 0.000000, "p50_ms": 0.198386, "p95_ms": 0.346642, "p99_ms": 0.520466, "comm_ms": 8.147277, "throughput_hz": 16654.546, "makespan_s": 0.002882096}"#,
            ),
        ];
        let mut table = scenarios(false);
        for (section, name, line) in committed {
            let at = table
                .iter()
                .position(|s| s.section == section && s.name == name);
            let run = run(table.swap_remove(at.expect("scenario in the table")));
            assert_eq!(render_row(&row(&run)), line);
        }
    }
}
