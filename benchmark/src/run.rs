//! One run of one workload: untraced (end-to-end metrics) or traced
//! (per-layer metrics: a shorter live pass, the layer probes, and the
//! staged replay that writes the trace file).

use std::time::Instant;

use wserv::ServiceConfig;

use crate::config::{
    self, EPOCHS, KERNEL_2048, PIPE_ZIPF, RPC_LARGE_MONO, RPC_LARGE_PROGRESSIVE, RPC_SMALL_HOT,
    TRACE_LIVE_SHARE, WARMUP_SHARE,
};
use crate::host;
use crate::json::Value;
use crate::probes;
use crate::replay::{self, Path};
use crate::report::{end_to_end, per_layer, result_line, Report};
use crate::spans;
use crate::stats::{self, blocked, median, quantile_sorted, Blocked, Estimate};
use crate::workloads::kernel::Kernel;
use crate::workloads::pipe::Pipe;
use crate::workloads::rpc::Rpc;
use crate::workloads::{Live, Workload};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the trace file goes.
    pub out_dir: String,
}

pub struct Outcome {
    /// The contract's result line.
    pub line: Value,
    /// Quartiles, sample counts and the frozen literals behind it.
    pub detail: Value,
    pub correct: bool,
    pub broken_invariants: Vec<String>,
}

fn estimate_json(e: &Estimate) -> Value {
    Value::obj([
        ("q1", Value::Num(e.q1)),
        ("median", Value::Num(e.median)),
        ("q3", Value::Num(e.q3)),
        ("n", Value::Num(e.n as f64)),
    ])
}

fn untraced<W: Workload>(args: &RunArgs) -> Outcome {
    let share = 1.0 / EPOCHS as f64;
    let mut setup_s = Vec::new();
    let mut blocks = Vec::new();
    let mut all = Live::default();
    // Every latency of the run, for the p99 line. Samples themselves
    // are dropped with their epoch so that `peak_rss_mb` reads the
    // system's memory, not the harness's.
    let mut lats = Vec::new();
    for _ in 0..EPOCHS {
        let t0 = Instant::now();
        let w = W::setup(&args.workload, args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        let live = w.run(
            WARMUP_SHARE * share * args.seconds,
            share * args.seconds,
            false,
        );
        blocks.extend(stats::cut(&live.samples, 1));
        lats.extend(live.samples.iter().map(|s| (s.lat_s * 1e3) as f32));
        all.attempted += live.attempted;
        all.failed += live.failed;
        all.broken_invariants.extend(live.broken_invariants);
    }
    let b = Blocked::of(&blocks);
    let setup = Estimate::of(&setup_s);

    let mut report = Report::new(end_to_end());
    report.set("setup_s", setup.median);
    report.set("throughput_mpx_s", b.mpx_per_s.median);
    report.set("req_per_s", b.ops_per_s.median);
    report.set("lat_p50_ms", b.lat_ms.median);
    report.set("peak_rss_mb", host::peak_rss_mib());

    let mut spread = vec![
        ("setup_s", estimate_json(&setup)),
        ("throughput_mpx_s", estimate_json(&b.mpx_per_s)),
        ("req_per_s", estimate_json(&b.ops_per_s)),
        ("lat_p50_ms", estimate_json(&b.lat_ms)),
    ];
    // p99 only when ten samples lie beyond it; otherwise omitted.
    let lats: Vec<f64> = lats.into_iter().map(f64::from).collect();
    if let Some(p99) = stats::p99(&lats) {
        spread.push(("lat_p99_ms", Value::obj([("value", Value::Num(p99))])));
    }
    finish(args, report, all, b.samples, Value::obj(spread))
}

/// Which pipeline and service configuration a workload exercises.
fn path_of(workload: &str) -> (Path, ServiceConfig) {
    match workload {
        KERNEL_2048 => (Path::Kernel, config::rpc_service()),
        RPC_SMALL_HOT | RPC_LARGE_MONO => {
            (Path::Remote { progressive: false }, config::rpc_service())
        }
        RPC_LARGE_PROGRESSIVE => (Path::Remote { progressive: true }, config::rpc_service()),
        PIPE_ZIPF => (Path::Service, config::pipe_service()),
        other => panic!("no workload named {other}"),
    }
}

/// Counters the live layers kept, read at shutdown.
fn report_counters(report: &mut Report, live: &Live) {
    let served = (live.attempted - live.failed).max(1) as f64;
    if let Some(snap) = &live.service {
        use wserv::RejectKind::*;
        report.set("admission.accepted", snap.accepted() as f64);
        report.set(
            "admission.rejected.queue_full",
            snap.rejected(QueueFull) as f64,
        );
        report.set("admission.rejected.shed", snap.rejected(Shed) as f64);
        report.set(
            "admission.rejected.deadline_expired",
            snap.rejected(DeadlineExpired) as f64,
        );
        report.set("batch.mean_occupancy", snap.mean_batch_occupancy());
        report.set(
            "batch.batches",
            snap.shards.iter().map(|s| s.batches).sum::<u64>() as f64,
        );
        report.set("cache.hit_rate", live.cache_hits as f64 / served);
        report.set(
            "cache.evictions",
            snap.shards.iter().map(|s| s.cache_evictions).sum::<u64>() as f64,
        );
        report.set("elastic.steals", snap.stolen() as f64);
        report.set("elastic.epoch", live.shard_map_epoch as f64);
        if let Some(budget) = snap.budget_report() {
            report.set("elastic.imbalance_pct", budget.imbalance_pct());
        }
        // The paper's lane vocabulary, as shares of shard lifetime.
        let total: f64 = snap.shards.iter().map(|s| s.lanes.completion).sum();
        let lane = |f: fn(&wserv::ShardMetrics) -> f64| {
            100.0 * snap.shards.iter().map(f).sum::<f64>() / total.max(f64::MIN_POSITIVE)
        };
        report.set("server.lane.useful_pct", lane(|s| s.lanes.useful));
        report.set("server.lane.duplication_pct", lane(|s| s.lanes.duplication));
        report.set(
            "server.lane.unique_redundancy_pct",
            lane(|s| s.lanes.unique_redundancy),
        );
        report.set(
            "server.lane.communication_pct",
            lane(|s| s.lanes.communication),
        );
        report.set("server.lane.wait_pct", lane(|s| s.lanes.wait));
        // Queueing as the live run saw it replaces the idle probe's.
        report.set("server.queue_wait_ms", median(&live.queue_wait_s) * 1e3);
        report.set("server.service_ms", median(&live.service_s) * 1e3);
    }
    if let Some(r) = &live.remote {
        let calls = r.calls.max(1) as f64;
        let t = &r.transport;
        let bytes_per_req = (t.bytes_in + t.bytes_out) as f64 / calls;
        report.set(
            "transport.frames_per_req",
            (t.frames_in + t.frames_out) as f64 / calls,
        );
        report.set("transport.bytes_per_req", bytes_per_req);
        report.set("transport.ser_share", t.ser_s / r.wall_s);
        report.set("remote.retries", r.retries as f64);
        report.set("remote.dedup_replays", t.dedup_replays as f64);
        report.set(
            "progressive.bytes_saved_share",
            1.0 - bytes_per_req / r.mono_bytes_per_req,
        );
        if r.tally.headers > 0 {
            let sequences = r.tally.headers as f64;
            report.set(
                "progressive.planes_per_req",
                r.tally.planes as f64 / sequences,
            );
            report.set(
                "progressive.cancel_share",
                r.tally.cancels as f64 / sequences,
            );
            report.set("progressive.max_error_bound", live.max_error_bound);
        }
    }
}

fn traced<W: Workload>(args: &RunArgs) -> Outcome {
    let w = W::setup(&args.workload, args.seed);
    let input = w.probe_input();
    let live = w.run(
        WARMUP_SHARE * TRACE_LIVE_SHARE * args.seconds,
        TRACE_LIVE_SHARE * args.seconds,
        true,
    );
    let b = blocked(&live.samples);
    let mut lats: Vec<f64> = live.samples.iter().map(|s| s.lat_s * 1e3).collect();
    lats.sort_by(f64::total_cmp);
    let tail_q = stats::supported_tail(lats.len());

    let mut report = Report::new(per_layer());
    report.set("host.nproc", host::nproc() as f64);
    report.set("host.llc_mib", host::llc_mib());
    report.set("gen.blocks", b.lat_ms.n as f64);
    report.set("gen.samples", b.samples as f64);
    report.set("gen.lat_p50_ms", b.lat_ms.median);
    report.set("gen.lat_tail_ms", quantile_sorted(&lats, tail_q));
    report.set("gen.lat_tail_q", tail_q);

    // What is left of --seconds goes to the probes and the replay.
    let rest_s = (1.0 - TRACE_LIVE_SHARE * (1.0 + WARMUP_SHARE)) * args.seconds;
    let (path, service) = path_of(&args.workload);
    if live.variant_s.is_empty() {
        let (variant_s, copy) = probes::kernel_variants(&input, 0.15 * rest_s);
        probes::report_kernel(&mut report, input.spec, &variant_s, &copy);
    } else {
        probes::report_kernel(&mut report, input.spec, &live.variant_s, &live.copy_gbps);
    }
    let progressive = path == Path::Remote { progressive: true };
    probes::run(
        &mut report,
        &input,
        service.clone(),
        progressive,
        0.6 * rest_s,
    );

    // The replay is serial, so what it attributes is set against the
    // same operation issued alone — not against the live pass, whose
    // concurrent callers overlap their waits.
    let solo_ms = match path {
        Path::Kernel => b.lat_ms.median,
        Path::Service => report.get("server.submit_wait_ms"),
        Path::Remote { .. } => report.get("remote.call_solo_ms"),
    };
    report_counters(&mut report, &live);
    let replayed = replay::drive(replay::pipeline(path, &input, service), 0.25 * rest_s);
    let unattributed_ms = solo_ms - replayed.attributed_ms;
    report.set("gen.solo_p50_ms", solo_ms);
    report.set("trace.attributed_ms", replayed.attributed_ms);
    report.set("trace.overhead_pct", replayed.overhead_pct);
    report.set("remote.unattributed_ms", unattributed_ms);
    if replayed.attributed_ms > 1.10 * solo_ms {
        eprintln!(
            "warning: the replay attributes {:.4} ms, more than 1.10 x the {solo_ms:.4} ms \
             of the operation issued alone",
            replayed.attributed_ms
        );
    }

    let self_time_ms = Value::Obj(
        replayed
            .table
            .iter()
            .map(|((layer, name), ms)| (format!("{layer}.{name}"), Value::Num(*ms)))
            .collect(),
    );
    let trace = Value::obj([
        ("workload", Value::str(&args.workload)),
        ("seed", Value::Num(args.seed as f64)),
        ("requests", Value::Num(replayed.requests as f64)),
        ("live_lat_p50_ms", Value::Num(b.lat_ms.median)),
        ("solo_p50_ms", Value::Num(solo_ms)),
        ("attributed_ms", Value::Num(replayed.attributed_ms)),
        ("unattributed_ms", Value::Num(unattributed_ms)),
        ("overhead_pct", Value::Num(replayed.overhead_pct)),
        ("self_time_ms", self_time_ms.clone()),
        ("spans", spans::to_json(&replayed.spans)),
    ]);
    let path = format!("{}/trace_{}.json", args.out_dir, args.workload);
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, format!("{trace}\n")))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));

    let extra = Value::obj([
        ("trace_file", Value::str(path)),
        ("self_time_ms", self_time_ms),
        ("lat_p50_ms", estimate_json(&b.lat_ms)),
    ]);
    finish(args, report, live, b.samples, extra)
}

fn finish(args: &RunArgs, report: Report, live: Live, samples: usize, spread: Value) -> Outcome {
    let correct = live.failed == 0;
    let line = result_line(correct, live.attempted, live.failed, report.metrics_json());
    let detail = Value::obj([
        ("workload", Value::str(&args.workload)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::Num(host::nproc() as f64)),
        ("samples", Value::Num(samples as f64)),
        ("spread", spread),
        ("config", config::echo(&args.workload)),
    ]);
    Outcome {
        line,
        detail,
        correct,
        broken_invariants: live.broken_invariants,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    fn go<W: Workload>(args: &RunArgs) -> Outcome {
        if args.trace {
            traced::<W>(args)
        } else {
            untraced::<W>(args)
        }
    }
    match args.workload.as_str() {
        KERNEL_2048 => go::<Kernel>(args),
        RPC_SMALL_HOT | RPC_LARGE_MONO | RPC_LARGE_PROGRESSIVE => go::<Rpc>(args),
        PIPE_ZIPF => go::<Pipe>(args),
        other => panic!("no workload named {other}"),
    }
}
