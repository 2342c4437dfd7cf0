//! The five workloads. Each runs in its own process, so `setup_s` and
//! `peak_rss_mb` are per-workload.

use dwt::Matrix;
use wserv::{MetricsSnapshot, ProgressiveTally, TransportMetrics};

use crate::config::ShapeSpec;
use crate::stats::Sample;

pub mod kernel;
pub mod pipe;
pub mod rpc;

/// What the remote layers counted during one live pass.
pub struct RemoteSide {
    /// Server-side counters, merged over connections at shutdown.
    pub transport: TransportMetrics,
    /// Client-side progressive tallies, summed over clients.
    pub tally: ProgressiveTally,
    pub retries: u64,
    /// Calls completed over the server's whole life (warm-up included):
    /// the base of the per-request ratios.
    pub calls: u64,
    /// Seconds the server was up.
    pub wall_s: f64,
    /// Frame bytes per request of the same calls delivered
    /// monolithically, computed by encoding them in the harness.
    pub mono_bytes_per_req: f64,
}

/// One live pass: warm-up, then a timed closed loop.
#[derive(Default)]
pub struct Live {
    /// One per operation completed in the timed phase.
    pub samples: Vec<Sample>,
    /// Operations of the timed phase, and those that failed: transport
    /// errors, rejections and oracle mismatches alike.
    pub attempted: u64,
    pub failed: u64,
    /// Timed-phase responses served from a cached plan.
    pub cache_hits: u64,
    /// `DecomposeResponse::{wait_s, service_s}` of the timed phase.
    pub queue_wait_s: Vec<f64>,
    pub service_s: Vec<f64>,
    /// Largest `error_bound` a response reported.
    pub max_error_bound: f64,
    /// Per-variant `(decompose_s, reconstruct_s)` of each timed cycle
    /// (`kernel_2048` only), in `KERNEL_ORDER`.
    pub variant_s: Vec<Vec<(f64, f64)>>,
    /// Same-footprint copy rates interleaved between cycles.
    pub copy_gbps: Vec<f64>,
    /// The service's books at shutdown, where a service ran.
    pub service: Option<MetricsSnapshot>,
    pub shard_map_epoch: u64,
    pub remote: Option<RemoteSide>,
    /// What the workload was chosen for and did not do.
    pub broken_invariants: Vec<String>,
}

/// The request the layer probes and the staged replay run on: the
/// workload's own first image and shape.
pub struct ProbeInput {
    pub image: Matrix,
    pub spec: ShapeSpec,
}

pub trait Workload: Sized {
    /// Everything before the first timed operation: image synthesis,
    /// server start, connect, cache warm. Same seed, same inputs.
    fn setup(name: &str, seed: u64) -> Self;

    fn probe_input(&self) -> ProbeInput;

    /// Warm up for `warm_s`, measure for `timed_s`, shut down.
    /// `calibrate` interleaves host calibration (traced runs only).
    fn run(self, warm_s: f64, timed_s: f64, calibrate: bool) -> Live;
}

/// Fold a response's serving metadata into the live books.
pub(crate) fn note_response(live: &mut Live, resp: &wserv::DecomposeResponse) {
    live.cache_hits += resp.cache_hit as u64;
    live.queue_wait_s.push(resp.wait_s);
    live.service_s.push(resp.service_s);
    live.max_error_bound = live.max_error_bound.max(resp.error_bound);
}
