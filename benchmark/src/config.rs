//! Every frozen literal of the benchmark: workload names, shape pools,
//! service configurations, the progressive tolerance. They are echoed
//! into each result so a number can be read against what produced it;
//! changing one is changing the benchmark.

use std::time::Duration;

use dwt::engine::DwtPlan;
use dwt::{Boundary, FilterBank, Matrix};
use dwt_mimd::CheckpointCodec;
use imagery::{landsat_scene, SceneParams};
use wserv::{DecomposeRequest, ElasticPolicy, Priority, RemoteConfig, ServiceConfig};

use crate::json::Value;
use crate::rng::SplitMix64;

pub const DEFAULT_SEED: u64 = 1996;
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Untimed closed-loop running before the timed phase, as a share of
/// `--seconds`: caches fill, threads and sockets settle.
pub const WARMUP_SHARE: f64 = 0.15;
/// An untraced run is this many epochs, each a fresh set-up (new
/// buffers, threads and sockets), its own warm-up and an equal share of
/// `--seconds`; each epoch is one block of the estimator. Runs of one
/// commit differed persistently — `pipe_zipf` by 12 % — through
/// per-instance state (page and thread placement, histogram growth)
/// that one instance never averages out; re-rolling the instance
/// inside the run cut that to 2 %. `setup_s` is the median set-up.
pub const EPOCHS: usize = crate::stats::BLOCKS;
/// A traced run spends this share of `--seconds` on its (untraced)
/// live pass and the rest on the staged replay and the layer probes.
pub const TRACE_LIVE_SHARE: f64 = 0.4;

pub const KERNEL_2048: &str = "kernel_2048";
pub const RPC_SMALL_HOT: &str = "rpc_small_hot";
pub const RPC_LARGE_MONO: &str = "rpc_large_mono";
pub const RPC_LARGE_PROGRESSIVE: &str = "rpc_large_progressive";
pub const PIPE_ZIPF: &str = "pipe_zipf";
pub const WORKLOADS: [&str; 5] = [
    KERNEL_2048,
    RPC_SMALL_HOT,
    RPC_LARGE_MONO,
    RPC_LARGE_PROGRESSIVE,
    PIPE_ZIPF,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bank {
    Haar,
    D4,
    Cdf53,
    Cdf97,
}

impl Bank {
    pub fn build(self) -> FilterBank {
        match self {
            Bank::Haar => FilterBank::haar(),
            Bank::D4 => FilterBank::daubechies(4).expect("D4 is a valid bank"),
            Bank::Cdf53 => FilterBank::cdf53(),
            Bank::Cdf97 => FilterBank::cdf97(),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Bank::Haar => "haar",
            Bank::D4 => "d4",
            Bank::Cdf53 => "cdf53",
            Bank::Cdf97 => "cdf97",
        }
    }
}

/// One request shape: a square image side, a bank, a depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeSpec {
    pub size: usize,
    pub bank: Bank,
    pub levels: usize,
}

const fn shape(size: usize, bank: Bank, levels: usize) -> ShapeSpec {
    ShapeSpec { size, bank, levels }
}

impl ShapeSpec {
    /// A single-threaded plan for this shape, periodic boundaries.
    pub fn plan(&self) -> DwtPlan {
        DwtPlan::new(
            self.size,
            self.size,
            self.bank.build(),
            self.levels,
            Boundary::Periodic,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", self.label()))
    }

    pub fn px(&self) -> u64 {
        (self.size * self.size) as u64
    }

    pub fn label(&self) -> String {
        format!(
            "{}x{} {} L{}",
            self.size,
            self.size,
            self.bank.label(),
            self.levels
        )
    }
}

// ---------------------------------------------------------------------
// Images
// ---------------------------------------------------------------------

/// Scene content is literal; the seed chooses where the scene sits.
///
/// Progressive delivery is data-dependent — plane order, the
/// sparse/dense choice and the cancel point all follow coefficient
/// magnitudes — and on seed-salted scenes the planes needed to reach
/// one tolerance ran from 0 to 8 of 9, so no metric of that workload
/// could be compared across seeds. A circular shift by a multiple of
/// 2^levels leaves every coefficient magnitude of a periodic DWT
/// unchanged while moving every byte on the wire.
pub const SCENE_SALTS: [u64; 8] = [1996, 2024, 2, 77, 3, 999, 12345, 1];
/// Shifts are multiples of this (2^3, the deepest decomposition used).
pub const SHIFT_QUANTUM: usize = 8;

/// Scene `slot` at `size`², circularly shifted by seed-drawn offsets.
pub fn make_image(size: usize, slot: usize, rng: &mut SplitMix64) -> Matrix {
    let base = landsat_scene(
        size,
        size,
        SceneParams {
            seed: SCENE_SALTS[slot % SCENE_SALTS.len()],
            ..SceneParams::default()
        },
    );
    let dr = SHIFT_QUANTUM * rng.below(size / SHIFT_QUANTUM);
    let dc = SHIFT_QUANTUM * rng.below(size / SHIFT_QUANTUM);
    let mut out = Matrix::zeros(size, size);
    for r in 0..size {
        let src = base.row((r + dr) % size);
        let dst = out.row_mut(r);
        dst[..size - dc].copy_from_slice(&src[dc..]);
        dst[size - dc..].copy_from_slice(&src[..dc]);
    }
    out
}

// ---------------------------------------------------------------------
// kernel_2048
// ---------------------------------------------------------------------

/// Image and depth of every variant; the bank named here is the one
/// the layer probes of this workload run on.
pub const KERNEL_SHAPE: ShapeSpec = shape(2048, Bank::Cdf53, 3);
/// The six variants of one cycle — three banks × {1, nproc} engine
/// threads — interleaved so no bank or thread count runs back to back.
pub const KERNEL_ORDER: [(Bank, bool); 6] = [
    (Bank::D4, false),
    (Bank::Cdf53, true),
    (Bank::Cdf97, false),
    (Bank::D4, true),
    (Bank::Cdf53, false),
    (Bank::Cdf97, true),
];
/// Round-trip tolerance of `reconstruct(decompose(x))` against `x`.
pub const ROUND_TRIP_TOLERANCE: f64 = 1e-10;

/// `d4_1t`, `cdf53_nt`, …: the suffix of the per-variant metric names.
pub fn variant_label(bank: Bank, all_threads: bool) -> String {
    format!("{}_{}", bank.label(), if all_threads { "nt" } else { "1t" })
}

// ---------------------------------------------------------------------
// rpc_*
// ---------------------------------------------------------------------

pub const RPC_CLIENTS: usize = 2;
pub const SMALL_SHAPES: [ShapeSpec; 4] = [
    shape(64, Bank::Haar, 2),
    shape(64, Bank::D4, 2),
    shape(64, Bank::Cdf53, 2),
    shape(64, Bank::Cdf97, 2),
];
pub const SMALL_IMAGES: usize = 8;
pub const LARGE_SHAPES: [ShapeSpec; 2] = [shape(512, Bank::Cdf53, 3), shape(512, Bank::D4, 3)];
pub const LARGE_IMAGES: usize = 4;

/// Quantizer the progressive server applies to detail planes.
pub const PROGRESSIVE_QUANT: CheckpointCodec = CheckpointCodec::WaveletQuant {
    threshold: 0.25,
    step: 0.5,
};
/// Client tolerance (largest absolute coefficient error accepted, on
/// 0–255 imagery). Frozen so that every one of the eight scene × shape
/// pairs of `rpc_large_*` cancels after 3–5 of its 9 planes.
pub const PROGRESSIVE_TOLERANCE: f64 = 100.0;

pub const POLL_TICK: Duration = Duration::from_millis(1);

pub fn rpc_service() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(2)
        .with_queue_capacity(64)
        .with_cache_capacity(16)
        .with_max_batch(4)
}

pub fn rpc_remote(progressive: bool) -> RemoteConfig {
    RemoteConfig {
        window: 8,
        tick: POLL_TICK,
        progressive: progressive.then_some(PROGRESSIVE_QUANT),
        ..RemoteConfig::default()
    }
}

// ---------------------------------------------------------------------
// pipe_zipf
// ---------------------------------------------------------------------

pub const PIPE_WINDOW: usize = 32;
pub const ZIPF_S: f64 = 1.1;
pub const PIPE_IMAGES_PER_SIZE: usize = 2;
/// Zipf rank order: rank 0 is drawn ~28 % of the time, rank 23 ~1 %.
/// 24 shapes against 8 cache slots per shard, so plans are evicted.
pub const PIPE_POOL: [ShapeSpec; 24] = [
    shape(64, Bank::Cdf53, 2),
    shape(32, Bank::Haar, 1),
    shape(128, Bank::D4, 3),
    shape(64, Bank::Cdf97, 3),
    shape(32, Bank::D4, 2),
    shape(128, Bank::Cdf53, 2),
    shape(64, Bank::Haar, 2),
    shape(32, Bank::Cdf97, 1),
    shape(128, Bank::Cdf97, 3),
    shape(64, Bank::D4, 1),
    shape(32, Bank::Cdf53, 3),
    shape(128, Bank::Haar, 1),
    shape(64, Bank::Cdf53, 3),
    shape(32, Bank::Haar, 2),
    shape(128, Bank::D4, 2),
    shape(64, Bank::Cdf97, 1),
    shape(32, Bank::D4, 3),
    shape(128, Bank::Cdf53, 1),
    shape(64, Bank::Haar, 3),
    shape(32, Bank::Cdf97, 2),
    shape(128, Bank::Cdf97, 2),
    shape(64, Bank::D4, 3),
    shape(32, Bank::Cdf53, 1),
    shape(128, Bank::Haar, 3),
];

pub fn pipe_service() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(2)
        .with_queue_capacity(64)
        .with_cache_capacity(8)
        .with_max_batch(4)
        .with_elastic(ElasticPolicy::stealing())
}

/// 20 % interactive, 60 % standard, 20 % batch.
pub fn draw_priority(rng: &mut SplitMix64) -> Priority {
    match rng.below(5) {
        0 => Priority::Interactive,
        4 => Priority::Batch,
        _ => Priority::Standard,
    }
}

pub fn request(image: &Matrix, spec: ShapeSpec) -> DecomposeRequest {
    DecomposeRequest::new(image.clone(), spec.bank.build(), spec.levels)
}

// ---------------------------------------------------------------------
// Echo into results
// ---------------------------------------------------------------------

fn shapes_json(shapes: &[ShapeSpec]) -> Value {
    Value::Arr(shapes.iter().map(|s| Value::str(s.label())).collect())
}

fn service_json(c: &ServiceConfig) -> Value {
    Value::obj([
        ("shards", Value::Num(c.shards as f64)),
        ("queue_capacity", Value::Num(c.queue_capacity as f64)),
        ("cache_capacity", Value::Num(c.cache_capacity as f64)),
        ("max_batch", Value::Num(c.batch.max_batch as f64)),
        ("engine_threads", Value::Num(c.engine_threads as f64)),
        (
            "elastic",
            Value::str(if c.elastic.is_some() {
                "stealing"
            } else {
                "off"
            }),
        ),
    ])
}

fn rpc_json(shapes: &[ShapeSpec], images: usize, progressive: bool) -> Value {
    let remote = rpc_remote(progressive);
    let mut fields = vec![
        ("loop", Value::str("closed")),
        ("clients", Value::Num(RPC_CLIENTS as f64)),
        ("transport", Value::str("tcp loopback")),
        ("shapes", shapes_json(shapes)),
        ("images_per_shape", Value::Num(images as f64)),
        ("service", service_json(&rpc_service())),
        ("window", Value::Num(remote.window as f64)),
        ("tick_ms", Value::Num(remote.tick.as_secs_f64() * 1e3)),
        ("progressive", Value::Bool(progressive)),
    ];
    if progressive {
        fields.push(("quant_threshold", Value::Num(0.25)));
        fields.push(("quant_step", Value::Num(0.5)));
        fields.push(("tolerance", Value::Num(PROGRESSIVE_TOLERANCE)));
    }
    Value::obj(fields)
}

/// The literals behind `workload`, for the result JSON.
pub fn echo(workload: &str) -> Value {
    match workload {
        KERNEL_2048 => Value::obj([
            ("loop", Value::str("closed, 1 caller")),
            ("size", Value::Num(KERNEL_SHAPE.size as f64)),
            ("levels", Value::Num(KERNEL_SHAPE.levels as f64)),
            (
                "cycle",
                Value::Arr(
                    KERNEL_ORDER
                        .iter()
                        .map(|&(b, nt)| Value::str(variant_label(b, nt)))
                        .collect(),
                ),
            ),
            ("round_trip_tolerance", Value::Num(ROUND_TRIP_TOLERANCE)),
        ]),
        RPC_SMALL_HOT => rpc_json(&SMALL_SHAPES, SMALL_IMAGES, false),
        RPC_LARGE_MONO => rpc_json(&LARGE_SHAPES, LARGE_IMAGES, false),
        RPC_LARGE_PROGRESSIVE => rpc_json(&LARGE_SHAPES, LARGE_IMAGES, true),
        PIPE_ZIPF => Value::obj([
            ("loop", Value::str("closed, 1 generator, FIFO wait")),
            ("window", Value::Num(PIPE_WINDOW as f64)),
            ("zipf_s", Value::Num(ZIPF_S)),
            ("shapes", shapes_json(&PIPE_POOL)),
            ("images_per_size", Value::Num(PIPE_IMAGES_PER_SIZE as f64)),
            (
                "priorities",
                Value::str("20% interactive, 60% standard, 20% batch"),
            ),
            ("service", service_json(&pipe_service())),
        ]),
        other => panic!("no workload named {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_are_reproducible_from_the_seed() {
        let draw = |seed| make_image(64, 0, &mut SplitMix64::new(seed));
        assert_eq!(draw(1996), draw(1996));
        assert_ne!(draw(1996), draw(2024));
    }

    #[test]
    fn a_seed_shift_keeps_coefficient_magnitudes() {
        // What the cross-seed comparison of the progressive workload
        // rests on: shifted scenes have the same sorted |coefficients|.
        let sorted_abs = |seed| {
            let img = make_image(64, 1, &mut SplitMix64::new(seed));
            let mut v = Vec::new();
            shape(64, Bank::Cdf53, 3)
                .plan()
                .decompose(&img)
                .unwrap()
                .for_each_coeff(|c| v.push(c.abs()));
            v.sort_by(f64::total_cmp);
            v
        };
        let (a, b) = (sorted_abs(5), sorted_abs(6));
        assert!(a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-9));
    }

    #[test]
    fn every_pool_shape_is_a_valid_plan() {
        let all = SMALL_SHAPES.iter().chain(&LARGE_SHAPES).chain(&PIPE_POOL);
        for s in all {
            s.plan();
            assert_eq!(s.size % SHIFT_QUANTUM, 0);
            assert!(s.levels <= 3);
        }
        let mut distinct: Vec<String> = PIPE_POOL.iter().map(ShapeSpec::label).collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 24, "pool shapes are distinct");
    }
}
