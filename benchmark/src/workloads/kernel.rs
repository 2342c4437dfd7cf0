//! `kernel_2048`: offline closed loop on the engine alone. `dwt` does
//! all the work and `wserv` none — where a kernel change must show and
//! a serving change must show nothing.

use std::time::Instant;

use dwt::engine::{DwtPlan, DwtWorkspace};
use dwt::{Boundary, Matrix, Pyramid};

use super::{Live, ProbeInput, Workload};
use crate::config::{make_image, KERNEL_ORDER, KERNEL_SHAPE, ROUND_TRIP_TOLERANCE};
use crate::host;
use crate::oracle::max_abs_err;
use crate::rng::SplitMix64;
use crate::stats::Sample;

pub struct Variant {
    plan: DwtPlan,
    ws: DwtWorkspace,
}

/// The six variants of [`KERNEL_ORDER`] over one image, sharing one
/// output pyramid and one reconstruction buffer.
pub struct KernelRig {
    pub image: Matrix,
    pub variants: Vec<Variant>,
    pyramid: Pyramid,
    back: Matrix,
}

impl KernelRig {
    pub fn new(image: Matrix, levels: usize) -> Self {
        let (rows, cols) = (image.rows(), image.cols());
        let variants: Vec<Variant> = KERNEL_ORDER
            .iter()
            .map(|&(bank, all_threads)| {
                let threads = if all_threads { host::nproc() } else { 1 };
                let plan = DwtPlan::new(rows, cols, bank.build(), levels, Boundary::Periodic)
                    .expect("kernel shapes are valid plans")
                    .with_threads(threads);
                let ws = plan.make_workspace();
                Variant { plan, ws }
            })
            .collect();
        let pyramid = variants[0].plan.make_pyramid();
        KernelRig {
            back: Matrix::zeros(rows, cols),
            image,
            variants,
            pyramid,
        }
    }

    pub fn px(&self) -> u64 {
        (self.image.rows() * self.image.cols()) as u64
    }

    pub fn decompose(&mut self, i: usize) {
        let v = &mut self.variants[i];
        v.plan
            .decompose_into(&self.image, &mut v.ws, &mut self.pyramid)
            .expect("plan matches its own image");
    }

    /// Invert the last [`KernelRig::decompose`] with variant `i`.
    pub fn reconstruct(&mut self, i: usize) {
        let v = &mut self.variants[i];
        v.plan
            .reconstruct_into(&self.pyramid, &mut v.ws, &mut self.back)
            .expect("plan matches its own pyramid");
    }

    /// Decompose then reconstruct with variant `i`; seconds of each.
    pub fn run(&mut self, i: usize) -> (f64, f64) {
        let t0 = Instant::now();
        self.decompose(i);
        let t1 = Instant::now();
        self.reconstruct(i);
        let t2 = Instant::now();
        ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
    }

    /// Whether the last [`KernelRig::run`] reproduced the image.
    pub fn round_trip_ok(&self) -> bool {
        max_abs_err(self.back.data(), self.image.data()) <= ROUND_TRIP_TOLERANCE
    }

    /// One same-footprint copy (image into the reconstruction buffer).
    pub fn copy_gbps(&mut self) -> f64 {
        host::copy_gbps(self.image.data(), self.back.data_mut())
    }

    /// One cycle over the six variants. `check` names the variants
    /// whose round trip is verified (outside the timed segments).
    /// Returns the per-variant times and whether every check passed.
    pub fn cycle(&mut self, check: impl Fn(usize) -> bool) -> (Vec<(f64, f64)>, bool) {
        let mut ok = true;
        let times = (0..self.variants.len())
            .map(|i| {
                let t = self.run(i);
                if check(i) {
                    ok &= self.round_trip_ok();
                }
                t
            })
            .collect();
        (times, ok)
    }
}

pub struct Kernel {
    rig: KernelRig,
}

impl Workload for Kernel {
    fn setup(_name: &str, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let image = make_image(KERNEL_SHAPE.size, 0, &mut rng);
        Kernel {
            rig: KernelRig::new(image, KERNEL_SHAPE.levels),
        }
    }

    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            image: self.rig.image.clone(),
            spec: KERNEL_SHAPE,
        }
    }

    fn run(mut self, warm_s: f64, timed_s: f64, calibrate: bool) -> Live {
        let rig = &mut self.rig;
        let n = rig.variants.len();
        let mut live = Live {
            variant_s: vec![Vec::new(); n],
            ..Live::default()
        };

        // Warm-up verifies every variant in every cycle, so all six
        // plans are checked before the first timed operation.
        let warm = Instant::now();
        let mut warm_ok = true;
        loop {
            warm_ok &= rig.cycle(|_| true).1;
            if warm.elapsed().as_secs_f64() >= warm_s {
                break;
            }
        }
        if !warm_ok {
            live.broken_invariants
                .push("a warm-up round trip exceeded the tolerance".into());
        }

        // One operation is one full cycle. A timed cycle verifies one
        // variant in rotation: a full check of all six would add 10 %
        // of harness time to every cycle.
        let px_per_cycle = rig.px() * n as u64;
        let t0 = Instant::now();
        let mut k = 0;
        while t0.elapsed().as_secs_f64() < timed_s {
            let (times, ok) = rig.cycle(|i| i == k % n);
            let end_s = t0.elapsed().as_secs_f64();
            live.attempted += 1;
            live.failed += !ok as u64;
            live.samples.push(Sample {
                end_s,
                lat_s: times.iter().map(|(d, r)| d + r).sum(),
                px: px_per_cycle,
            });
            for (series, t) in live.variant_s.iter_mut().zip(times) {
                series.push(t);
            }
            if calibrate {
                live.copy_gbps.push(rig.copy_gbps());
            }
            k += 1;
        }
        live
    }
}
