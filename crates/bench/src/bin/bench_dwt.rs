//! Machine-readable DWT engine benchmark: measures median ns/pixel of the
//! fused engine against the legacy separable path and writes
//! `BENCH_dwt.json` in the current directory.
//!
//! The headline comparison is the acceptance configuration: 2048x2048,
//! Daubechies-4, 3 levels, single thread, plus the threaded engine at the
//! machine's core count (only on a host with more than one core) and the
//! fused CDF 5/3 / 9/7 lifting kernel at the same size. A smaller
//! size/filter matrix rides along.
//!
//! Run from the repo root with `just bench-json` (or
//! `cargo run --release -p bench --bin bench_dwt`). Set `DWT_SMOKE=1`
//! for the downscaled CI mode: headline only, at 512x512, written to
//! `target/BENCH_dwt_smoke.json`.

use dwt::engine::{lifting as elift, DwtPlan};
use dwt::lifting::{self, LiftingKind};
use dwt::{dwt2d, Boundary, FilterBank, Matrix};
use imagery::{landsat_scene, SceneParams};
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock nanoseconds of `f`, sampled adaptively: at least
/// `min_samples` runs and at least ~300 ms of total measurement.
fn median_ns(min_samples: usize, mut f: impl FnMut()) -> f64 {
    // Warm-up run (first touch of buffers, page faults).
    f();
    let mut samples = Vec::new();
    let budget = std::time::Duration::from_millis(300);
    let started = Instant::now();
    while samples.len() < min_samples || (started.elapsed() < budget && samples.len() < 25) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct Row {
    name: String,
    size: usize,
    filter: String,
    levels: usize,
    threads: usize,
    ns_per_px: f64,
    samples: usize,
}

fn measure_engine(
    name: &str,
    img: &Matrix,
    bank: &FilterBank,
    levels: usize,
    threads: usize,
) -> Row {
    let n = img.rows();
    let plan = DwtPlan::new(n, n, bank.clone(), levels, Boundary::Periodic)
        .unwrap()
        .with_threads(threads);
    let mut ws = plan.make_workspace();
    let mut pyr = plan.make_pyramid();
    let med = median_ns(5, || {
        plan.decompose_into(black_box(img), &mut ws, &mut pyr)
            .unwrap();
    });
    Row {
        name: name.to_string(),
        size: n,
        filter: bank.name().to_string(),
        levels,
        threads,
        ns_per_px: med / (n * n) as f64,
        samples: 5,
    }
}

fn measure_legacy(img: &Matrix, bank: &FilterBank, levels: usize) -> Row {
    let n = img.rows();
    let med = median_ns(5, || {
        dwt2d::decompose_separable(black_box(img), bank, levels, Boundary::Periodic).unwrap();
    });
    Row {
        name: "legacy_separable_1t".to_string(),
        size: n,
        filter: bank.name().to_string(),
        levels,
        threads: 1,
        ns_per_px: med / (n * n) as f64,
        samples: 5,
    }
}

/// Naive straight-line lifting (the hidden oracle in `dwt::lifting`),
/// timed as the baseline the fused engine kernel must beat.
fn measure_lifting_oracle(img: &Matrix, kind: LiftingKind, levels: usize) -> Row {
    let n = img.rows();
    let med = median_ns(5, || {
        lifting::decompose_oracle(black_box(img), kind, levels).unwrap();
    });
    Row {
        name: "lifting_oracle_1t".to_string(),
        size: n,
        filter: FilterBank::for_lifting(kind).name().to_string(),
        levels,
        threads: 1,
        ns_per_px: med / (n * n) as f64,
        samples: 5,
    }
}

/// Reversible integer lifting, timed over a full forward+inverse round
/// trip so the cost is per transform direction.
fn measure_lifting_int(n: usize, kind: LiftingKind, levels: usize) -> Row {
    let mut data: Vec<i32> = (0..n * n)
        .map(|i| ((i.wrapping_mul(2654435761) >> 8) % 65536) as i32 - 32768)
        .collect();
    let med = median_ns(5, || {
        elift::forward_int(black_box(&mut data), n, n, levels, kind).unwrap();
        elift::inverse_int(black_box(&mut data), n, n, levels, kind).unwrap();
    });
    Row {
        name: "engine_lifting_int_1t".to_string(),
        size: n,
        filter: FilterBank::for_lifting(kind).name().to_string(),
        levels,
        threads: 1,
        ns_per_px: med / (2 * n * n) as f64,
        samples: 5,
    }
}

fn main() {
    let levels = 3;
    let smoke = std::env::var("DWT_SMOKE").is_ok_and(|v| v == "1");
    let head_n = if smoke { 512 } else { 2048 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows: Vec<Row> = Vec::new();

    // --- Headline: 2048x2048 (512 in smoke mode), D4 vs lifting, L3. ----
    eprintln!("headline: {head_n}x{head_n} D4 L{levels} ...");
    let d4 = FilterBank::daubechies(4).unwrap();
    let cdf53 = FilterBank::cdf53();
    let cdf97 = FilterBank::cdf97();
    let img = landsat_scene(head_n, head_n, SceneParams::default());
    let legacy = measure_legacy(&img, &d4, levels);
    let engine1 = measure_engine("engine_1t", &img, &d4, levels, 1);
    // On a one-core host `engine_par` would re-measure `engine_1t`
    // under another name, so the threaded rows and headline keys exist
    // only when there is a second core to run them on.
    let par = |img: &Matrix, bank: &FilterBank| {
        (cores > 1).then(|| measure_engine("engine_par", img, bank, levels, cores))
    };
    let enginep = par(&img, &d4);
    let speedup = legacy.ns_per_px / engine1.ns_per_px;
    eprintln!(
        "  legacy {:.2} ns/px | engine(1t) {:.2} ns/px ({speedup:.2}x)",
        legacy.ns_per_px, engine1.ns_per_px
    );
    let par_headline = enginep.as_ref().map(|p| {
        let par_speedup = legacy.ns_per_px / p.ns_per_px;
        eprintln!(
            "  engine({cores}t) {:.2} ns/px ({par_speedup:.2}x)",
            p.ns_per_px
        );
        format!(
            "\"engine_par_threads\": {cores}, \"engine_par_ns_per_px\": {:.3}, \"engine_par_speedup\": {par_speedup:.3}, ",
            p.ns_per_px
        )
    });
    let par_headline = par_headline.unwrap_or_default();
    eprintln!("headline: {head_n}x{head_n} lifting L{levels} ...");
    let lift53_oracle = measure_lifting_oracle(&img, LiftingKind::LeGall53, levels);
    let lift53 = measure_engine("engine_lifting_1t", &img, &cdf53, levels, 1);
    let lift97_oracle = measure_lifting_oracle(&img, LiftingKind::Cdf97, levels);
    let lift97 = measure_engine("engine_lifting_1t", &img, &cdf97, levels, 1);
    let lift53_int = measure_lifting_int(head_n, LiftingKind::LeGall53, levels);
    let lift97_int = measure_lifting_int(head_n, LiftingKind::Cdf97, levels);
    let lift53_vs_d4 = engine1.ns_per_px / lift53.ns_per_px;
    eprintln!(
        "  cdf53 lifting {:.2} ns/px ({lift53_vs_d4:.2}x vs D4 engine, oracle {:.2}) | cdf97 lifting {:.2} ns/px (oracle {:.2})",
        lift53.ns_per_px, lift53_oracle.ns_per_px, lift97.ns_per_px, lift97_oracle.ns_per_px
    );
    eprintln!(
        "  int round-trip: cdf53 {:.2} ns/px | cdf97 {:.2} ns/px (per direction)",
        lift53_int.ns_per_px, lift97_int.ns_per_px
    );
    let headline = format!(
        concat!(
            "{{\"size\": {}, \"filter\": \"D4\", \"levels\": {}, ",
            "\"legacy_ns_per_px\": {:.3}, \"engine_1t_ns_per_px\": {:.3}, ",
            "\"engine_1t_speedup\": {:.3}, {}",
            "\"cdf53_lifting_ns_per_px\": {:.3}, \"cdf97_lifting_ns_per_px\": {:.3}, ",
            "\"cdf53_lifting_vs_d4_engine\": {:.3}}}"
        ),
        head_n,
        levels,
        legacy.ns_per_px,
        engine1.ns_per_px,
        speedup,
        par_headline,
        lift53.ns_per_px,
        lift97.ns_per_px,
        lift53_vs_d4
    );
    rows.push(legacy);
    rows.push(engine1);
    rows.extend(enginep);
    rows.push(lift53_oracle);
    rows.push(lift53);
    rows.push(lift97_oracle);
    rows.push(lift97);
    rows.push(lift53_int);
    rows.push(lift97_int);

    if !smoke {
        // --- Filter matrix at 512x512. ----------------------------------
        let img512 = landsat_scene(512, 512, SceneParams::default());
        for bank in [
            FilterBank::haar(),
            FilterBank::daubechies(4).unwrap(),
            FilterBank::daubechies(8).unwrap(),
            FilterBank::coiflet(6).unwrap(),
        ] {
            eprintln!("matrix: 512x512 {} L3 ...", bank.name());
            rows.push(measure_legacy(&img512, &bank, levels));
            rows.push(measure_engine("engine_1t", &img512, &bank, levels, 1));
            rows.extend(par(&img512, &bank));
        }
        for kind in [LiftingKind::LeGall53, LiftingKind::Cdf97] {
            let bank = FilterBank::for_lifting(kind);
            eprintln!("matrix: 512x512 {} lifting L3 ...", bank.name());
            rows.push(measure_lifting_oracle(&img512, kind, levels));
            rows.push(measure_engine(
                "engine_lifting_1t",
                &img512,
                &bank,
                levels,
                1,
            ));
        }

        // --- Size sweep with D4. ----------------------------------------
        let full = std::env::var("REPRO_FULL")
            .map(|v| v == "1")
            .unwrap_or(false);
        let sweep: &[usize] = if full {
            &[256, 512, 1024, 2048, 4096]
        } else {
            &[256, 1024]
        };
        for &n in sweep {
            eprintln!("sweep: {n}x{n} D4 L3 ...");
            let img = landsat_scene(n, n, SceneParams::default());
            rows.push(measure_legacy(&img, &d4, levels));
            rows.push(measure_engine("engine_1t", &img, &d4, levels, 1));
            rows.extend(par(&img, &d4));
        }
    }

    // --- Emit JSON. ------------------------------------------------------
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"dwt2d_engine\",\n");
    out.push_str("  \"unit\": \"ns_per_pixel_median\",\n");
    out.push_str(&format!("  \"host_threads\": {cores},\n"));
    out.push_str(&format!("  \"headline\": {headline},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"size\": {}, \"filter\": \"{}\", ",
                "\"levels\": {}, \"threads\": {}, \"median_ns_per_px\": {:.3}, ",
                "\"samples\": {}}}{}\n"
            ),
            r.name,
            r.size,
            r.filter,
            r.levels,
            r.threads,
            r.ns_per_px,
            r.samples,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = if smoke {
        "target/BENCH_dwt_smoke.json"
    } else {
        "BENCH_dwt.json"
    };
    std::fs::write(path, &out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}
