//! Machine-readable DWT engine benchmark: measures median ns/pixel of the
//! fused engine against the legacy separable path and writes
//! `BENCH_dwt.json` in the current directory.
//!
//! The headline comparison is the acceptance configuration: 2048x2048,
//! Daubechies-4, 3 levels, single thread, plus the fused CDF 5/3 / 9/7
//! lifting kernel at the same size and reconstruction by D4 and both
//! lifting banks. On a host with more than one core each of those engine
//! rows has a threaded twin (`*_par`) at the machine's core count. A
//! smaller size/filter matrix rides along.
//!
//! The `host` block records what the rows are read against: the core
//! count and a same-footprint copy rate. Every engine row at the headline
//! size also carries its computed compulsory traffic (`bytes_per_px`)
//! and the share of the copy rate it reaches (`copy_frac`). Gates are
//! asserted over the rows before the file is written: at both scales,
//! CDF 5/3 lifting is no slower than the D4 convolution engine at the
//! headline size; in full mode, every threaded row at the headline size
//! is no slower than its one-thread twin.
//!
//! Run from the repo root with `just bench-json` (or
//! `cargo run --release -p bench --bin bench_dwt`). Set `DWT_SMOKE=1`
//! for the downscaled CI mode: headline only, at 512x512, written to
//! `target/BENCH_dwt_smoke.json`.

use bench::{full_size, render, Row, Val};
use dwt::engine::{lifting as elift, DwtPlan};
use dwt::lifting::{self, LiftingKind};
use dwt::{dwt2d, Boundary, FilterBank, Matrix};
use imagery::{landsat_scene, SceneParams};
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock nanoseconds of `f` and how many samples it is the
/// median of. Sampling is adaptive: at least `min_samples` runs, then on
/// until ~300 ms of measurement or 25 samples.
fn median_ns(min_samples: usize, mut f: impl FnMut()) -> (f64, usize) {
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
    (samples[samples.len() / 2], samples.len())
}

/// One measured configuration — a line of `results`.
struct Timing {
    name: &'static str,
    size: usize,
    filter: String,
    levels: usize,
    threads: usize,
    ns_per_px: f64,
    samples: usize,
}

/// Time `f`, which makes `passes` transforms of a `size`² image per call.
fn time(
    name: &'static str,
    size: usize,
    bank: &FilterBank,
    levels: usize,
    threads: usize,
    passes: usize,
    f: impl FnMut(),
) -> Timing {
    let (med, samples) = median_ns(5, f);
    Timing {
        name,
        size,
        filter: bank.name().to_string(),
        levels,
        threads,
        ns_per_px: med / (passes * size * size) as f64,
        samples,
    }
}

fn measure_engine(
    name: &'static str,
    img: &Matrix,
    bank: &FilterBank,
    levels: usize,
    threads: usize,
) -> Timing {
    let n = img.rows();
    let plan = DwtPlan::new(n, n, bank.clone(), levels, Boundary::Periodic)
        .unwrap()
        .with_threads(threads);
    let mut ws = plan.make_workspace();
    let mut pyr = plan.make_pyramid();
    time(name, n, bank, levels, threads, 1, || {
        plan.decompose_into(black_box(img), &mut ws, &mut pyr)
            .unwrap();
    })
}

/// [`measure_engine`] for the inverse: reconstruction of `img`'s pyramid.
fn measure_reconstruct(
    name: &'static str,
    img: &Matrix,
    bank: &FilterBank,
    levels: usize,
    threads: usize,
) -> Timing {
    let n = img.rows();
    let plan = DwtPlan::new(n, n, bank.clone(), levels, Boundary::Periodic)
        .unwrap()
        .with_threads(threads);
    let mut ws = plan.make_workspace();
    let pyr = plan.decompose(img).unwrap();
    let mut back = Matrix::zeros(n, n);
    time(name, n, bank, levels, threads, 1, || {
        plan.reconstruct_into(black_box(&pyr), &mut ws, &mut back)
            .unwrap();
    })
}

fn measure_legacy(img: &Matrix, bank: &FilterBank, levels: usize) -> Timing {
    let n = img.rows();
    time("legacy_separable_1t", n, bank, levels, 1, 1, || {
        dwt2d::decompose_separable(black_box(img), bank, levels, Boundary::Periodic).unwrap();
    })
}

/// Naive straight-line lifting (the hidden oracle in `dwt::lifting`),
/// timed as the baseline the fused engine kernel must beat.
fn measure_lifting_oracle(img: &Matrix, kind: LiftingKind, levels: usize) -> Timing {
    let bank = FilterBank::for_lifting(kind);
    time("lifting_oracle_1t", img.rows(), &bank, levels, 1, 1, || {
        lifting::decompose_oracle(black_box(img), kind, levels).unwrap();
    })
}

/// Reversible integer lifting, timed over a full forward+inverse round
/// trip so the cost is per transform direction.
fn measure_lifting_int(n: usize, kind: LiftingKind, levels: usize) -> Timing {
    let mut data: Vec<i32> = (0..n * n)
        .map(|i| ((i.wrapping_mul(2654435761) >> 8) % 65536) as i32 - 32768)
        .collect();
    let bank = FilterBank::for_lifting(kind);
    time("engine_lifting_int_1t", n, &bank, levels, 1, 2, || {
        elift::forward_int(black_box(&mut data), n, n, levels, kind).unwrap();
        elift::inverse_int(black_box(&mut data), n, n, levels, kind).unwrap();
    })
}

/// Compulsory traffic of one transform direction per image pixel,
/// computed from the row's shape: each level reads its input once and
/// writes four quarter-size bands (or the reverse), so level 1 moves two
/// samples per pixel and each further level a quarter of the one before
/// — 16 B/px × (1 + 1/4 + 1/16) = 21 B/px for three f64 levels, tending
/// to 16 × 4/3. The in-place integer rows move `i32` samples.
fn bytes_per_px(t: &Timing) -> f64 {
    let sample = if t.name.contains("_int") { 4.0 } else { 8.0 };
    let levels: f64 = (0..t.levels).map(|l| 0.25f64.powi(l as i32)).sum();
    2.0 * sample * levels
}

/// The memory ceiling an ns/px row is read against: GB/s of one
/// `copy_from_slice` of `img` into a buffer of the same footprint,
/// counting bytes read plus bytes written (2 x 8 B per pixel) — the
/// accounting of wbench's `host.copy_gbps`.
fn copy_gbps(img: &Matrix) -> f64 {
    let src = img.data();
    let mut dst = vec![0.0; src.len()];
    let (ns, _) = median_ns(5, || dst.copy_from_slice(black_box(src)));
    black_box(&dst);
    (2 * std::mem::size_of_val(src)) as f64 / ns
}

/// The gate: at the headline size the fused CDF 5/3 lifting kernel is no
/// slower than the D4 convolution engine. Both rows must be there; `Ok`
/// is their `(lifting, convolution)` ns/px.
fn lifting_gate(rows: &[Timing], size: usize) -> Result<(f64, f64), String> {
    let at = |name: &str, filter: &str| {
        let mut rows = rows.iter();
        rows.find(|r| r.name == name && r.filter == filter && r.size == size)
            .map(|r| r.ns_per_px)
            .ok_or_else(|| format!("no {name} {filter} row at {size}x{size}"))
    };
    let (lift, conv) = (at("engine_lifting_1t", "CDF53")?, at("engine_1t", "D4")?);
    if lift > conv {
        return Err(format!(
            "CDF53 lifting {lift:.3} ns/px slower than D4 convolution {conv:.3} ns/px at {size}x{size}"
        ));
    }
    Ok((lift, conv))
}

/// The threading gate: at the headline size every threaded row (`*_par`)
/// is no slower than its one-thread twin (`*_1t`, same filter). `Ok` is
/// the number of pairs checked, at least one.
fn threads_gate(rows: &[Timing], size: usize) -> Result<usize, String> {
    let mut checked = 0;
    for par in rows
        .iter()
        .filter(|r| r.size == size && r.name.ends_with("_par"))
    {
        let one = par.name.replace("_par", "_1t");
        let base = rows
            .iter()
            .find(|r| r.name == one && r.filter == par.filter && r.size == size)
            .ok_or_else(|| format!("no {one} {} row at {size}x{size}", par.filter))?;
        if par.ns_per_px > base.ns_per_px {
            return Err(format!(
                "{} {} on {} threads {:.3} ns/px slower than one thread {:.3} ns/px at {size}x{size}",
                par.name, par.filter, par.threads, par.ns_per_px, base.ns_per_px
            ));
        }
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("no threaded row at {size}x{size}"));
    }
    Ok(checked)
}

/// One rendered row; `copy` is the host copy rate (GB/s) for a row read
/// against it, which adds the computed traffic and the copy fraction
/// (bytes per ns are GB/s).
fn row(t: &Timing, copy: Option<f64>) -> Row {
    let mut row = vec![
        ("name", t.name.into()),
        ("size", t.size.into()),
        ("filter", t.filter.as_str().into()),
        ("levels", t.levels.into()),
        ("threads", t.threads.into()),
        ("median_ns_per_px", Val::Fix(t.ns_per_px, 3)),
        ("samples", t.samples.into()),
    ];
    if let Some(copy) = copy {
        let bytes = bytes_per_px(t);
        row.extend([
            ("bytes_per_px", Val::Fix(bytes, 3)),
            ("copy_frac", Val::Fix(bytes / t.ns_per_px / copy, 3)),
        ]);
    }
    row
}

fn main() {
    let levels = 3;
    let smoke = std::env::var("DWT_SMOKE").is_ok_and(|v| v == "1");
    let head_n = if smoke { 512 } else { 2048 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows: Vec<Timing> = Vec::new();

    // --- Headline: 2048x2048 (512 in smoke mode), D4 vs lifting, L3. ----
    eprintln!("headline: {head_n}x{head_n} D4 L{levels} ...");
    let d4 = FilterBank::daubechies(4).unwrap();
    let cdf53 = FilterBank::cdf53();
    let cdf97 = FilterBank::cdf97();
    let img = landsat_scene(head_n, head_n, SceneParams::default());
    let copy = copy_gbps(&img);
    eprintln!("  host: {cores} core(s), same-footprint copy {copy:.2} GB/s (read + written)");
    let legacy = measure_legacy(&img, &d4, levels);
    let engine1 = measure_engine("engine_1t", &img, &d4, levels, 1);
    // On a one-core host a `*_par` row would re-measure its `*_1t` twin
    // under another name, so the threaded rows and headline keys exist
    // only when there is a second core to run them on.
    let par = |name, img: &Matrix, bank: &FilterBank| {
        (cores > 1).then(|| measure_engine(name, img, bank, levels, cores))
    };
    let enginep = par("engine_par", &img, &d4);
    let speedup = legacy.ns_per_px / engine1.ns_per_px;
    eprintln!(
        "  legacy {:.2} ns/px | engine(1t) {:.2} ns/px ({speedup:.2}x)",
        legacy.ns_per_px, engine1.ns_per_px
    );
    let mut headline: Row = vec![
        ("size", head_n.into()),
        ("filter", "D4".into()),
        ("levels", levels.into()),
        ("legacy_ns_per_px", Val::Fix(legacy.ns_per_px, 3)),
        ("engine_1t_ns_per_px", Val::Fix(engine1.ns_per_px, 3)),
        ("engine_1t_speedup", Val::Fix(speedup, 3)),
    ];
    if let Some(p) = &enginep {
        let par_speedup = legacy.ns_per_px / p.ns_per_px;
        eprintln!(
            "  engine({cores}t) {:.2} ns/px ({par_speedup:.2}x)",
            p.ns_per_px
        );
        headline.extend([
            ("engine_par_threads", cores.into()),
            ("engine_par_ns_per_px", Val::Fix(p.ns_per_px, 3)),
            ("engine_par_speedup", Val::Fix(par_speedup, 3)),
        ]);
    }
    eprintln!("headline: {head_n}x{head_n} lifting L{levels} ...");
    let lift53_oracle = measure_lifting_oracle(&img, LiftingKind::LeGall53, levels);
    let lift53 = measure_engine("engine_lifting_1t", &img, &cdf53, levels, 1);
    let lift53p = par("engine_lifting_par", &img, &cdf53);
    let lift97_oracle = measure_lifting_oracle(&img, LiftingKind::Cdf97, levels);
    let lift97 = measure_engine("engine_lifting_1t", &img, &cdf97, levels, 1);
    let lift97p = par("engine_lifting_par", &img, &cdf97);
    let recon1 = measure_reconstruct("engine_reconstruct_1t", &img, &d4, levels, 1);
    let reconp = (cores > 1)
        .then(|| measure_reconstruct("engine_reconstruct_par", &img, &d4, levels, cores));
    let mut lift_recon = Vec::new();
    for bank in [&cdf53, &cdf97] {
        let name = "engine_lifting_reconstruct_1t";
        lift_recon.push(measure_reconstruct(name, &img, bank, levels, 1));
        let name = "engine_lifting_reconstruct_par";
        lift_recon
            .extend((cores > 1).then(|| measure_reconstruct(name, &img, bank, levels, cores)));
    }
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
    eprintln!("  D4 reconstruct(1t) {:.2} ns/px", recon1.ns_per_px);
    let threaded = [&lift53p, &lift97p, &reconp].into_iter().flatten();
    for p in threaded.chain(&lift_recon) {
        eprintln!(
            "  {} {} ({}t) {:.2} ns/px",
            p.name, p.filter, p.threads, p.ns_per_px
        );
    }
    headline.extend([
        ("cdf53_lifting_ns_per_px", Val::Fix(lift53.ns_per_px, 3)),
        ("cdf97_lifting_ns_per_px", Val::Fix(lift97.ns_per_px, 3)),
        ("cdf53_lifting_vs_d4_engine", Val::Fix(lift53_vs_d4, 3)),
    ]);
    rows.push(legacy);
    rows.push(engine1);
    rows.extend(enginep);
    rows.push(lift53_oracle);
    rows.push(lift53);
    rows.extend(lift53p);
    rows.push(lift97_oracle);
    rows.push(lift97);
    rows.extend(lift97p);
    rows.push(recon1);
    rows.extend(reconp);
    rows.extend(lift_recon);
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
            rows.extend(par("engine_par", &img512, &bank));
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
            rows.extend(par("engine_lifting_par", &img512, &bank));
        }

        // --- Size sweep with D4. ----------------------------------------
        let sweep: &[usize] = if full_size() {
            &[256, 512, 1024, 2048, 4096]
        } else {
            &[256, 1024]
        };
        for &n in sweep {
            eprintln!("sweep: {n}x{n} D4 L3 ...");
            let img = landsat_scene(n, n, SceneParams::default());
            rows.push(measure_legacy(&img, &d4, levels));
            rows.push(measure_engine("engine_1t", &img, &d4, levels, 1));
            rows.extend(par("engine_par", &img, &d4));
        }
    }

    // --- Gate, then emit. ------------------------------------------------
    let (lift, conv) = lifting_gate(&rows, head_n).unwrap_or_else(|why| panic!("gate: {why}"));
    eprintln!("lifting gate OK: {lift:.3} ns/px vs D4 engine {conv:.3} ns/px");
    if cores > 1 && !smoke {
        let pairs = threads_gate(&rows, head_n).unwrap_or_else(|why| panic!("gate: {why}"));
        eprintln!("threads gate OK: {pairs} threaded rows no slower than one thread");
    }
    let host: Row = vec![
        ("nproc", cores.into()),
        ("copy_gbps", Val::Fix(copy, 3)),
        (
            "copy_counts",
            "read + written bytes, one copy_from_slice of the headline image, median".into(),
        ),
    ];
    let engine_row = |t: &Timing| t.size == head_n && t.name.starts_with("engine");
    let results = rows
        .iter()
        .map(|t| row(t, engine_row(t).then_some(copy)))
        .collect();
    let doc: Row = vec![
        ("bench", "dwt2d_engine".into()),
        ("unit", "ns_per_pixel_median".into()),
        ("host", Val::Obj(host)),
        ("headline", Val::Obj(headline)),
        ("results", Val::Rows(results)),
    ];
    let path = if smoke {
        "target/BENCH_dwt_smoke.json"
    } else {
        "BENCH_dwt.json"
    };
    std::fs::write(path, render(&doc)).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(name: &'static str, filter: &str, ns_per_px: f64) -> Timing {
        Timing {
            name,
            size: 512,
            filter: filter.to_string(),
            levels: 3,
            threads: 1,
            ns_per_px,
            samples: 5,
        }
    }

    /// The gate is a function of the rows, so no timing is involved: it
    /// passes a faster (or equal) lifting row and refuses a slower one, a
    /// missing one, and one that is only there at another size.
    #[test]
    fn lifting_gate_refuses_slow_or_missing_lifting_rows() {
        let d4 = || timing("engine_1t", "D4", 4.0);
        let lift = |ns| timing("engine_lifting_1t", "CDF53", ns);
        assert_eq!(lifting_gate(&[d4(), lift(3.0)], 512), Ok((3.0, 4.0)));
        assert_eq!(lifting_gate(&[d4(), lift(4.0)], 512), Ok((4.0, 4.0)));

        let slower = lifting_gate(&[d4(), lift(4.5)], 512).unwrap_err();
        assert!(slower.contains("slower than D4"), "{slower}");
        let missing = lifting_gate(&[d4(), timing("engine_lifting_1t", "CDF97", 3.0)], 512);
        assert!(missing
            .unwrap_err()
            .contains("no engine_lifting_1t CDF53 row"));
        let elsewhere = lifting_gate(&[d4(), lift(3.0)], 2048);
        assert!(elsewhere.unwrap_err().contains("at 2048x2048"));
    }

    /// Same for the threading gate: each `*_par` row is held against its
    /// own `*_1t` twin (same name stem and filter), and a threaded row
    /// with no twin, or no threaded row at all, is refused.
    #[test]
    fn threads_gate_refuses_slow_or_unmatched_threaded_rows() {
        let one = |name, filter, ns| timing(name, filter, ns);
        let two = |name, filter, ns| Timing {
            threads: 2,
            ..timing(name, filter, ns)
        };
        let rows = [
            one("engine_1t", "D4", 4.0),
            two("engine_par", "D4", 2.0),
            one("engine_lifting_1t", "CDF53", 3.0),
            two("engine_lifting_par", "CDF53", 3.0),
            one("engine_lifting_1t", "CDF97", 5.0),
            two("engine_lifting_par", "CDF97", 2.6),
        ];
        assert_eq!(threads_gate(&rows, 512), Ok(3));

        let slow = [
            one("engine_lifting_1t", "CDF97", 5.0),
            two("engine_lifting_par", "CDF97", 5.5),
        ];
        let why = threads_gate(&slow, 512).unwrap_err();
        assert!(
            why.contains("engine_lifting_par CDF97 on 2 threads"),
            "{why}"
        );
        // The CDF 5/3 twin does not stand in for the 9/7 one.
        let unmatched = [
            one("engine_lifting_1t", "CDF53", 3.0),
            two("engine_lifting_par", "CDF97", 2.0),
        ];
        let why = threads_gate(&unmatched, 512).unwrap_err();
        assert!(why.contains("no engine_lifting_1t CDF97 row"), "{why}");
        assert!(threads_gate(&rows[..1], 512).is_err());
        assert!(threads_gate(&rows, 2048).is_err());
    }
}
