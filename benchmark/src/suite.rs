//! The whole set: every workload in a fresh process, a table of every
//! metric with unit, samples, direction and bound, a result-set file,
//! and the agreement check between two such files.

use std::process::Command;

use crate::config::WORKLOADS;
use crate::json::{self, Value};
use crate::report::Better;

/// Metrics whose value is the same in every run of one commit on one
/// host: computed figures, host facts, and fault counters of a clean
/// wire. The agreement check holds them to equality.
pub const EXACT: [&str; 9] = [
    "host.nproc",
    "host.llc_mib",
    "gen.blocks",
    "dwt.bytes_per_px_computed",
    "dwt.flops_per_px_computed",
    "remote.retries",
    "remote.dedup_replays",
    "admission.rejected.queue_full",
    "admission.rejected.deadline_expired",
];

/// One end-to-end row of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    /// Share of the first value by which the second may be worse.
    pub bound: f64,
}

pub fn bounds_of(manifest: &Value) -> Result<Vec<Bound>, String> {
    manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or(format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

pub fn load_bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    bounds_of(&json::parse(&text)?)
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run.get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compare result set `b` against `a`. Returns the lines of the
/// comparison and whether every check held.
pub fn agree(a: &Value, b: &Value, bounds: &[Bound]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    for key in ["untraced", "traced"] {
        let (Some(ra), Some(rb)) = (a.get(key), b.get(key)) else {
            continue;
        };
        for (workload, run_a) in ra.as_obj().unwrap_or(&[]) {
            let Some(run_b) = rb.get(workload) else {
                lines.push(format!("MISS  {workload}: absent from the second set"));
                ok = false;
                continue;
            };
            let names: Vec<&String> = run_a
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Value::as_obj)
                .map(|m| m.iter().map(|(k, _)| k).collect())
                .unwrap_or_default();
            for name in names {
                let (Some(va), Some(vb)) = (metric_value(run_a, name), metric_value(run_b, name))
                else {
                    lines.push(format!(
                        "MISS  {workload} {name}: absent from the second set"
                    ));
                    ok = false;
                    continue;
                };
                if let Some(bound) = bounds.iter().find(|b| &b.name == name) {
                    let w = worsening(bound.better, va, vb);
                    let held = w <= bound.bound;
                    ok &= held;
                    lines.push(format!(
                        "{}  {workload} {name}: {va} -> {vb} ({:+.2} % worse, bound {:.0} %)",
                        if held { "ok  " } else { "MISS" },
                        w * 100.0,
                        bound.bound * 100.0
                    ));
                } else if EXACT.contains(&name.as_str()) {
                    let held = va == vb;
                    ok &= held;
                    lines.push(format!(
                        "{}  {workload} {name}: {va} -> {vb} (must repeat exactly)",
                        if held { "ok  " } else { "MISS" }
                    ));
                }
            }
        }
    }
    (lines, ok)
}

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: String,
    pub out_dir: String,
}

/// Run `wbench` for one workload in a fresh process; echo what it
/// prints; return its detail and result lines.
fn child(args: &SuiteArgs, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out-dir", &args.out_dir])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let result = lines.pop().ok_or(format!("{workload} printed nothing"))?;
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or(format!("{workload} printed no detail line"))?;
    let run = Value::obj([
        ("detail", json::parse(detail)?),
        ("result", json::parse(result)?),
    ]);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    Ok(run)
}

fn print_table(set: &Value, bounds: &[Bound]) {
    for key in ["untraced", "traced"] {
        let Some(runs) = set.get(key).and_then(Value::as_obj) else {
            continue;
        };
        for (workload, run) in runs {
            let samples = run
                .get("detail")
                .and_then(|d| d.get("samples"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            println!("\n== {workload} ({key}, {samples} samples in blocks)");
            let Some(metrics) = run
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Value::as_obj)
            else {
                continue;
            };
            for (name, m) in metrics {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                let spread = run
                    .get("detail")
                    .and_then(|d| d.get("spread"))
                    .and_then(|s| s.get(name));
                let quartiles = match spread {
                    Some(s) => format!(
                        "  [q1 {} q3 {} n {}]",
                        s.get("q1").and_then(Value::as_f64).unwrap_or(f64::NAN),
                        s.get("q3").and_then(Value::as_f64).unwrap_or(f64::NAN),
                        s.get("n").and_then(Value::as_f64).unwrap_or(f64::NAN)
                    ),
                    None => String::new(),
                };
                let bound = bounds
                    .iter()
                    .find(|b| &b.name == name)
                    .map_or_else(String::new, |b| {
                        format!(
                            "  ({} is better, bound {:.0} %)",
                            b.better.label(),
                            b.bound * 100.0
                        )
                    });
                println!("{name:<40} {value:>16.6} {unit:<8}{quartiles}{bound}");
            }
            let p99 = run
                .get("detail")
                .and_then(|d| d.get("spread"))
                .and_then(|s| s.get("lat_p99_ms"))
                .and_then(|p| p.get("value"))
                .and_then(Value::as_f64);
            if let Some(p99) = p99 {
                println!("{:<40} {p99:>16.6} ms        (not bounded)", "lat_p99_ms");
            }
        }
    }
}

/// Run the set, print the table, write the result-set file.
pub fn run_set(args: &SuiteArgs) -> Result<(Value, bool), String> {
    let bounds = load_bounds()?;
    let mut ok = true;
    let mut sections = Vec::new();
    for (key, trace) in [("untraced", false), ("traced", true)] {
        if trace && !args.trace {
            continue;
        }
        let mut runs = Vec::new();
        for name in WORKLOADS {
            eprintln!("-- {name} (trace {})", trace as u8);
            match child(args, name, trace) {
                Ok(run) => runs.push((name.to_string(), run)),
                Err(e) => {
                    eprintln!("FAILED {e}");
                    ok = false;
                }
            }
        }
        sections.push((key, Value::Obj(runs)));
    }
    let mut fields = vec![
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
    ];
    fields.extend(sections);
    let set = Value::obj(fields);
    print_table(&set, &bounds);
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&args.out, format!("{set}\n")).map_err(|e| format!("{}: {e}", args.out))?;
    println!("\nresult set written to {}", args.out);
    Ok((set, ok))
}

pub fn agree_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t))
    };
    let (lines, ok) = agree(&load(a)?, &load(b)?, &load_bounds()?);
    for l in lines {
        println!("{l}");
    }
    println!("{}", if ok { "AGREE" } else { "DISAGREE" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(lat: f64, rate: f64, nproc: f64) -> Value {
        let metric = |v: f64| Value::obj([("value", Value::Num(v)), ("unit", Value::str("x"))]);
        let run = |metrics: Value| Value::obj([("result", Value::obj([("metrics", metrics)]))]);
        Value::obj([
            (
                "untraced",
                Value::obj([(
                    "w",
                    run(Value::obj([
                        ("lat_p50_ms", metric(lat)),
                        ("req_per_s", metric(rate)),
                    ])),
                )]),
            ),
            (
                "traced",
                Value::obj([(
                    "w",
                    run(Value::obj([
                        ("host.nproc", metric(nproc)),
                        ("wire.encode_request_ms", metric(lat)),
                    ])),
                )]),
            ),
        ])
    }

    fn bounds() -> Vec<Bound> {
        vec![
            Bound {
                name: "lat_p50_ms".into(),
                better: Better::Lower,
                bound: 0.10,
            },
            Bound {
                name: "req_per_s".into(),
                better: Better::Higher,
                bound: 0.10,
            },
        ]
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 120.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn agreement_is_direction_aware_and_exact_for_counts() {
        let base = set(10.0, 100.0, 2.0);
        // Latency 9 % up, rate 9 % down: inside both bounds.
        assert!(agree(&base, &set(10.9, 91.0, 2.0), &bounds()).1);
        // Getting much better is never a miss.
        assert!(agree(&base, &set(5.0, 300.0, 2.0), &bounds()).1);
        // Latency 11 % up misses; so does a rate 11 % down.
        assert!(!agree(&base, &set(11.1, 100.0, 2.0), &bounds()).1);
        assert!(!agree(&base, &set(10.0, 89.0, 2.0), &bounds()).1);
        // A per-layer time is not bounded; an exact count is held equal.
        assert!(agree(&base, &set(10.0, 100.0, 2.0), &bounds()).1);
        assert!(!agree(&base, &set(10.0, 100.0, 4.0), &bounds()).1);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let bounds = bounds_of(&manifest).unwrap();
        assert!(bounds
            .iter()
            .any(|b| b.name == "setup_s" && b.better == Better::Lower));
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
