//! `wbench` — one wall-clock benchmark of the real path: kernel, RPC,
//! progressive delivery, pipelined service, with a per-layer budget
//! measured from outside. See `benchmark/README.md`.

mod config;
mod host;
mod json;
mod oracle;
mod probes;
mod replay;
mod report;
mod rng;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use config::{DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "\
usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
       benchmark/run.sh --twice [--seed N] [--seconds S] [--trace]
       benchmark/run.sh --agree A.json B.json

With --workload: one run of W; the last line of output is the result
as JSON (end-to-end metrics, or per-layer metrics with --trace 1).
Without: every workload, each in a fresh process, then a table and a
result-set file under benchmark/out/.
  --seed N      workload seed (default 1996; confirm claims on 2024)
  --seconds S   length of the timed phase (default 15)
  --trace       also (or, with --workload, instead) run the traced pass
  --out FILE    where the result set goes
  --twice       run the set twice and check the two agree
  --agree A B   compare two result sets against BENCHMARK.json's bounds";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    out_dir: String,
    twice: bool,
    agree: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        out_dir: "benchmark/out".into(),
        twice: false,
        agree: None,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let w = value(&mut it, arg)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("no workload named {w}; one of {WORKLOADS:?}"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                cli.seconds = value(&mut it, arg)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or bare.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => cli.out = Some(value(&mut it, arg)?),
            "--out-dir" => cli.out_dir = value(&mut it, arg)?,
            "--twice" => cli.twice = true,
            "--agree" => cli.agree = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn one_run(cli: &Cli, workload: &str) -> ExitCode {
    let args = run::RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out_dir: cli.out_dir.clone(),
    };
    let outcome = run::run(&args);
    println!("#detail {}", outcome.detail);
    println!("{}", outcome.line);
    for broken in &outcome.broken_invariants {
        eprintln!("{workload} did not do what it was chosen for: {broken}");
    }
    if !outcome.correct {
        eprintln!("{workload}: outputs failed the oracle check");
        ExitCode::from(1)
    } else if !outcome.broken_invariants.is_empty() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn suite_args(cli: &Cli, tag: &str) -> suite::SuiteArgs {
    suite::SuiteArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out: cli.out.clone().unwrap_or(format!(
            "{}/results_seed{}{tag}.json",
            cli.out_dir, cli.seed
        )),
        out_dir: cli.out_dir.clone(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(64);
        }
    };
    let verdict = if let Some((a, b)) = &cli.agree {
        suite::agree_files(a, b)
    } else if let Some(workload) = &cli.workload {
        return one_run(&cli, workload);
    } else if cli.twice {
        let (first, second) = (suite_args(&cli, "_a"), suite_args(&cli, "_b"));
        suite::run_set(&first).and_then(|(_, ok_a)| {
            let (_, ok_b) = suite::run_set(&second)?;
            Ok(suite::agree_files(&first.out, &second.out)? && ok_a && ok_b)
        })
    } else {
        suite::run_set(&suite_args(&cli, "")).map(|(_, ok)| ok)
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
