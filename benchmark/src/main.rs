//! `mbb-benchmark` — runs the benchmark's workloads against the shipped
//! binaries.  Use `benchmark/run.sh`, which builds them first:
//!
//! ```text
//! benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace 0|1 | --traced]
//! ```
//!
//! With `--workload`, the last line of stdout is that run's result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Without it, every workload runs and the last line is one
//! `mbb-benchmark/1` document holding each workload's result.  Every
//! metric is also printed to stderr with its unit.

use std::process::ExitCode;

use mbb_bench::json::Json;
use mbb_benchmark::{inputs, run, Bins, Outcome, Workload};

struct Args {
    bin_dir: String,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        bin_dir: "target/release".into(),
        workloads: Workload::ALL.to_vec(),
        seed: inputs::DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            a.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--bin-dir" => a.bin_dir = value.clone(),
            "--workload" => a.workloads = vec![Workload::parse(&value).ok_or_else(bad)?],
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn log(w: Workload, out: &Outcome, trace: bool) {
    eprintln!(
        "{}: attempted {}, failed {}, inputs digest {}",
        w.name(),
        out.attempted,
        out.failed,
        out.digest
    );
    for note in &out.notes {
        eprintln!("  FAILED: {note}");
    }
    if let Some(s) = out.slowdown {
        eprintln!("  host ran the reference work {s:.4}x as long as the reference host; timings below are divided by that");
    }
    for (name, value, unit) in out.reported(trace) {
        eprintln!("  {name:<24} {value:>14.6} {unit}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mbb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let bins = Bins::new(&args.bin_dir);
    if let Err(e) = bins.check_fresh() {
        eprintln!("mbb-benchmark: {e}");
        return ExitCode::FAILURE;
    }
    let mut results = Vec::new();
    for &w in &args.workloads {
        match run(&bins, w, args.seed, args.seconds, args.trace) {
            Ok(out) => {
                log(w, &out, args.trace);
                results.push((w, out));
            }
            Err(e) => {
                eprintln!("mbb-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let line = match results.as_slice() {
        [(_, out)] => out.to_json(args.trace),
        _ => Json::obj([
            ("schema", Json::str("mbb-benchmark/1")),
            ("seed", Json::UInt(args.seed)),
            ("trace", Json::Bool(args.trace)),
            ("correct", Json::Bool(results.iter().all(|(_, o)| o.correct()))),
            (
                "workloads",
                Json::obj(results.iter().map(|(w, o)| (w.name(), o.to_json(args.trace)))),
            ),
        ]),
    };
    println!("{}", line.render_compact());
    ExitCode::SUCCESS
}
