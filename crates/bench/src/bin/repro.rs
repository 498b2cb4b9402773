//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [all|sec21|fig1|fig2|fig3|fig4|fig6|fig8|sp|scaling|opt ...]
//!       [--quick] [--jobs N] [--json PATH] [--list]
//! repro gate [--quick] [--reps N] [--out DIR] [--baseline PATH]
//!            [--tolerance F] [--write-baseline]
//! repro ablations
//! ```
//!
//! Without selectors, runs everything at full size (tens of seconds of
//! simulation).  `--quick` uses the reduced sizes the test-suite uses.
//! Experiments run on a worker pool (`--jobs`, default: all cores); the
//! tables on stdout are byte-identical for every worker count — only the
//! per-job timing report on stderr and the timing fields of the `--json`
//! document vary.
//!
//! `repro gate` is the simulator perf-regression gate: it runs the
//! calibrated kernel suite (STREAM triad, FFT, a Sweep3D slice) under the
//! events/sec meter, appends the measurement to the `BENCH_<n>.json`
//! trajectory in `--out` (default `bench/`, first unused index), and
//! exits nonzero when any kernel falls below `baseline × (1 − tolerance)`
//! against `--baseline` (default `bench/baseline.json`; a missing
//! baseline skips comparison).  `--write-baseline` records the current
//! run as the new baseline.
//!
//! `repro ablations` prints the seven mechanism ablations EXPERIMENTS.md
//! cites (timing mode, associativity, padding, prefetch, regrouping, loop
//! order, TLB).  Its tables are deterministic and pinned by
//! `tests/golden/ablations.txt`.  Every form takes `--engine E`.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use mbb_bench::experiments::Sizes;
use mbb_bench::perfgate;
use mbb_bench::runner::{self, Ctx, Job};
use mbb_obs::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: repro [all|SELECTOR ...] [--quick] [--jobs N] [--json PATH] [--list] [--engine E]"
    );
    eprintln!("       repro gate [--quick] [--reps N] [--out DIR] [--baseline PATH]");
    eprintln!("                  [--tolerance F] [--write-baseline] [--engine E]");
    eprintln!("       repro ablations [--engine E]");
    eprintln!("       E = auto|runs|scalar (interpreter engine, default auto)");
    exit(2)
}

fn parse_engine(value: Option<String>) -> mbb_ir::Engine {
    let Some(e) = value.as_deref().map(str::parse) else {
        eprintln!("error: --engine needs a value (auto|runs|scalar)");
        usage()
    };
    match e {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("error: {msg}");
            usage()
        }
    }
}

fn gate_main(args: impl Iterator<Item = String>) -> ! {
    let mut quick = false;
    let mut reps: u32 = 3;
    let mut out_dir = PathBuf::from("bench");
    let mut baseline_path: Option<PathBuf> = None;
    let mut tolerance = perfgate::DEFAULT_TOLERANCE;
    let mut write_baseline = false;

    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--reps" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) else {
                    eprintln!("error: --reps needs a positive integer");
                    usage()
                };
                reps = n;
            }
            "--out" => {
                let Some(d) = args.next() else {
                    eprintln!("error: --out needs a directory");
                    usage()
                };
                out_dir = PathBuf::from(d);
            }
            "--baseline" => {
                let Some(p) = args.next() else {
                    eprintln!("error: --baseline needs a path");
                    usage()
                };
                baseline_path = Some(PathBuf::from(p));
            }
            "--tolerance" => {
                let parsed = args.next().and_then(|v| v.parse::<f64>().ok());
                let Some(t) = parsed.filter(|t| (0.0..1.0).contains(t)) else {
                    eprintln!("error: --tolerance needs a fraction in [0, 1)");
                    usage()
                };
                tolerance = t;
            }
            "--write-baseline" => write_baseline = true,
            "--engine" => mbb_ir::runs::set_default(parse_engine(args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown gate argument `{other}`");
                usage()
            }
        }
    }

    let (sizes, mode) = if quick {
        (perfgate::GateSizes::quick(), "quick")
    } else {
        (perfgate::GateSizes::full(), "full")
    };
    let baseline_path = baseline_path.unwrap_or_else(|| out_dir.join("baseline.json"));

    eprintln!("running gate kernels ({mode}, best of {reps})...");
    let report = perfgate::run_gate(&sizes, mode, reps);
    print!("{}", report.render());

    let doc = report.to_json();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        exit(1)
    }
    let bench_path = perfgate::next_bench_path(&out_dir);
    if let Err(e) = std::fs::write(&bench_path, doc.render()) {
        eprintln!("error: cannot write {}: {e}", bench_path.display());
        exit(1)
    }
    eprintln!("wrote {}", bench_path.display());

    if write_baseline {
        if let Err(e) = std::fs::write(&baseline_path, doc.render()) {
            eprintln!("error: cannot write {}: {e}", baseline_path.display());
            exit(1)
        }
        eprintln!("wrote {}", baseline_path.display());
    }

    let Ok(baseline_text) = std::fs::read_to_string(&baseline_path) else {
        eprintln!("no baseline at {}; comparison skipped", baseline_path.display());
        exit(0)
    };
    let baseline = match Json::parse(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: baseline {} is not valid JSON: {e}", baseline_path.display());
            exit(1)
        }
    };
    match perfgate::compare(&doc, &baseline, tolerance) {
        Ok(regressions) if regressions.is_empty() => {
            eprintln!(
                "gate passed: every kernel within {:.0}% of {}",
                tolerance * 100.0,
                baseline_path.display()
            );
            exit(0)
        }
        Ok(regressions) => {
            eprintln!("gate FAILED against {} (tolerance {tolerance}):", baseline_path.display());
            for r in &regressions {
                eprintln!("  {}", r.describe());
            }
            exit(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1)
        }
    }
}

fn ablations_main(mut args: impl Iterator<Item = String>) -> ! {
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--engine" => mbb_ir::runs::set_default(parse_engine(args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown ablations argument `{other}`");
                usage()
            }
        }
    }
    print!("{}", mbb_bench::ablations::render());
    exit(0)
}

fn main() {
    let registry = runner::paper_jobs();
    let mut quick = false;
    let mut threads: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut selectors: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("gate") => {
            args.next();
            gate_main(args)
        }
        Some("ablations") => {
            args.next();
            ablations_main(args)
        }
        _ => {}
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jobs" | "-j" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --jobs needs a positive integer");
                    usage()
                };
                threads = Some(n);
            }
            "--json" => {
                let Some(p) = args.next() else {
                    eprintln!("error: --json needs a path");
                    usage()
                };
                json_path = Some(p);
            }
            "--list" => {
                for job in &registry {
                    println!("{:8} {}", job.name, job.title);
                }
                return;
            }
            // Process-wide so the worker pool inherits it.  The tables must
            // come out byte-identical either way — that invariant is what
            // the differential-oracle CI lane diffs.
            "--engine" => mbb_ir::runs::set_default(parse_engine(args.next())),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag `{other}`");
                usage()
            }
            sel => selectors.push(sel.to_string()),
        }
    }

    let all = selectors.is_empty() || selectors.iter().any(|s| s == "all");
    let jobs: Vec<Job> = if all {
        registry.clone()
    } else {
        if let Some(bad) = selectors.iter().find(|s| !registry.iter().any(|j| j.name == s.as_str()))
        {
            let known: Vec<&str> = registry.iter().map(|j| j.name).collect();
            eprintln!("error: unknown selector `{bad}` (valid: all {})", known.join(" "));
            exit(2)
        }
        // Registry order, not command-line order: the report reads like the
        // paper no matter how selectors were typed.
        registry.iter().filter(|j| selectors.iter().any(|s| s == j.name)).copied().collect()
    };

    let threads = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1);
    let ctx = Ctx { sizes: if quick { Sizes::quick() } else { Sizes::full() }, quick };

    println!("== Reproduction of Ding & Kennedy, IPPS 2000 ==");
    println!(
        "sizes: {} (stream N = {}, cache scale ÷{})\n",
        if quick { "quick" } else { "full" },
        ctx.sizes.stream_n,
        ctx.sizes.cache_scale
    );

    let start = Instant::now();
    let results = runner::run_jobs(&jobs, &ctx, threads);
    let total_wall = start.elapsed();

    print!("{}", runner::render_report(&results));
    eprint!("{}", runner::render_timing(&results, total_wall, threads));

    if let Some(path) = json_path {
        let doc = runner::results_to_json(
            &results,
            if quick { "quick" } else { "full" },
            threads,
            total_wall,
        );
        if let Err(e) = std::fs::write(&path, doc.render()) {
            eprintln!("error: cannot write {path}: {e}");
            exit(1)
        }
        eprintln!("wrote {path}");
    }
}
