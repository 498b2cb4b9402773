//! `mbbc` — the command-line driver.
//!
//! ```text
//! mbbc run      FILE
//! mbbc report   FILE [--machine origin|exemplar|origin/N]
//! mbbc optimize FILE [--machine …] [--no-fuse] [--no-shrink]
//!                    [--no-store-elim] [--emit]
//! mbbc serve         [--addr HOST:PORT] [--workers N] [--cache-mb M]
//!                    [--queue-depth D] [--idle-timeout SECS]
//!                    [--request-budget STEPS] [--deadline-ms MS]
//!                    [--brownout on|off]
//!                    [--peers A,B,C] [--advertise HOST:PORT]
//!                    [--pipeline-depth D]
//! ```
//!
//! `FILE` is a loop program in the paper's pseudo-code (grammar:
//! `mbb_ir::parse`); `-` reads standard input.  `--emit` prints the
//! optimised program (itself parseable) after the report.
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage, 3 parse error,
//! 4 validation error, 5 I/O error — the same classification `mbbc
//! serve` returns in structured error payloads.

use std::io::Read as _;
use std::process::ExitCode;
use std::time::Duration;

use mbb_cli::{
    cmd_analyze, cmd_graph, cmd_optimize_pipeline, cmd_run, cmd_trace, machine_by_name, ErrorKind,
    Kind, Options, SearchParams, ServeError,
};
use mbb_core::pipeline::FusionStrategy;

fn usage() -> &'static str {
    "usage: mbbc <run|report|advise|optimize|trace|trace-stats|graph> FILE [options]\n\
     \x20      mbbc serve [server options]\n\
     options:\n\
       --machine origin|exemplar|origin/N   machine model (default origin)\n\
       --engine auto|runs|scalar             interpreter engine (default auto)\n\
       --no-fuse | --no-shrink | --no-store-elim   disable a pipeline stage\n\
       --exhaustive | --bisection            alternative fusion strategies\n\
       --normalize                           expand + distribute before fusing\n\
       --regroup                             interleave co-accessed arrays\n\
       --search                              beam-search the transformation space\n\
       --beam N | --search-steps K | --search-seed S   search shape (with --search)\n\
       --pipeline SPEC                       replay an explicit sequence (e.g. a\n\
     \x20                                      search's winning sequence)\n\
       --deadline-ms MS                      wall-clock budget for the command\n\
       --emit                                print the optimised program\n\
       --profile                             append per-loop-nest bandwidth attribution\n\
       --trace-out FILE                      write a Chrome trace-event JSON profile\n\
     server options:\n\
       --addr HOST:PORT   bind address (default 127.0.0.1:7455; port 0 = pick)\n\
       --workers N        worker threads (default 4)\n\
       --cache-mb M       result-cache capacity (default 32)\n\
       --queue-depth D    accept-queue bound before shedding (default 64)\n\
       --idle-timeout S   exit after S seconds without traffic\n\
       --request-budget STEPS   cap interpreter steps per request (default 2^32)\n\
       --deadline-ms MS         wall-clock cap per request (default none)\n\
       --brownout on|off        brown-out degradation controller (default on)\n\
       --peers A,B,C      comma-separated tier members (host:port each); the\n\
     \x20                  nodes consistent-hash the cache key space among\n\
     \x20                  themselves and forward requests to the owner\n\
       --advertise H:P    this node's name in --peers (default: the bind\n\
     \x20                  address; must be a member of --peers)\n\
       --pipeline-depth D max in-flight requests per connection (default 32)\n"
}

fn read_source(path: &str) -> Result<String, ServeError> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| ServeError::new(ErrorKind::Io, format!("stdin: {e}")))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path)
            .map_err(|e| ServeError::new(ErrorKind::Io, format!("{path}: {e}")))
    }
}

fn onoff(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("mbbc: {flag} wants on|off, got `{other}`")),
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = mbb_server::Config { addr: "127.0.0.1:7455".to_string(), ..Default::default() };
    let mut k = 0;
    while k < args.len() {
        let flag = args[k].as_str();
        let Some(value) = args.get(k + 1) else {
            eprintln!("mbbc: {flag} needs a value");
            return ExitCode::from(2);
        };
        let numeric = || {
            value.parse::<u64>().map_err(|_| format!("mbbc: {flag} wants a number, got `{value}`"))
        };
        // Budget axes reject 0 outright: a zero budget would fail every
        // request, which is never what the operator meant.
        let positive = || {
            numeric().and_then(|n| {
                if n == 0 {
                    Err(format!("mbbc: {flag} wants a positive value, got `{value}`"))
                } else {
                    Ok(n)
                }
            })
        };
        let outcome = match flag {
            "--addr" => {
                cfg.addr = value.clone();
                Ok(())
            }
            "--workers" => numeric().map(|n| cfg.workers = (n as usize).max(1)),
            "--cache-mb" => numeric().map(|n| cfg.cache_bytes = n << 20),
            "--queue-depth" => numeric().map(|n| cfg.queue_depth = (n as usize).max(1)),
            "--idle-timeout" => numeric().map(|n| cfg.idle_timeout = Some(Duration::from_secs(n))),
            "--request-budget" => positive().map(|n| cfg.request_max_steps = Some(n)),
            "--deadline-ms" => {
                positive().map(|n| cfg.request_deadline = Some(Duration::from_millis(n)))
            }
            "--brownout" => onoff(flag, value).map(|b| cfg.brownout = b),
            "--peers" => {
                cfg.peers = value.split(',').map(|p| p.trim().to_string()).collect();
                Ok(())
            }
            "--advertise" => {
                cfg.advertise = value.clone();
                Ok(())
            }
            "--pipeline-depth" => positive().map(|n| cfg.pipeline_depth = n as usize),
            other => {
                eprintln!("mbbc: unknown serve option `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        };
        if let Err(e) = outcome {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        k += 2;
    }
    let result = mbb_server::serve(cfg, |addr, _handle| {
        println!("mbbc serve: listening on {addr} (mbb-serve/1)");
    });
    match result {
        Ok(()) => {
            println!("mbbc serve: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mbbc: serve: {e}");
            ExitCode::from(ErrorKind::Io.exit_code())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    if cmd == "serve" {
        return cmd_serve(&args[1..]);
    }
    if !matches!(
        cmd.as_str(),
        "run" | "report" | "advise" | "optimize" | "optimise" | "trace" | "trace-stats" | "graph"
    ) {
        eprintln!("mbbc: unknown command `{cmd}`\n{}", usage());
        return ExitCode::from(2);
    }
    let Some(file) = args.get(1) else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };

    let mut opts = Options::default();
    let mut emit = false;
    let mut profile = false;
    let mut trace_out: Option<String> = None;
    let mut search = false;
    let mut sp = SearchParams::default();
    let mut pipeline_spec: Option<String> = None;
    // Small helper for flags that carry one parsed value.
    macro_rules! take_value {
        ($k:ident, $flag:expr, $parse:expr) => {{
            $k += 1;
            match args.get($k).map($parse) {
                Some(Ok(v)) => v,
                Some(Err(_)) => {
                    eprintln!("mbbc: {} wants a number", $flag);
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("mbbc: {} needs a value", $flag);
                    return ExitCode::from(2);
                }
            }
        }};
    }
    let mut k = 2;
    while k < args.len() {
        match args[k].as_str() {
            "--profile" => profile = true,
            "--search" => search = true,
            "--beam" => sp.beam = take_value!(k, "--beam", |v: &String| v.parse::<usize>()).max(1),
            "--search-steps" => {
                sp.steps = take_value!(k, "--search-steps", |v: &String| v.parse::<usize>())
            }
            "--search-seed" => {
                sp.seed = take_value!(k, "--search-seed", |v: &String| v.parse::<u64>())
            }
            "--deadline-ms" => {
                let ms = take_value!(k, "--deadline-ms", |v: &String| v.parse::<u64>());
                opts.budget.wall = Some(Duration::from_millis(ms));
            }
            "--pipeline" => {
                k += 1;
                match args.get(k) {
                    Some(spec) => pipeline_spec = Some(spec.clone()),
                    None => {
                        eprintln!("mbbc: --pipeline needs a spec (e.g. fuse=0.1;shrink)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--trace-out" => {
                k += 1;
                match args.get(k) {
                    Some(path) => trace_out = Some(path.clone()),
                    None => {
                        eprintln!("mbbc: --trace-out needs a file path");
                        return ExitCode::from(2);
                    }
                }
            }
            "--machine" => {
                k += 1;
                match args.get(k).map(|m| machine_by_name(m)) {
                    Some(Ok(m)) => opts.machine = m,
                    Some(Err(e)) => {
                        eprintln!("mbbc: {e}");
                        return ExitCode::from(2);
                    }
                    None => {
                        eprintln!("mbbc: --machine needs a value");
                        return ExitCode::from(2);
                    }
                }
            }
            "--engine" => {
                k += 1;
                match args.get(k).map(|e| e.parse::<mbb_ir::Engine>()) {
                    Some(Ok(e)) => opts.engine = e,
                    Some(Err(e)) => {
                        eprintln!("mbbc: {e}");
                        return ExitCode::from(2);
                    }
                    None => {
                        eprintln!("mbbc: --engine needs a value");
                        return ExitCode::from(2);
                    }
                }
            }
            "--no-fuse" => opts.pipeline.fusion = FusionStrategy::None,
            "--normalize" | "--normalise" => opts.pipeline.normalize = true,
            "--bisection" => opts.pipeline.fusion = FusionStrategy::Bisection,
            "--exhaustive" => opts.pipeline.fusion = FusionStrategy::Exhaustive,
            "--no-shrink" => opts.pipeline.shrink = false,
            "--no-store-elim" => opts.pipeline.eliminate_stores = false,
            "--emit" => emit = true,
            "--regroup" => opts.regroup = true,
            other => {
                eprintln!("mbbc: unknown option `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
        k += 1;
    }

    if (search || pipeline_spec.is_some()) && !matches!(cmd.as_str(), "optimize" | "optimise") {
        eprintln!("mbbc: --search/--pipeline only apply to `optimize`\n{}", usage());
        return ExitCode::from(2);
    }
    if search && pipeline_spec.is_some() {
        eprintln!("mbbc: --search and --pipeline are mutually exclusive");
        return ExitCode::from(2);
    }

    // `run`/`trace`/`graph` interpret outside the Options-driven analysis
    // layer; setting the process default covers them too.
    mbb_ir::runs::set_default(opts.engine);

    opts.profile = profile || trace_out.is_some();
    let result = read_source(file).and_then(|src| {
        let kind = match cmd.as_str() {
            "report" => Kind::Report,
            "advise" => Kind::Advise,
            "trace-stats" => Kind::TraceStats,
            _ if search => Kind::OptimizeSearch,
            "optimize" | "optimise" if pipeline_spec.is_none() => Kind::Optimize,
            other if opts.profile => {
                let what = match pipeline_spec {
                    Some(_) => "--pipeline replays".to_string(),
                    None => format!("`{other}`"),
                };
                let why = format!("--profile/--trace-out do not apply to {what}");
                return Err(ServeError::new(ErrorKind::BadRequest, why));
            }
            "run" => return cmd_run(&src),
            "trace" => return cmd_trace(&src),
            "graph" => return cmd_graph(&src),
            _ => {
                let spec = pipeline_spec.as_deref().expect("only replays are left");
                let (report, program) = cmd_optimize_pipeline(&src, &opts, spec)?;
                return Ok(if emit { format!("{report}\n{program}") } else { report });
            }
        };
        let out = cmd_analyze(kind, &src, &opts, &sp)?;
        if let (Some(path), Some(profile)) = (&trace_out, &out.profile) {
            let doc = mbb_obs::chrometrace::chrome_trace(&[(kind.as_str(), profile)]);
            std::fs::write(path, doc.render())
                .map_err(|e| ServeError::new(ErrorKind::Io, format!("{path}: {e}")))?;
        }
        Ok(match out.optimized {
            Some(program) if emit => format!("{}\n{program}", out.text),
            _ => out.text,
        })
    });

    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mbbc: {e}");
            ExitCode::from(e.kind.exit_code())
        }
    }
}
