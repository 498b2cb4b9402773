//! `gen` — the mbb-gen command-line driver.
//!
//! ```text
//! gen one    [--seed S] [--template T] [--scale X]
//! gen corpus --count N [--seed S] [--dir PATH] [--scale X]
//! gen fuzz   --iters N [--seed S] [--mutate M] [--scale X]
//!            [--balance-slop F] [--artifact-dir PATH]
//! gen sweep  --count N [--seed S] [--scale X | --full] [--json PATH]
//! gen search-sweep --count N [--seed S] [--beam B] [--steps K] [--jobs J]
//!            [--scale X | --full] [--json PATH]
//! gen replay --family F --n N --k K --detail D [--mutate M] [--scale X]
//!            [--balance-slop F]
//! ```
//!
//! Each subcommand takes only the flags listed for it; any other flag is
//! a usage error.  The fuzz seed resolves as `--seed`, else the
//! `GEN_SEED` environment variable (the CI exploration lane sets it to
//! the run id), else a fixed default — mirroring the chaos suite's seed
//! discipline.  Exit codes: 0 success, 1 counterexample or failed
//! replay, 2 usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mbb_core::mutate::Mutation;
use mbb_gen::fuzz::{self, Config, Counterexample};
use mbb_gen::search_sweep::{search_sweep, SearchSweepConfig};
use mbb_gen::sweep::{sweep, SweepConfig};
use mbb_gen::templates::{self, Params};
use mbb_gen::{parse_u64, resolve_seed, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn usage() -> &'static str {
    "usage: gen <one|corpus|fuzz|sweep|search-sweep|replay> [options]\n\
     options:\n\
       --seed S          base seed (fuzz also honours GEN_SEED; default fixed)\n\
       --template T      template family: chain|stencil|reduce|rotate|triangle\n\
       --count N         programs to generate (corpus, sweep)\n\
       --iters N         fuzz iterations\n\
       --scale X         extent multiplier (default 1)\n\
       --full            sweep at full size (scale 64)\n\
       --beam B          search-sweep beam width (default 4)\n\
       --steps K         search-sweep expansion steps (default 5)\n\
       --jobs J          search-sweep worker threads (default 1)\n\
       --mutate M        plant an optimizer bug: swap-add-sub|drop-store|\n\
                         ignore-live-out|swap-balance-channels\n\
       --balance-slop F  allowed relative traffic growth (default 0.05)\n\
       --artifact-dir D  where fuzz writes counterexamples (default target/tmp/gen-fuzz)\n\
       --dir D           corpus output directory (default: print to stdout)\n\
       --json PATH       sweep output file (default: print to stdout)\n\
       --family F --n N --k K --detail D   exact replay coordinates\n"
}

/// The flags each subcommand takes: `(command, valued flags, switches)`.
const COMMANDS: [(&str, &[&str], &[&str]); 6] = [
    ("one", &["--seed", "--template", "--scale"], &[]),
    ("corpus", &["--count", "--seed", "--dir", "--scale"], &[]),
    (
        "fuzz",
        &["--iters", "--seed", "--mutate", "--scale", "--balance-slop", "--artifact-dir"],
        &[],
    ),
    ("sweep", &["--count", "--seed", "--scale", "--json"], &["--full"]),
    (
        "search-sweep",
        &["--count", "--seed", "--beam", "--steps", "--jobs", "--scale", "--json"],
        &["--full"],
    ),
    (
        "replay",
        &["--family", "--n", "--k", "--detail", "--mutate", "--scale", "--balance-slop"],
        &[],
    ),
];

fn fuzz_seed(args: &Args) -> Result<u64, String> {
    resolve_seed(args.get("--seed"), fuzz::DEFAULT_SEED)
}

fn config_from(args: &Args) -> Result<Config, String> {
    let mut cfg = Config { scale: args.u32_or("--scale", 1)?, ..Config::default() };
    if let Some(m) = args.get("--mutate") {
        cfg.mutation = Some(m.parse::<Mutation>()?);
    }
    if let Some(v) = args.get("--balance-slop") {
        cfg.balance_slop =
            v.parse::<f64>().map_err(|_| format!("--balance-slop wants a float, got `{v}`"))?;
    }
    Ok(cfg)
}

fn params_from_seed(seed: u64, args: &Args) -> Result<Params, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = templates::sample_params(&mut rng);
    if let Some(t) = args.get("--template") {
        params.family = templates::family_index(t)
            .ok_or_else(|| format!("unknown template `{t}` (see --help)"))?;
    }
    Ok(params)
}

fn cmd_one(args: &Args) -> Result<(), String> {
    let seed = fuzz_seed(args)?;
    let scale = args.u32_or("--scale", 1)?;
    let params = params_from_seed(seed, args)?;
    let prog = templates::generate(params, scale);
    mbb_ir::validate(&prog).map_err(|e| format!("generator bug: {e}"))?;
    println!("// replay: gen replay {}", params.replay_args());
    print!("{}", mbb_ir::pretty::program(&prog));
    Ok(())
}

fn cmd_corpus(args: &Args) -> Result<(), String> {
    let seed = fuzz_seed(args)?;
    let count = args.u32_or("--count", 10)?;
    let scale = args.u32_or("--scale", 1)?;
    let dir = args.get("--dir").map(PathBuf::from);
    if let Some(d) = &dir {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    for k in 0..count {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let params = templates::sample_params(&mut rng);
        let prog = templates::generate(params, scale);
        let text = format!(
            "// generated by mbb-gen (seed {seed:#x}, index {k})\n// replay: gen replay {}\n{}",
            params.replay_args(),
            mbb_ir::pretty::program(&prog)
        );
        match &dir {
            Some(d) => {
                let path = d.join(format!("{}.loop", prog.name));
                std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
            None => println!("{text}"),
        }
    }
    Ok(())
}

fn write_artifacts(dir: &Path, cex: &Counterexample) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("gen: cannot create {}: {e}", dir.display());
        return;
    }
    let program = dir.join("counterexample.loop");
    let replay = dir.join("replay.txt");
    let report = format!(
        "mbb-gen fuzz counterexample\n\
         kind:    {}\n\
         detail:  {}\n\
         found:   {}\n\
         minimal: {}\n\
         shrink steps: {}\n\
         replay:  {}\n",
        cex.minimal.kind,
        cex.minimal.detail,
        cex.found.params.replay_args(),
        cex.minimal.params.replay_args(),
        cex.shrink_steps,
        cex.replay,
    );
    for (path, contents) in [(&program, &cex.program), (&replay, &report)] {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("gen: cannot write {}: {e}", path.display());
        } else {
            eprintln!("gen: wrote {}", path.display());
        }
    }
}

fn cmd_fuzz(args: &Args) -> Result<ExitCode, String> {
    let seed = fuzz_seed(args)?;
    let iters = args.u32_or("--iters", 100)?;
    let cfg = config_from(args)?;
    let artifact_dir = PathBuf::from(args.get("--artifact-dir").unwrap_or("target/tmp/gen-fuzz"));
    println!(
        "gen fuzz: {iters} iters, seed {seed:#x}, scale {}, mutation {}",
        cfg.scale,
        cfg.mutation.map_or("none".to_string(), |m| m.to_string()),
    );
    match fuzz::fuzz(seed, iters, &cfg, |iter, params| {
        if iter % 50 == 0 && iter > 0 {
            println!("gen fuzz: {iter}/{iters} cases green (at {})", params.program_name());
        }
    }) {
        Ok(n) => {
            println!("gen fuzz: all {n} cases green");
            Ok(ExitCode::SUCCESS)
        }
        Err(cex) => {
            println!("gen fuzz: FAILURE: {} — {}", cex.minimal.kind, cex.minimal.detail);
            println!(
                "gen fuzz: found at {}, shrunk {} steps to {}",
                cex.found.params.replay_args(),
                cex.shrink_steps,
                cex.minimal.params.replay_args()
            );
            println!("gen fuzz: minimal program:\n{}", cex.program);
            println!("gen fuzz: replay with: {}", cex.replay);
            write_artifacts(&artifact_dir, &cex);
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let seed = fuzz_seed(args)?;
    let count = args.u32_or("--count", 50)?;
    let scale = if args.has("--full") { 64 } else { args.u32_or("--scale", 1)? };
    let cfg = SweepConfig { count, seed, scale };
    let doc = sweep(&cfg, |k, params| {
        if k % 25 == 0 && k > 0 {
            eprintln!("gen sweep: {k}/{count} ({})", params.program_name());
        }
    });
    let rendered = doc.render();
    match args.get("--json") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("gen sweep: wrote {path}");
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

fn cmd_search_sweep(args: &Args) -> Result<(), String> {
    let seed = fuzz_seed(args)?;
    let count = args.u32_or("--count", 50)?;
    let scale = if args.has("--full") { 64 } else { args.u32_or("--scale", 1)? };
    let cfg = SearchSweepConfig {
        count,
        seed,
        scale,
        beam: args.u32_or("--beam", mbb_search::engine::DEFAULT_BEAM as u32)?.max(1) as usize,
        steps: args.u32_or("--steps", mbb_search::engine::DEFAULT_STEPS as u32)? as usize,
        jobs: args.u32_or("--jobs", 1)?.max(1) as usize,
    };
    let doc = search_sweep(&cfg, |k, params| {
        if k % 25 == 0 && k > 0 {
            eprintln!("gen search-sweep: {k}/{count} ({})", params.program_name());
        }
    });
    let rendered = doc.render();
    match args.get("--json") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("gen search-sweep: wrote {path}");
        }
        None => println!("{rendered}"),
    }
    let never_worse = doc
        .get("summary")
        .and_then(|s| s.get("never_worse"))
        .is_some_and(|v| v == &mbb_obs::json::Json::Bool(true));
    if !never_worse {
        return Err("search landed above its fixed-pipeline floor (see summary)".into());
    }
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<ExitCode, String> {
    let family = match args.get("--family") {
        None => return Err("replay needs --family".into()),
        Some(name) => match templates::family_index(name) {
            Some(f) => f,
            None => parse_u64(name)
                .and_then(|n| u8::try_from(n).ok())
                .ok_or_else(|| format!("unknown template `{name}`"))?,
        },
    };
    let params = Params {
        family,
        n: args.u32_or("--n", *templates::N_RANGE.start())?,
        k: args.u32_or("--k", *templates::K_RANGE.start())?,
        detail: args.u64_or("--detail", 0)?,
    };
    let cfg = config_from(args)?;
    println!("gen replay: {} (scale {})", params.replay_args(), cfg.scale);
    match fuzz::check(params, &cfg) {
        Ok(()) => {
            println!("gen replay: case passes");
            Ok(ExitCode::SUCCESS)
        }
        Err(f) => {
            println!("gen replay: FAILURE: {} — {}", f.kind, f.detail);
            print!("{}", mbb_ir::pretty::program(&templates::generate(params, cfg.scale)));
            Ok(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first() else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    let Some(&(_, valued, switches)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        eprintln!("gen: unknown command `{cmd}`\n{}", usage());
        return ExitCode::from(2);
    };
    let args = match Args::parse(&raw[1..], valued, switches) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gen {cmd}: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match cmd.as_str() {
        "one" => cmd_one(&args).map(|()| ExitCode::SUCCESS),
        "corpus" => cmd_corpus(&args).map(|()| ExitCode::SUCCESS),
        "fuzz" => cmd_fuzz(&args),
        "sweep" => cmd_sweep(&args).map(|()| ExitCode::SUCCESS),
        "search-sweep" => cmd_search_sweep(&args).map(|()| ExitCode::SUCCESS),
        "replay" => cmd_replay(&args),
        _ => unreachable!("COMMANDS lists every subcommand"),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gen: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parses(line: &str) -> Result<Args, String> {
        let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (_, valued, switches) = COMMANDS.iter().find(|(name, ..)| *name == raw[0]).unwrap();
        Args::parse(&raw[1..], valued, switches)
    }

    #[test]
    fn every_documented_command_line_parses() {
        // CI, the nightly, the README, EXPERIMENTS.md, the verify notes
        // and the replay commands fuzz failures print.
        for line in [
            "fuzz --iters 200 --artifact-dir target/tmp/gen-fuzz",
            "fuzz --iters 200 --mutate swap-add-sub --artifact-dir target/tmp/gen-canary",
            "fuzz --iters 2000 --artifact-dir target/tmp/gen-fuzz",
            "fuzz --iters 200 --seed 3 --scale 2 --balance-slop 0.1",
            "search-sweep --count 40 --seed 1 --beam 2 --steps 2 --jobs 1 --json sweep_j1.json",
            "search-sweep --count 200 --full --jobs 2 --seed 7 --json SEARCH_7.json",
            "search-sweep --count 50 --jobs 2 --json search.json --scale 2",
            "sweep --count 300 --full --seed 7 --json SWEEP_7.json",
            "sweep --count 3 --scale 2",
            "one --template stencil --seed 42 --scale 1",
            "corpus --count 20 --dir /tmp/corpus --seed 1 --scale 1",
            "replay --family chain --n 17 --k 3 --detail 0x9e3779b9 --scale 64",
            "replay --family chain --n 4 --k 1 --detail 0x0 --mutate swap-add-sub",
            "replay --family reduce --n 4 --k 1 --detail 0x0 --balance-slop 0.1",
        ] {
            assert!(parses(line).is_ok(), "{line}: {:?}", parses(line));
        }
    }
}
