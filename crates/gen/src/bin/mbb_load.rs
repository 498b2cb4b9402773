//! `mbb-load` — seeded capacity-storm driver for `mbbc serve`.
//!
//! ```text
//! mbb-load --addr HOST:PORT [options]          storm an already-running server
//! mbb-load --tier A,B,C [options]              storm a running shard tier
//! mbb-load --spawn [--workers N] [--queue-depth N] [options]
//!                                              spawn an in-process server first
//! options:
//!   --seed S          storm seed (also honours GEN_SEED; default fixed)
//!   --clients N       concurrent keep-alive connections (default 8)
//!   --requests N      requests per client (default 200)
//!   --storm-ms MS     wall bound on the storm phase (default 5000)
//!   --calibrate N     unloaded baseline requests (default 24)
//!   --deadline-ms MS  per-request wall deadline, 0 = none (default 0)
//!   --drain-ms MS     recovery budget after the storm (default 30000)
//!   --timeout-ms MS   socket timeout (default 10000)
//!   --json PATH       write the mbb-load-capacity/1 report here (default stdout)
//!   --assert          exit 1 unless the graceful-degradation bounds hold
//! ```
//!
//! Saturation is driven by connection count: `--clients` must exceed the
//! target's `workers + queue_depth` for the storm to escalate the
//! brown-out controller.  `--spawn` sizes the in-process server so the
//! default client count does exactly that.  Exit codes: 0 success,
//! 1 storm failed its bounds (with `--assert`) or could not be driven,
//! 2 usage.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use mbb_gen::load::{run_tier, LoadConfig};
use mbb_gen::{resolve_seed, Args};

fn usage() -> &'static str {
    "usage: mbb-load (--addr HOST:PORT | --tier A,B,C | --spawn) [options]\n\
     options:\n\
       --tier A,B,C      comma-separated shard-tier members to storm\n\
     \x20                  round-robin (drain waits for every live member)\n\
       --seed S          storm seed (also honours GEN_SEED; default fixed)\n\
       --clients N       concurrent keep-alive connections (default 8)\n\
       --requests N      requests per client (default 200)\n\
       --storm-ms MS     wall bound on the storm phase (default 5000)\n\
       --calibrate N     unloaded baseline requests (default 24)\n\
       --deadline-ms MS  per-request wall deadline, 0 = none (default 0)\n\
       --drain-ms MS     recovery budget after the storm (default 30000)\n\
       --timeout-ms MS   socket timeout (default 10000)\n\
       --workers N       spawned server worker threads (default 1)\n\
       --queue-depth N   spawned server accept queue (default 4)\n\
       --json PATH       write the mbb-load-capacity/1 report here (default stdout)\n\
       --assert          exit 1 unless the graceful-degradation bounds hold\n"
}

/// The flags that take a value.
const VALUED: &[&str] = &[
    "--addr",
    "--tier",
    "--seed",
    "--clients",
    "--requests",
    "--storm-ms",
    "--calibrate",
    "--deadline-ms",
    "--drain-ms",
    "--timeout-ms",
    "--workers",
    "--queue-depth",
    "--json",
];

/// The flags that stand alone.
const SWITCHES: &[&str] = &["--spawn", "--assert"];

fn load_config(args: &Args) -> Result<LoadConfig, String> {
    let d = LoadConfig::default();
    let clients = args.usize_or("--clients", d.clients)?;
    if clients == 0 {
        return Err("--clients must be at least 1".to_string());
    }
    Ok(LoadConfig {
        seed: resolve_seed(args.get("--seed"), d.seed)?,
        clients,
        requests: args.usize_or("--requests", d.requests)?,
        storm_ms: args.u64_or("--storm-ms", d.storm_ms)?,
        calibrate: args.usize_or("--calibrate", d.calibrate)?.max(1),
        deadline_ms: args.u64_or("--deadline-ms", d.deadline_ms)?,
        drain_ms: args.u64_or("--drain-ms", d.drain_ms)?,
        timeout_ms: args.u64_or("--timeout-ms", d.timeout_ms)?.max(1),
    })
}

/// A spawned in-process target, shut down on drop via its handle.
struct Spawned {
    addr: SocketAddr,
    handle: mbb_server::server::Handle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Spawned {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn spawn_server(args: &Args) -> Result<Spawned, String> {
    let workers = args.usize_or("--workers", 1)?.max(1);
    let queue_depth = args.usize_or("--queue-depth", 4)?;
    let cfg = mbb_server::server::Config {
        workers,
        queue_depth,
        read_timeout: Duration::from_secs(5),
        ..mbb_server::server::Config::default()
    };
    let (addr, handle, thread) =
        mbb_server::server::spawn(cfg).map_err(|e| format!("spawned server failed: {e}"))?;
    Ok(Spawned { addr, handle, thread: Some(thread) })
}

/// Where the storm goes: a remote address, a whole shard tier, or an
/// in-process spawn.
enum Target {
    Addr(SocketAddr),
    Tier(Vec<SocketAddr>),
    Spawn,
}

/// Everything that can fail here is a usage error (exit 2).
fn plan(args: &Args) -> Result<(LoadConfig, Target), String> {
    let cfg = load_config(args)?;
    let target = match (args.has("--spawn"), args.get("--addr"), args.get("--tier")) {
        (true, None, None) => Target::Spawn,
        (false, Some(a), None) => {
            Target::Addr(a.parse().map_err(|e| format!("--addr `{a}`: {e}"))?)
        }
        (false, None, Some(t)) => {
            let members = t
                .split(',')
                .map(|a| a.trim().parse().map_err(|e| format!("--tier member `{a}`: {e}")))
                .collect::<Result<Vec<SocketAddr>, String>>()?;
            if members.is_empty() {
                return Err("--tier needs at least one member".to_string());
            }
            Target::Tier(members)
        }
        (false, None, None) => {
            return Err("need --addr HOST:PORT, --tier A,B,C, or --spawn".to_string())
        }
        _ => return Err("--addr, --tier, and --spawn are mutually exclusive".to_string()),
    };
    Ok((cfg, target))
}

fn drive(args: &Args, cfg: &LoadConfig, target: &Target) -> Result<bool, String> {
    let spawned = match target {
        Target::Spawn => Some(spawn_server(args)?),
        Target::Addr(_) | Target::Tier(_) => None,
    };
    let addrs: Vec<SocketAddr> = match (target, &spawned) {
        (Target::Addr(a), _) => vec![*a],
        (Target::Tier(t), _) => t.clone(),
        (Target::Spawn, Some(s)) => vec![s.addr],
        (Target::Spawn, None) => unreachable!("spawn target always spawns"),
    };

    let names: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    eprintln!(
        "mbb-load: storming {} with {} clients x {} requests (seed {:#x})",
        names.join(","),
        cfg.clients,
        cfg.requests,
        cfg.seed
    );
    let report = run_tier(&addrs, cfg)?;
    let rendered = report.render().render();
    match args.get("--json") {
        Some(path) => {
            std::fs::write(path, rendered + "\n").map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("mbb-load: report written to {path}");
        }
        None => println!("{rendered}"),
    }
    eprintln!(
        "mbb-load: report ok {}/{} (p99 {:.1}ms), search shed {} degraded {}, \
         max level {}, recovered in {}ms",
        report.report.ok,
        report.report.sent,
        report.report.percentile_ms(0.99),
        report.search.busy,
        report.search.degraded + report.report.degraded + report.optimize.degraded,
        report.max_level,
        report.drain_ms
    );

    if args.has("--assert") {
        let fails = report.check();
        for f in &fails {
            eprintln!("mbb-load: FAIL {f}");
        }
        return Ok(fails.is_empty());
    }
    Ok(true)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, cfg, target) = match Args::parse(&raw, VALUED, SWITCHES).and_then(|a| {
        let (cfg, target) = plan(&a)?;
        Ok((a, cfg, target))
    }) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("mbb-load: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match drive(&args, &cfg, &target) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mbb-load: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_documented_command_line_parses() {
        // CI, the nightly and the README.
        for line in [
            "--spawn --workers 2 --queue-depth 8 --clients 16 --requests 2000 --storm-ms 60000 \
             --deadline-ms 500 --seed 7 --assert --json LOAD_7.json",
            "--tier 127.0.0.1:7471,127.0.0.1:7472 --clients 18 --requests 2000 \
             --storm-ms 45000 --deadline-ms 500 --seed 7 --json LOAD_7.json",
            "--spawn --clients 8 --requests 100 --storm-ms 4000 --deadline-ms 250 --assert \
             --json load_smoke.json",
            "--addr 127.0.0.1:7456 --clients 8 --requests 100 --storm-ms 4000 \
             --deadline-ms 250 --assert --json load_live.json",
            "--spawn --calibrate 4 --drain-ms 100 --timeout-ms 100",
        ] {
            let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
            let args = Args::parse(&raw, VALUED, SWITCHES);
            assert!(args.is_ok(), "{line}: {args:?}");
        }
    }
}
