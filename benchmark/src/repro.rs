//! The `repro` workload: the paper reproduction, run as sequential fresh
//! processes.  A fresh process per run matters: `runner::figure1_shared`
//! and `ScoreCache::global` memoise per process, so an in-process rerun
//! would skip Figure 1's simulation and time less work.

use std::io::{self, Read as _};
use std::path::Path;
use std::process::Stdio;
use std::time::Instant;

use mbb_bench::json::Json;
use mbb_bench::perfgate::{self, GateSizes};

use crate::child::{self, Proc, Usage};
use crate::inputs::{digest, Workload};
use crate::{ms, Bins, Outcome, Passes};

/// The reproduction every run performs (`--json PATH` follows).
const REPRO_ARGS: [&str; 5] = ["all", "--quick", "--jobs", "1", "--json"];

/// The jobs whose timings the traced run reports; the rest take
/// milliseconds.
const TIMED_JOBS: [(&str, &str, &str); 6] = [
    ("sec21", "runner.sec21_s", "runner.sec21_mev_s"),
    ("fig1", "runner.fig1_s", "runner.fig1_mev_s"),
    ("fig3", "runner.fig3_s", "runner.fig3_mev_s"),
    ("sp", "runner.sp_s", "runner.sp_mev_s"),
    ("opt", "runner.opt_s", "runner.opt_mev_s"),
    ("fig8", "runner.fig8_s", "runner.fig8_mev_s"),
];

/// One finished reproduction.
struct Run {
    wall_ms: f64,
    usage: Usage,
    tables: String,
    doc: Json,
}

fn reproduce(repro: &Path, json: &Path) -> io::Result<Run> {
    let t = Instant::now();
    let child = child::command(repro)
        .args(REPRO_ARGS)
        .arg(json)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut proc = Proc::new(child);
    let mut tables = String::new();
    proc.child().stdout.take().expect("stdout is piped").read_to_string(&mut tables)?;
    let usage = proc.wait()?;
    let wall_ms = ms(t.elapsed());
    if !usage.status.success() {
        return Err(io::Error::other(format!("repro exited with {}", usage.status)));
    }
    let text = std::fs::read_to_string(json)?;
    std::fs::remove_file(json)?;
    let doc = Json::parse(&text).map_err(|e| io::Error::other(format!("repro --json: {e}")))?;
    Ok(Run { wall_ms, usage, tables, doc })
}

fn experiment<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    match doc.get("experiments") {
        Some(Json::Arr(xs)) => {
            xs.iter().find(|x| x.get("name").and_then(Json::as_str) == Some(name))
        }
        _ => None,
    }
}

fn number(doc: Option<&Json>, key: &str) -> f64 {
    doc.and_then(|d| d.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Runs passes for `seconds` (one when traced, followed by the simulator
/// perf gate in-process), each a set-up — `repro --list`, which starts
/// the binary and reads its job registry — and one reproduction.
pub fn run(bins: &Bins, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let io = |e: io::Error| format!("repro: {e}");
    let repro = bins.repro();
    let json = bins.scratch().map_err(io)?.join(format!("repro-{}.json", std::process::id()));
    let mut listing: Option<String> = None;
    let mut out = Outcome::default();
    let mut measured = Passes::default();
    let mut done: Vec<Run> = Vec::new();
    let mut pass = |_| {
        let t = Instant::now();
        let list =
            child::command(&repro).arg("--list").stdin(Stdio::null()).output().map_err(io)?;
        let setup_s = t.elapsed().as_secs_f64();
        let text = String::from_utf8_lossy(&list.stdout).into_owned();
        out.check(list.status.success(), || "repro --list failed".into());
        out.check(listing.as_ref().is_none_or(|l| *l == text), || "repro --list changed".into());
        if listing.is_none() {
            out.digest = digest(&format!("{}\n{text}", REPRO_ARGS.join(" ")));
            crate::guard_inputs(Workload::Repro, crate::inputs::DEFAULT_SEED, &out.digest)?;
            listing = Some(text);
        }

        out.attempted += 1;
        match reproduce(&repro, &json) {
            Ok(r) => {
                let wall = std::time::Duration::from_secs_f64(r.wall_ms / 1e3);
                // `ru_maxrss`, which is `repro`'s own peak: a reproduction
                // (about 60 MB) peaks far above the benchmark (about 20 MB).
                measured.add(setup_s, &[r.wall_ms], wall, r.usage.peak_rss);
                done.push(r);
            }
            Err(e) => out.fail(format!("repro run: {e}")),
        }
        Ok(())
    };
    let slowdown = if trace {
        pass(0)?;
        1.0
    } else {
        crate::timed_passes(seconds, pass)?
    };

    // Every run must reproduce the same tables and the same (timing-free)
    // results, and must have simulated Figure 1 itself.
    let fig1_events = |r: &Run| number(experiment(&r.doc, "fig1"), "events");
    let stripped = |r: &Run| {
        let mut d = r.doc.clone();
        mbb_bench::runner::strip_timing(&mut d);
        d.render_compact()
    };
    if let Some(first) = done.first() {
        out.check(fig1_events(first) > 0.0, || "fig1 simulated nothing".into());
        for r in &done[1..] {
            out.check(r.tables == first.tables, || "repro tables differ between runs".into());
            out.check(stripped(r) == stripped(first), || {
                "repro results differ between runs".into()
            });
            out.check(fig1_events(r) == fig1_events(first), || {
                format!(
                    "fig1 events differ between runs: {} vs {}",
                    fig1_events(r),
                    fig1_events(first)
                )
            });
        }
    }

    if !trace {
        measured.report(slowdown, &mut out);
        return Ok(out);
    }
    if let Some(r) = done.first() {
        for (job, wall, rate) in TIMED_JOBS {
            let x = experiment(&r.doc, job);
            out.set(wall, number(x, "wall_s"));
            out.set(rate, number(x, "events_per_sec") / 1e6);
        }
        // The jobs' own timings over the process's wall time as measured
        // from outside: start-up, scheduling and output lower it.
        let jobs: f64 = match r.doc.get("experiments") {
            Some(Json::Arr(xs)) => xs.iter().map(|x| number(Some(x), "wall_s")).sum(),
            _ => 0.0,
        };
        out.set("replay.coverage", jobs * 1e3 / r.wall_ms.max(f64::MIN_POSITIVE));
    }
    for k in perfgate::run_gate(&GateSizes::quick(), "quick", 5).kernels {
        let name = match k.name {
            "triad" => "perfgate.triad_mev_s",
            "fft" => "perfgate.fft_mev_s",
            "sweep3d" => "perfgate.sweep3d_mev_s",
            "search" => "perfgate.search_mev_s",
            _ => continue,
        };
        out.set(name, k.events_per_sec() / 1e6);
    }
    Ok(out)
}
