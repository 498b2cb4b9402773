//! The logic behind the `mbbc` command-line driver (kept in a library so
//! the test-suite can drive it without spawning processes).
//!
//! The analysis commands — `report`, `advise`, `trace-stats`, `optimize`
//! and `optimize --search` — are one function, [`cmd_analyze`], which
//! runs [`analysis::run`], the dispatch the network service uses, so
//! `mbbc` and `mbbc serve` can never disagree.  This crate adds what is
//! CLI-only: the per-execution `simulation:` and `search cache:` lines,
//! the rendered per-nest tables of `--profile`, the `--pipeline` replay,
//! the `run`/`trace`/`graph` commands, and exit-code classification via
//! [`ServeError`] (parse 3, validate 4, I/O 5).

use std::fmt::Write as _;

pub use mbb_server::analysis::{machine_by_name, Options, SearchParams};
pub use mbb_server::error::{ErrorKind, ServeError};
pub use mbb_server::protocol::Kind;

use mbb_ir::interp::{Interpreter, LayoutOpts};
use mbb_obs::json::Json;
use mbb_server::analysis::{self, load};

/// The `graph` command: render the program's fusion graph as Graphviz
/// DOT — solid directed edges for dependences, dashed red edges for
/// fusion-preventing pairs, node labels listing the arrays each nest
/// touches.
pub fn cmd_graph(src: &str) -> Result<String, ServeError> {
    let p = load(src)?;
    let g = mbb_core::fusion::build_fusion_graph(&p);
    let mut out = String::new();
    let _ = writeln!(out, "digraph fusion {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for k in 0..g.n {
        let arrays: Vec<&str> = g.arrays_of[k].iter().map(|&a| p.array(a).name.as_str()).collect();
        let _ =
            writeln!(out, "  n{k} [label=\"{}\\n{{{}}}\"];", p.nests[k].name, arrays.join(", "));
    }
    for &(a, b) in &g.deps {
        let _ = writeln!(out, "  n{a} -> n{b};");
    }
    for &(a, b) in &g.preventing {
        let _ =
            writeln!(out, "  n{a} -> n{b} [dir=none, style=dashed, color=red, constraint=false];");
    }
    let _ = writeln!(out, "}}");
    Ok(out)
}

/// The `trace` command: emit the program's access trace (Dinero-style
/// text, one access per line) to the returned string.  Intended for
/// interop with external cache simulators; traces grow with N.  The trace
/// is a value run's, from a [`trace_only`](Interpreter::trace_only) run.
pub fn cmd_trace(src: &str) -> Result<String, ServeError> {
    let p = load(src)?;
    let mut buf = Vec::new();
    {
        let mut w = mbb_memsim::tracefile::TraceWriter::new(&mut buf);
        Interpreter::trace_only(&p, LayoutOpts::default())
            .run(&mut w)
            .map_err(|e| ServeError::new(ErrorKind::Run, e.to_string()))?;
        w.finish().map_err(ServeError::from)?;
    }
    String::from_utf8(buf).map_err(|e| ServeError::new(ErrorKind::Run, e.to_string()))
}

/// The `run` command.
pub fn cmd_run(src: &str) -> Result<String, ServeError> {
    let p = load(src)?;
    let r = mbb_ir::interp::run(&p).map_err(|e| ServeError::new(ErrorKind::Run, e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program {}: ran {} iterations, {} flops, {} loads, {} stores",
        p.name, r.stats.iterations, r.stats.flops, r.stats.loads, r.stats.stores
    );
    for (name, v) in &r.observation.scalars {
        let _ = writeln!(out, "  {name} = {v}");
    }
    for (name, vs) in &r.observation.arrays {
        let shown = vs.iter().take(8).map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(", ");
        let _ = writeln!(
            out,
            "  {name}[0..{}] = [{shown}{}]",
            vs.len(),
            if vs.len() > 8 { ", …" } else { "" }
        );
    }
    Ok(out)
}

/// What an analysis command prints, plus what `--emit` and
/// `--trace-out` take from it.
pub struct Output {
    /// The report: the analysis text, then the per-nest attribution
    /// tables when a profile was asked for, or else the per-execution
    /// lines.
    pub text: String,
    /// The optimised source, for the two optimize kinds: the analysis
    /// data's `optimized_program`, which `--emit` prints.
    pub optimized: Option<String>,
    /// The span profile, when [`Options::profile`] was set.
    pub profile: Option<mbb_obs::Profile>,
}

/// The analysis commands: parses `src` and runs the analysis `kind`
/// names.
///
/// With [`Options::profile`] set, the text ends with the per-nest
/// attribution of each measurement (before and after, for the optimize
/// kinds).  Otherwise it ends with the lines that describe this
/// execution and that the server leaves out of its responses: for a
/// search, the score-cache delta (what *this* run hit and missed in the
/// process-wide cache), then the `simulation:` timing line.
pub fn cmd_analyze(
    kind: Kind,
    src: &str,
    opts: &Options,
    sp: &SearchParams,
) -> Result<Output, ServeError> {
    let p = load(src)?;
    let cache_before =
        (kind == Kind::OptimizeSearch).then(|| mbb_search::ScoreCache::global().stats());
    // Meters the whole simulation-backed region: for optimize, the
    // balance measurements, the verification runs and the re-measurement.
    let meter = mbb_obs::Meter::start();
    let mut a = analysis::run(kind, &p, opts, sp)?;
    let sim = meter.finish();
    let optimized = match a.data.get_mut("optimized_program") {
        Some(Json::Str(source)) => Some(std::mem::take(source)),
        _ => None,
    };
    let mut text = a.text;
    match &a.profile {
        Some(profile) => {
            for (phase, table) in analysis::nest_tables(profile) {
                let title = match phase {
                    Some(phase) => format!("per-nest attribution ({phase}):"),
                    None => "per-nest attribution:".to_string(),
                };
                let body = match table {
                    Some(table) => mbb_core::profile::render(&table),
                    None => "  (no interpreter run profiled)\n".to_string(),
                };
                let _ = write!(text, "\n{title}\n{body}");
            }
        }
        None => {
            if let Some(before) = cache_before {
                let after = mbb_search::ScoreCache::global().stats();
                let _ = writeln!(
                    text,
                    "  search cache: {} hit(s), {} miss(es)",
                    after.hits - before.hits,
                    after.misses - before.misses
                );
            }
            let _ = writeln!(text, "  simulation: {}", sim.summary());
        }
    }
    Ok(Output { text, optimized, profile: a.profile })
}

/// The `optimize --pipeline SPEC` command: replay an explicit
/// transformation sequence (e.g. the `winning sequence:` a search
/// printed) through [`analysis::optimize_replay`].  Returns `(report,
/// optimized_source)`.
pub fn cmd_optimize_pipeline(
    src: &str,
    opts: &Options,
    spec: &str,
) -> Result<(String, String), ServeError> {
    let p = load(src)?;
    let cand = mbb_core::spec::Candidate::parse(spec)
        .map_err(|e| ServeError::new(ErrorKind::BadRequest, format!("bad --pipeline spec: {e}")))?;
    let meter = mbb_obs::Meter::start();
    let (mut out, optimized) = analysis::optimize_replay(&p, opts, &cand)?;
    let _ = writeln!(out, "  simulation: {}", meter.finish().summary());
    Ok((out, optimized))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
program fig7
  array res[4096]
  array data[4096]
  scalar sum = 0  // printed
  for i = 0, 4095
    res[i] = (res[i] + data[i])
  end for
  for j = 0, 4095
    sum = (sum + res[j])
  end for
"#;

    #[test]
    fn run_reports_counters_and_outputs() {
        let out = cmd_run(SRC).unwrap();
        assert!(out.contains("8192 iterations"), "{out}");
        assert!(out.contains("sum = "), "{out}");
    }

    /// The analysis command with default options.
    fn analyze(kind: Kind, opts: &Options) -> Output {
        cmd_analyze(kind, SRC, opts, &SearchParams::default()).unwrap()
    }

    #[test]
    fn report_shows_channels_and_bound() {
        let out = analyze(Kind::Report, &Options::default());
        assert!(out.text.contains("Mem"), "{}", out.text);
        assert!(out.text.contains("CPU utilisation bound"), "{}", out.text);
        assert!(out.text.contains("bottleneck"), "{}", out.text);
        assert!(out.text.contains("simulation: simulated"), "{}", out.text);
        assert!(out.optimized.is_none() && out.profile.is_none());
    }

    #[test]
    fn trace_stats_shows_hierarchy_traffic() {
        let out = analyze(Kind::TraceStats, &Options::default()).text;
        assert!(out.contains("accesses:"), "{out}");
        assert!(out.contains("tlb misses"), "{out}");
        assert!(out.contains("simulation: simulated"), "{out}");
    }

    #[test]
    fn advise_ends_with_its_simulation_line() {
        let out = analyze(Kind::Advise, &Options::default()).text;
        let last = out.lines().last().unwrap_or_default();
        assert!(last.starts_with("  simulation: simulated"), "{out}");
    }

    #[test]
    fn optimize_round_trips_through_the_parser() {
        let out = analyze(Kind::Optimize, &Options::default());
        assert!(out.text.contains("store elimination"), "{}", out.text);
        assert!(out.text.contains("speedup"), "{}", out.text);
        assert!(out.text.contains("simulation: simulated"), "{}", out.text);
        // The emitted program must itself parse and behave identically.
        let optimized = out.optimized.expect("optimize returns its program");
        let p = load(SRC).unwrap();
        let q = load(&optimized).unwrap_or_else(|e| panic!("{e}\n{optimized}"));
        let rp = mbb_ir::interp::run(&p).unwrap();
        let rq = mbb_ir::interp::run(&q).unwrap();
        assert!(rp.observation.approx_eq(&rq.observation, 1e-9));
    }

    #[test]
    fn profiled_report_appends_a_nest_table_that_sums_to_the_report() {
        let out = analyze(Kind::Report, &Options { profile: true, ..Options::default() });
        assert!(out.text.contains("per-nest attribution:"), "{}", out.text);
        // Both loop nests appear as rows, plus the total row.
        assert!(out.text.contains("nest:"), "{}", out.text);
        assert!(out.text.contains("total"), "{}", out.text);
        assert!(!out.text.contains("simulation:"), "{}", out.text);

        // The table's totals are exactly the whole-program measurement.
        let profile = out.profile.expect("profile requested");
        let table = mbb_core::profile::nest_table(&profile).expect("table");
        let p = load(SRC).unwrap();
        let a = analysis::report(&p, &Options::default()).unwrap();
        let flops = a.data.get("flops").and_then(|j| j.as_f64()).unwrap();
        assert_eq!(table.flops as f64, flops);
    }

    #[test]
    fn profiled_optimize_shows_before_and_after_tables() {
        let out = analyze(Kind::Optimize, &Options { profile: true, ..Options::default() });
        assert!(out.text.contains("per-nest attribution (before):"), "{}", out.text);
        assert!(out.text.contains("per-nest attribution (after):"), "{}", out.text);
        assert!(load(&out.optimized.unwrap()).is_ok());
    }

    #[test]
    fn machine_names() {
        assert!(machine_by_name("origin").is_ok());
        assert!(machine_by_name("exemplar").is_ok());
        assert_eq!(machine_by_name("origin/64").unwrap().caches[1].size, 64 * 1024);
        assert!(machine_by_name("cray").is_err());
    }

    #[test]
    fn parse_errors_are_surfaced_with_their_kind() {
        let e = cmd_run("for i = 0, 3\n  bogus[i] = 1\nend for\n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Parse);
        assert!(e.message.contains("line 2"), "{e}");
    }

    #[test]
    fn validation_errors_are_distinguished_from_syntax() {
        // An inner loop rebinding `i` parses fine but fails validation.
        let e = cmd_run(
            "array a[16]\nfor i = 0, 3\n  for i = 0, 3\n    a[i] = 1\n  end for\nend for\n",
        )
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Validate, "{e}");
    }
}

#[cfg(test)]
mod graph_tests {
    use super::*;

    #[test]
    fn graph_emits_dot_with_deps_and_constraints() {
        let src = r#"
array a[32]
scalar s  // printed
scalar t  // printed
for i = 0, 31
  s = (s + a[i])
end for
for j = 0, 31
  t = (t + s)
end for
"#;
        let dot = cmd_graph(src).unwrap();
        assert!(dot.starts_with("digraph fusion {"), "{dot}");
        assert!(dot.contains("n0 -> n1;"), "dependence edge missing:\n{dot}");
        assert!(dot.contains("style=dashed"), "preventing edge missing:\n{dot}");
        assert!(dot.contains("{a}"), "array label missing:\n{dot}");
        assert!(dot.trim_end().ends_with('}'));
    }
}
