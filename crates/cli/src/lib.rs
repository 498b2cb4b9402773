//! The logic behind the `mbbc` command-line driver (kept in a library so
//! the test-suite can drive it without spawning processes).
//!
//! The analysis commands — `report`, `advise`, `optimize`, `trace-stats`
//! — delegate to [`mbb_server::analysis`], the same entry points the
//! network service uses, so `mbbc` and `mbbc serve` can never disagree.
//! This crate adds what is CLI-only: the nondeterministic `simulation:`
//! timing line, the `run`/`trace`/`graph` commands, and exit-code
//! classification via [`ServeError`] (parse 3, validate 4, I/O 5).

use std::fmt::Write as _;

pub use mbb_server::analysis::{machine_by_name, Options, SearchParams};
pub use mbb_server::error::{ErrorKind, ServeError};

use mbb_ir::Program;
use mbb_server::analysis;

/// Parses source text, surfacing errors with line numbers and
/// classifying them for the exit code.
pub fn load(src: &str) -> Result<Program, ServeError> {
    analysis::load(src)
}

/// The `advise` command: the §4 bandwidth-tuning report.
pub fn cmd_advise(src: &str, opts: &Options) -> Result<String, ServeError> {
    let p = load(src)?;
    Ok(analysis::advise(&p, opts)?.text)
}

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
/// interop with external cache simulators; traces grow with N.
pub fn cmd_trace(src: &str) -> Result<String, ServeError> {
    let p = load(src)?;
    let mut buf = Vec::new();
    {
        let mut w = mbb_memsim::tracefile::TraceWriter::new(&mut buf);
        mbb_ir::interp::run_traced(&p, &mut w)
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

/// The `report` command.
pub fn cmd_report(src: &str, opts: &Options) -> Result<String, ServeError> {
    let p = load(src)?;
    let meter = mbb_obs::Meter::start();
    let a = analysis::report(&p, opts)?;
    let sim = meter.finish();
    let mut out = a.text;
    let _ = writeln!(out, "  simulation: {}", sim.summary());
    Ok(out)
}

/// The `trace-stats` command: execution counters plus induced hierarchy
/// traffic (also served over the wire by `mbbc serve`).
pub fn cmd_trace_stats(src: &str, opts: &Options) -> Result<String, ServeError> {
    let p = load(src)?;
    let meter = mbb_obs::Meter::start();
    let a = analysis::trace_stats(&p, opts)?;
    let sim = meter.finish();
    let mut out = a.text;
    let _ = writeln!(out, "  simulation: {}", sim.summary());
    Ok(out)
}

/// A profiled analysis run: the report text with per-nest attribution
/// tables appended, plus the labeled span profiles (one per timeline
/// track) for `--trace-out` export.
pub struct Profiled {
    pub text: String,
    pub profiles: Vec<(String, mbb_obs::Profile)>,
}

/// Renders one per-nest attribution table, or an honest placeholder when
/// the profile carries no interpreter run under `phase`.
fn nest_section(title: &str, profile: &mbb_obs::Profile, phase: Option<&str>) -> String {
    match mbb_core::profile::nest_table_under(profile, phase) {
        Some(table) => format!("{title}\n{}", mbb_core::profile::render(&table)),
        None => format!("{title}\n  (no interpreter run profiled)\n"),
    }
}

/// The `report --profile` command: the ordinary report followed by the
/// per-nest bandwidth attribution of the measurement run.
pub fn cmd_report_profiled(src: &str, opts: &Options) -> Result<Profiled, ServeError> {
    let p = load(src)?;
    let opts = Options { profile: true, ..opts.clone() };
    let a = analysis::report(&p, &opts)?;
    let profile = a.profile.expect("profile requested");
    let mut text = a.text;
    let _ = write!(text, "\n{}", nest_section("per-nest attribution:", &profile, None));
    Ok(Profiled { text, profiles: vec![("report".to_string(), profile)] })
}

/// The `trace-stats --profile` command.
pub fn cmd_trace_stats_profiled(src: &str, opts: &Options) -> Result<Profiled, ServeError> {
    let p = load(src)?;
    let opts = Options { profile: true, ..opts.clone() };
    let a = analysis::trace_stats(&p, &opts)?;
    let profile = a.profile.expect("profile requested");
    let mut text = a.text;
    let _ = write!(text, "\n{}", nest_section("per-nest attribution:", &profile, None));
    Ok(Profiled { text, profiles: vec![("trace-stats".to_string(), profile)] })
}

/// The `advise --profile` command.
pub fn cmd_advise_profiled(src: &str, opts: &Options) -> Result<Profiled, ServeError> {
    let p = load(src)?;
    let opts = Options { profile: true, ..opts.clone() };
    let a = analysis::advise(&p, &opts)?;
    let profile = a.profile.expect("profile requested");
    let mut text = a.text;
    let _ = write!(text, "\n{}", nest_section("per-nest attribution:", &profile, None));
    Ok(Profiled { text, profiles: vec![("advise".to_string(), profile)] })
}

/// The `optimize --profile` command; returns the profiled report (with
/// *before* and *after* attribution tables) and the optimised source.
pub fn cmd_optimize_profiled(src: &str, opts: &Options) -> Result<(Profiled, String), ServeError> {
    let p = load(src)?;
    let opts = Options { profile: true, ..opts.clone() };
    let (a, optimized) = analysis::optimize(&p, &opts)?;
    let profile = a.profile.expect("profile requested");
    let mut text = a.text;
    let _ = write!(
        text,
        "\n{}\n{}",
        nest_section("per-nest attribution (before):", &profile, Some("before")),
        nest_section("per-nest attribution (after):", &profile, Some("after")),
    );
    Ok((Profiled { text, profiles: vec![("optimize".to_string(), profile)] }, optimized))
}

/// Appends the CLI-only per-execution lines to a search report: the
/// score-cache delta (what *this* run hit and missed in the process-wide
/// cache) and the `simulation:` timing line.  Both are execution facts,
/// excluded from the deterministic analysis text for the same reason the
/// server excludes them from responses.
fn append_search_footer(
    out: &mut String,
    before: mbb_search::cache::CacheStats,
    sim: mbb_obs::Measure,
) {
    let after = mbb_search::ScoreCache::global().stats();
    let _ = writeln!(
        out,
        "  search cache: {} hit(s), {} miss(es)",
        after.hits - before.hits,
        after.misses - before.misses
    );
    let _ = writeln!(out, "  simulation: {}", sim.summary());
}

/// The `optimize --search` command; returns `(report, optimized_source)`.
pub fn cmd_optimize_search(
    src: &str,
    opts: &Options,
    sp: &SearchParams,
) -> Result<(String, String), ServeError> {
    let p = load(src)?;
    let cache_before = mbb_search::ScoreCache::global().stats();
    let meter = mbb_obs::Meter::start();
    let (a, optimized) = analysis::optimize_search(&p, opts, sp)?;
    let mut out = a.text;
    append_search_footer(&mut out, cache_before, meter.finish());
    Ok((out, optimized))
}

/// The `optimize --search --profile` command: the search report with
/// *before* and *after* attribution tables (the profile also carries the
/// `search` and per-candidate `score:<spec>` spans for `--trace-out`).
pub fn cmd_optimize_search_profiled(
    src: &str,
    opts: &Options,
    sp: &SearchParams,
) -> Result<(Profiled, String), ServeError> {
    let p = load(src)?;
    let opts = Options { profile: true, ..opts.clone() };
    let (a, optimized) = analysis::optimize_search(&p, &opts, sp)?;
    let profile = a.profile.expect("profile requested");
    let mut text = a.text;
    let _ = write!(
        text,
        "\n{}\n{}",
        nest_section("per-nest attribution (before):", &profile, Some("before")),
        nest_section("per-nest attribution (after):", &profile, Some("after")),
    );
    Ok((Profiled { text, profiles: vec![("optimize-search".to_string(), profile)] }, optimized))
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

/// The `optimize` command; returns `(report, optimized_source)`.
pub fn cmd_optimize(src: &str, opts: &Options) -> Result<(String, String), ServeError> {
    let p = load(src)?;
    // Meter the whole simulation-backed region — balance measurements,
    // the equivalence verification runs, and the re-measurement of the
    // optimised program — exactly as `report` meters its single run.
    let meter = mbb_obs::Meter::start();
    let (a, optimized) = analysis::optimize(&p, opts)?;
    let sim = meter.finish();
    let mut out = a.text;
    let _ = writeln!(out, "  simulation: {}", sim.summary());
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

    #[test]
    fn report_shows_channels_and_bound() {
        let out = cmd_report(SRC, &Options::default()).unwrap();
        assert!(out.contains("Mem"), "{out}");
        assert!(out.contains("CPU utilisation bound"), "{out}");
        assert!(out.contains("bottleneck"), "{out}");
        assert!(out.contains("simulation: simulated"), "{out}");
    }

    #[test]
    fn trace_stats_shows_hierarchy_traffic() {
        let out = cmd_trace_stats(SRC, &Options::default()).unwrap();
        assert!(out.contains("accesses:"), "{out}");
        assert!(out.contains("tlb misses"), "{out}");
        assert!(out.contains("simulation: simulated"), "{out}");
    }

    #[test]
    fn optimize_round_trips_through_the_parser() {
        let (report, optimized) = cmd_optimize(SRC, &Options::default()).unwrap();
        assert!(report.contains("store elimination"), "{report}");
        assert!(report.contains("speedup"), "{report}");
        assert!(report.contains("simulation: simulated"), "{report}");
        // The emitted program must itself parse and behave identically.
        let p = load(SRC).unwrap();
        let q = load(&optimized).unwrap_or_else(|e| panic!("{e}\n{optimized}"));
        let rp = mbb_ir::interp::run(&p).unwrap();
        let rq = mbb_ir::interp::run(&q).unwrap();
        assert!(rp.observation.approx_eq(&rq.observation, 1e-9));
    }

    #[test]
    fn profiled_report_appends_a_nest_table_that_sums_to_the_report() {
        let out = cmd_report_profiled(SRC, &Options::default()).unwrap();
        assert!(out.text.contains("per-nest attribution:"), "{}", out.text);
        // Both loop nests appear as rows, plus the total row.
        assert!(out.text.contains("nest:"), "{}", out.text);
        assert!(out.text.contains("total"), "{}", out.text);
        assert_eq!(out.profiles.len(), 1);
        let (label, profile) = &out.profiles[0];
        assert_eq!(label, "report");

        // The table's totals are exactly the whole-program measurement.
        let table = mbb_core::profile::nest_table(profile).expect("table");
        let p = load(SRC).unwrap();
        let a = mbb_server::analysis::report(&p, &Options::default()).unwrap();
        let flops = a.data.get("flops").and_then(|j| j.as_f64()).unwrap();
        assert_eq!(table.flops as f64, flops);
    }

    #[test]
    fn profiled_optimize_shows_before_and_after_tables() {
        let (out, optimized) = cmd_optimize_profiled(SRC, &Options::default()).unwrap();
        assert!(out.text.contains("per-nest attribution (before):"), "{}", out.text);
        assert!(out.text.contains("per-nest attribution (after):"), "{}", out.text);
        assert!(load(&optimized).is_ok());
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
