//! The analysis entry points shared by `mbbc` and the network service.
//!
//! Each function takes a *parsed* program plus [`Options`] and produces an
//! [`Analysis`]: the exact deterministic text `mbbc` prints (minus the
//! nondeterministic `simulation:` timing line, which the CLI appends
//! itself) and the same facts as structured JSON for the `mbb-serve/1`
//! protocol.  Keeping one producer for both surfaces is what makes the
//! server's byte-identical-to-the-CLI guarantee checkable.

use std::fmt::Write as _;

use mbb_core::advisor::{advise as core_advise, ArrayFinding};
use mbb_core::balance::{measure_program_balance, ratios, simulate, ProgramBalance};
use mbb_core::fusion::EXHAUSTIVE_MAX_NESTS;
use mbb_core::pipeline::{
    normalize, optimize as run_pipeline, verify_equivalent, FusionStrategy, OptimizeOptions,
};
use mbb_core::profile::{nest_table, nest_table_under, NestTable};
use mbb_core::regroup::{regroup_all, RegroupAction};
use mbb_core::spec::Candidate;
use mbb_ir::budget::Budget;
use mbb_ir::interp::{Interpreter, LayoutOpts};
use mbb_ir::{parse, pretty, Program};
use mbb_memsim::machine::MachineModel;
use mbb_memsim::timing::{predict, Bottleneck, Prediction};
use mbb_obs::channel_names;
use mbb_obs::json::Json;

use crate::error::{ErrorKind, ServeError};
use crate::protocol::Kind;

/// Options shared by the analysis commands.
#[derive(Clone, Debug)]
pub struct Options {
    /// The machine model to measure against.
    pub machine: MachineModel,
    /// Pipeline configuration (optimize only).
    pub pipeline: OptimizeOptions,
    /// Also apply inter-array data regrouping after the pipeline.
    pub regroup: bool,
    /// Execution budget for every interpreter run this analysis performs
    /// (default unlimited).  Installed at each entry point, so balance
    /// measurement, timing, tracing, and the equivalence verification all
    /// charge one shared allowance.
    pub budget: Budget,
    /// Collect a span profile of this analysis: per-phase wall/CPU time
    /// and per-loop-nest attributed traffic.  Off by default — profiled
    /// runs pay for the odometer, and their results are per-execution
    /// facts, so the server skips the cache for them.
    pub profile: bool,
    /// Which interpreter engine executes every run this analysis performs
    /// (default [`Engine::Auto`](mbb_ir::Engine::Auto)).  The engines are
    /// observably identical —
    /// that invariant is CI-enforced — so the server deliberately leaves
    /// the engine *out* of its result-cache key: a `runs` request may be
    /// served from a cached `scalar` result and vice versa.
    pub engine: mbb_ir::Engine,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            machine: MachineModel::origin2000(),
            pipeline: OptimizeOptions::default(),
            regroup: false,
            budget: Budget::UNLIMITED,
            profile: false,
            engine: mbb_ir::Engine::Auto,
        }
    }
}

/// One analysis result: human text plus the same facts as JSON.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Deterministic report text, exactly as `mbbc` prints it (without
    /// the trailing `simulation:` timing line).
    pub text: String,
    /// The structured equivalent, embedded in `mbb-serve/1` responses.
    pub data: Json,
    /// The span profile, when [`Options::profile`] was set.
    pub profile: Option<mbb_obs::Profile>,
}

impl Analysis {
    fn new(text: String, data: Json) -> Analysis {
        Analysis { text, data, profile: None }
    }
}

/// Runs `f` under a [`Mode::Full`](mbb_obs::Mode::Full) collector when
/// `enabled`, attaching the finished profile to the result.
fn profiled<T>(
    enabled: bool,
    f: impl FnOnce() -> Result<T, ServeError>,
    attach: impl FnOnce(&mut T, mbb_obs::Profile),
) -> Result<T, ServeError> {
    if !enabled {
        return f();
    }
    let c = mbb_obs::collect(mbb_obs::Mode::Full);
    let mut out = f()?;
    attach(&mut out, c.finish());
    Ok(out)
}

/// Serialises a profile for the response envelope / `--profile` output:
/// whole-run timing, every span with its attributed counters, and the
/// extracted per-nest balance table(s) when the profile contains an
/// interpretation.
pub fn profile_json(p: &mbb_obs::Profile) -> Json {
    let span_json = |s: &mbb_obs::SpanRecord| {
        let channels = s.delta.channels_used();
        let mut pairs = vec![
            ("name".to_string(), Json::str(s.name.clone())),
            ("depth".to_string(), Json::UInt(s.depth as u64)),
            ("wall_ns".to_string(), Json::UInt(s.wall_ns)),
        ];
        if let Some(p) = s.parent {
            pairs.push(("parent".into(), Json::UInt(p as u64)));
        }
        if let Some(cpu) = s.cpu_ns {
            pairs.push(("cpu_ns".into(), Json::UInt(cpu)));
        }
        if s.delta.accesses > 0 {
            pairs.push(("accesses".into(), Json::UInt(s.delta.accesses)));
        }
        if s.delta.flops > 0 {
            pairs.push(("flops".into(), Json::UInt(s.delta.flops)));
        }
        if channels > 0 {
            pairs.push((
                "channel_bytes".into(),
                Json::arr((0..channels).map(|k| Json::UInt(s.delta.channel_bytes[k]))),
            ));
        }
        Json::Obj(pairs)
    };
    let mut pairs = vec![
        ("wall_ns".to_string(), Json::UInt(p.wall_ns)),
        ("spans".to_string(), Json::arr(p.spans.iter().map(span_json))),
    ];
    if let Some(cpu) = p.cpu_ns {
        pairs.insert(1, ("cpu_ns".into(), Json::UInt(cpu)));
    }
    let table_json = |t: &NestTable| {
        Json::obj([
            (
                "rows",
                Json::arr(t.rows.iter().map(|r| {
                    Json::obj([
                        ("name", Json::str(r.name.clone())),
                        ("flops", Json::UInt(r.flops)),
                        (
                            "channel_bytes",
                            Json::arr(
                                (0..t.channels).map(|k| Json::UInt(r.delta.channel_bytes[k])),
                            ),
                        ),
                    ])
                })),
            ),
            ("flops", Json::UInt(t.flops)),
            (
                "total_channel_bytes",
                Json::arr((0..t.channels).map(|k| Json::UInt(t.total.channel_bytes[k]))),
            ),
        ])
    };
    for (phase, table) in nest_tables(p) {
        if let Some(t) = table {
            let key = phase.map_or("nest_table".to_string(), |ph| format!("nest_table_{ph}"));
            pairs.push((key, table_json(&t)));
        }
    }
    Json::Obj(pairs)
}

/// The per-nest tables a profile carries, each with the phase it
/// measured: `before` and `after` for the optimize kinds, one unnamed
/// table for the others.  A table is `None` when its phase ran no
/// interpreter.
pub fn nest_tables(p: &mbb_obs::Profile) -> Vec<(Option<&'static str>, Option<NestTable>)> {
    if p.find("before").is_some() {
        ["before", "after"]
            .into_iter()
            .map(|ph| (Some(ph), nest_table_under(p, Some(ph))))
            .collect()
    } else {
        vec![(None, nest_table(p))]
    }
}

/// Parses a machine name: `origin` (default), `exemplar`, or
/// `origin/N` for the cache-scaled variant.
pub fn machine_by_name(name: &str) -> Result<MachineModel, ServeError> {
    if let Some(rest) = name.strip_prefix("origin/") {
        let bad = |why: String| ServeError::new(ErrorKind::BadRequest, why);
        let n: u64 = rest.parse().map_err(|_| bad(format!("bad scale `{rest}`")))?;
        return MachineModel::origin2000().try_scaled(n).map_err(bad);
    }
    match name {
        "origin" | "origin2000" => Ok(MachineModel::origin2000()),
        "exemplar" | "pa8000" => Ok(MachineModel::exemplar()),
        other => Err(ServeError::new(
            ErrorKind::BadRequest,
            format!("unknown machine `{other}` (try origin, exemplar, origin/64)"),
        )),
    }
}

/// Parses and validates source text, classifying syntax errors as
/// [`ErrorKind::Parse`] and structural defects as [`ErrorKind::Validate`].
pub fn load(src: &str) -> Result<Program, ServeError> {
    let prog = parse::parse_unvalidated(src)
        .map_err(|e| ServeError::new(ErrorKind::Parse, e.to_string()))?;
    mbb_ir::validate::validate(&prog)
        .map_err(|e| ServeError::new(ErrorKind::Validate, format!("validation failed: {e}")))?;
    Ok(prog)
}

/// Classifies an interpreter-level failure.  A failure observed after the
/// installed budget has been spent is a budget stop — even when the error
/// reaches us stringly-typed (e.g. through the equivalence verifier's
/// diff message) — and maps to [`ErrorKind::DeadlineExceeded`];
/// everything else is a [`ErrorKind::Run`] failure.
fn run_error(e: impl ToString) -> ServeError {
    let kind =
        if mbb_ir::budget::exhausted() { ErrorKind::DeadlineExceeded } else { ErrorKind::Run };
    ServeError::new(kind, e.to_string())
}

/// A pure deadline check between pipeline stages, so an `optimize` whose
/// wall allowance expires inside a (non-interpreting) transformation stops
/// at the next stage boundary rather than running the next simulation.
fn check_deadline() -> Result<(), ServeError> {
    mbb_ir::budget::charge(0).map_err(run_error)
}

/// Measures `p`'s balance and prices its predicted time from that one
/// simulation.
fn measured(p: &Program, opts: &Options) -> Result<(Prediction, ProgramBalance), ServeError> {
    let b = measure_program_balance(p, &opts.machine).map_err(run_error)?;
    Ok((predict(&opts.machine, &b.report, b.flops), b))
}

/// Runs the analysis a request kind names: the one place a kind picks
/// its analysis, for `mbbc` and `mbbc serve` alike.  The two optimize
/// kinds carry the optimised source as `data.optimized_program`.  A kind
/// that analyses no program is a bad request.
pub fn run(
    kind: Kind,
    p: &Program,
    opts: &Options,
    sp: &SearchParams,
) -> Result<Analysis, ServeError> {
    match kind {
        Kind::Report => report(p, opts),
        Kind::Advise => advise(p, opts),
        Kind::TraceStats => trace_stats(p, opts),
        Kind::Optimize => optimized(p, opts),
        Kind::OptimizeSearch => searched(p, opts, sp),
        other => {
            let why = format!("`{}` analyses no program", other.as_str());
            Err(ServeError::new(ErrorKind::BadRequest, why))
        }
    }
}

/// An optimize analysis with its optimised source beside it.
fn with_source(a: Analysis) -> (Analysis, String) {
    let source = a.data.get("optimized_program").and_then(Json::as_str).map(String::from);
    (a, source.unwrap_or_default())
}

/// The `report` analysis: §2 program balance, ratios, utilisation bound
/// and predicted time on the chosen machine.
pub fn report(p: &Program, opts: &Options) -> Result<Analysis, ServeError> {
    profiled(opts.profile, || report_inner(p, opts), |a, pr| a.profile = Some(pr))
}

fn report_inner(p: &Program, opts: &Options) -> Result<Analysis, ServeError> {
    let _budget = opts.budget.install();
    let _engine = mbb_ir::runs::install(opts.engine);
    // The profile's "interp" span inside "measure" is the one `nest_table`
    // extracts: its totals equal the printed report exactly.
    let (t, b) = {
        let _s = mbb_obs::span!("measure");
        measured(p, opts)?
    };
    let r = ratios(&b, &opts.machine);
    let supply = opts.machine.balance();
    let names = channel_names(supply.len());

    let mut out = String::new();
    let _ = writeln!(out, "program {} on {}", p.name, opts.machine.name);
    let _ = writeln!(out, "  flops: {}", b.flops);
    let _ = writeln!(
        out,
        "  {:<8} {:>12} {:>12} {:>8}",
        "channel", "demand B/f", "supply B/f", "ratio"
    );
    for (k, name) in names.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<8} {:>12.2} {:>12.2} {:>7.1}×",
            name, b.bytes_per_flop[k], supply[k], r.ratios[k]
        );
    }
    let _ = writeln!(out, "  CPU utilisation bound: {:.0}%", r.cpu_utilization_bound * 100.0);
    let bottleneck = match t.bottleneck {
        Bottleneck::Compute => "compute".to_string(),
        Bottleneck::Channel(k) => names[k].clone(),
    };
    let _ = writeln!(out, "  predicted time: {:.4} s (bottleneck: {bottleneck})", t.time_s);

    let channels = Json::arr(names.iter().enumerate().map(|(k, name)| {
        Json::obj([
            ("name", Json::str(name.clone())),
            ("demand_bytes_per_flop", Json::num(b.bytes_per_flop[k])),
            ("supply_bytes_per_flop", Json::num(supply[k])),
            ("ratio", Json::num(r.ratios[k])),
        ])
    }));
    let data = Json::obj([
        ("program", Json::str(p.name.clone())),
        ("machine", Json::str(opts.machine.name.clone())),
        ("flops", Json::UInt(b.flops)),
        ("channels", channels),
        ("cpu_utilization_bound", Json::num(r.cpu_utilization_bound)),
        ("predicted_time_s", Json::num(t.time_s)),
        ("bottleneck", Json::str(bottleneck)),
    ]);
    Ok(Analysis::new(out, data))
}

/// The `advise` analysis: the §4 bandwidth-tuning report.
pub fn advise(p: &Program, opts: &Options) -> Result<Analysis, ServeError> {
    profiled(opts.profile, || advise_inner(p, opts), |a, pr| a.profile = Some(pr))
}

fn advise_inner(p: &Program, opts: &Options) -> Result<Analysis, ServeError> {
    let _budget = opts.budget.install();
    let _engine = mbb_ir::runs::install(opts.engine);
    let a = core_advise(p, &opts.machine).map_err(run_error)?;
    let findings = Json::arr(a.arrays.iter().map(|f| match f {
        ArrayFinding::Contractible { array, from_bytes, to_bytes } => Json::obj([
            ("kind", Json::str("contractible")),
            ("array", Json::str(array.clone())),
            ("from_bytes", Json::UInt(*from_bytes as u64)),
            ("to_bytes", Json::UInt(*to_bytes as u64)),
        ]),
        ArrayFinding::ContractionBlocked { array, blocker } => Json::obj([
            ("kind", Json::str("contraction-blocked")),
            ("array", Json::str(array.clone())),
            ("blocker", Json::str(format!("{blocker:?}"))),
        ]),
        ArrayFinding::StoresEliminable { array } => Json::obj([
            ("kind", Json::str("stores-eliminable")),
            ("array", Json::str(array.clone())),
        ]),
        ArrayFinding::StoresBlocked { array, blocker } => Json::obj([
            ("kind", Json::str("stores-blocked")),
            ("array", Json::str(array.clone())),
            ("blocker", Json::str(format!("{blocker:?}"))),
        ]),
    }));
    let regroup = Json::arr(
        a.regroup_groups.iter().map(|g| Json::arr(g.iter().map(|s| Json::str(s.clone())))),
    );
    let interchanges = Json::arr(a.interchanges.iter().map(|(nest, perm, before, after)| {
        Json::obj([
            ("nest", Json::str(nest.clone())),
            ("permutation", Json::arr(perm.iter().map(|&k| Json::UInt(k as u64)))),
            ("memory_balance_before", Json::num(*before)),
            ("memory_balance_after", Json::num(*after)),
        ])
    }));
    let data = Json::obj([
        ("program", Json::str(a.program.clone())),
        ("machine", Json::str(a.machine.clone())),
        ("bottleneck", Json::str(a.bottleneck.clone())),
        ("max_ratio", Json::num(a.max_ratio)),
        ("cpu_utilization_bound", Json::num(a.cpu_utilization_bound)),
        (
            "fusion_array_loads",
            Json::obj([
                ("before", Json::UInt(a.fusion_arrays.0)),
                ("after", Json::UInt(a.fusion_arrays.1)),
            ]),
        ),
        ("findings", findings),
        ("regroup_groups", regroup),
        ("interchanges", interchanges),
    ]);
    Ok(Analysis::new(a.to_string(), data))
}

/// What the shared optimize path measured and produced.
struct Verified<T> {
    /// The front-end's own report of its transformation.
    report: T,
    /// The transformed (and, when asked, regrouped) program.
    program: Program,
    regrouped: Vec<RegroupAction>,
    before: (Prediction, ProgramBalance),
    after: (Prediction, ProgramBalance),
}

/// The one path every optimize front-end shares: install the budget and
/// engine, measure the input, transform it, regroup when asked, check the
/// deadline, verify equivalence and measure the result.  `transform` is
/// the front-end's choice of program, returned with its own report.
fn verified<T>(
    p: &Program,
    opts: &Options,
    transform: impl FnOnce() -> Result<(Program, T), ServeError>,
) -> Result<Verified<T>, ServeError> {
    let _budget = opts.budget.install();
    let _engine = mbb_ir::runs::install(opts.engine);
    // Phase spans: `nest_table_under(profile, "before"/"after")` pulls the
    // per-nest tables out of these two measurement phases; the transform
    // opens its own stage spans inside.
    let before = {
        let _s = mbb_obs::span!("before");
        measured(p, opts)?
    };
    check_deadline()?;
    let (mut program, report) = transform()?;
    let mut regrouped = Vec::new();
    if opts.regroup {
        (program, regrouped) = regroup_all(&program);
    }
    check_deadline()?;
    verify_equivalent(p, &program, 1e-9)
        .map_err(|d| run_error(format!("internal error: transformation changed behaviour: {d}")))?;
    let after = {
        let _s = mbb_obs::span!("after");
        measured(&program, opts)?
    };
    Ok(Verified { report, program, regrouped, before, after })
}

/// The predicted speedup from `before_s` to `after_s` seconds.  A program
/// that does no work (both times zero) runs no faster and no slower.
fn speedup(before_s: f64, after_s: f64) -> f64 {
    if before_s == 0.0 && after_s == 0.0 {
        1.0
    } else {
        before_s / after_s
    }
}

/// The `regrouped:` report lines every optimize front-end prints.
fn regrouped_text(out: &mut String, actions: &[RegroupAction]) {
    for a in actions {
        let _ = writeln!(out, "  regrouped: {{{}}} -> `{}`", a.members.join(", "), a.grouped);
    }
}

fn regrouped_json(actions: &[RegroupAction]) -> Json {
    Json::arr(actions.iter().map(|a| {
        Json::obj([
            ("members", Json::arr(a.members.iter().map(|m| Json::str(m.clone())))),
            ("grouped", Json::str(a.grouped.clone())),
        ])
    }))
}

/// Refuses, as a bad request, an exhaustive fusion over more than
/// [`EXHAUSTIVE_MAX_NESTS`] nests, counted as fusion will see them (after
/// normalisation when it is on), so the exponential walk never starts.
fn exhaustive_fits(p: &Program, pipeline: &OptimizeOptions) -> Result<(), ServeError> {
    if pipeline.fusion != FusionStrategy::Exhaustive {
        return Ok(());
    }
    let (nests, when) = if pipeline.normalize {
        (normalize(p).nests.len(), " after normalisation")
    } else {
        (p.nests.len(), "")
    };
    if nests <= EXHAUSTIVE_MAX_NESTS {
        return Ok(());
    }
    let why = format!(
        "exhaustive fusion takes at most {EXHAUSTIVE_MAX_NESTS} nests; \
         program {} has {nests}{when}",
        p.name
    );
    Err(ServeError::new(ErrorKind::BadRequest, why))
}

/// The `optimize` analysis; returns the report and the optimised source
/// (itself parseable), which the data also carries.
pub fn optimize(p: &Program, opts: &Options) -> Result<(Analysis, String), ServeError> {
    optimized(p, opts).map(with_source)
}

fn optimized(p: &Program, opts: &Options) -> Result<Analysis, ServeError> {
    exhaustive_fits(p, &opts.pipeline)?;
    profiled(opts.profile, || optimize_inner(p, opts), |a, pr| a.profile = Some(pr))
}

fn optimize_inner(p: &Program, opts: &Options) -> Result<Analysis, ServeError> {
    let v = verified(p, opts, || {
        let _s = mbb_obs::span!("pipeline");
        let outcome = run_pipeline(p, opts.pipeline);
        Ok((outcome.program.clone(), outcome))
    })?;
    let Verified { report: outcome, program, regrouped, before: (before_t, before_b), after } = v;
    let (after_t, after_b) = after;

    let mut out = String::new();
    let _ = writeln!(out, "program {} on {}", p.name, opts.machine.name);
    if let Some(part) = &outcome.partitioning {
        let _ = writeln!(
            out,
            "  fusion: {} nests -> {} partitions (array loads {} -> {})",
            p.nests.len(),
            part.groups.len(),
            outcome.arrays_cost_before,
            outcome.arrays_cost_after
        );
    }
    for a in &outcome.shrink_actions {
        let _ = writeln!(out, "  storage: {a:?}");
    }
    for s in &outcome.store_eliminations {
        let _ = writeln!(
            out,
            "  store elimination: `{}` ({} store(s) removed)",
            s.array, s.stores_removed
        );
    }
    regrouped_text(&mut out, &regrouped);
    let _ = writeln!(
        out,
        "  storage bytes:    {} -> {}",
        outcome.storage_before, outcome.storage_after
    );
    let _ = writeln!(
        out,
        "  memory traffic:   {} -> {} bytes",
        before_b.report.mem_bytes(),
        after_b.report.mem_bytes()
    );
    let _ = writeln!(
        out,
        "  memory balance:   {:.2} -> {:.2} bytes/flop",
        before_b.memory(),
        after_b.memory()
    );
    let _ = writeln!(
        out,
        "  predicted time:   {:.4} s -> {:.4} s ({:.2}× speedup)",
        before_t.time_s,
        after_t.time_s,
        speedup(before_t.time_s, after_t.time_s)
    );
    let _ = writeln!(out, "  equivalence:      verified (interpreted both versions)");

    let fusion = match &outcome.partitioning {
        Some(part) => Json::obj([
            ("nests_before", Json::UInt(p.nests.len() as u64)),
            ("partitions", Json::UInt(part.groups.len() as u64)),
            ("array_loads_before", Json::UInt(outcome.arrays_cost_before)),
            ("array_loads_after", Json::UInt(outcome.arrays_cost_after)),
        ]),
        None => Json::Null,
    };
    let data = Json::obj([
        ("program", Json::str(p.name.clone())),
        ("machine", Json::str(opts.machine.name.clone())),
        ("fusion", fusion),
        (
            "storage_actions",
            Json::arr(outcome.shrink_actions.iter().map(|a| Json::str(format!("{a:?}")))),
        ),
        (
            "store_eliminations",
            Json::arr(outcome.store_eliminations.iter().map(|s| {
                Json::obj([
                    ("array", Json::str(s.array.clone())),
                    ("stores_removed", Json::UInt(s.stores_removed as u64)),
                ])
            })),
        ),
        ("regrouped", regrouped_json(&regrouped)),
        (
            "storage_bytes",
            Json::obj([
                ("before", Json::UInt(outcome.storage_before as u64)),
                ("after", Json::UInt(outcome.storage_after as u64)),
            ]),
        ),
        (
            "memory_traffic_bytes",
            Json::obj([
                ("before", Json::UInt(before_b.report.mem_bytes())),
                ("after", Json::UInt(after_b.report.mem_bytes())),
            ]),
        ),
        (
            "memory_balance_bytes_per_flop",
            Json::obj([
                ("before", Json::num(before_b.memory())),
                ("after", Json::num(after_b.memory())),
            ]),
        ),
        (
            "predicted_time_s",
            Json::obj([
                ("before", Json::num(before_t.time_s)),
                ("after", Json::num(after_t.time_s)),
            ]),
        ),
        ("speedup", Json::num(speedup(before_t.time_s, after_t.time_s))),
        ("optimized_program", Json::str(pretty::program(&program))),
    ]);
    Ok(Analysis::new(out, data))
}

/// How an `optimize --search` run explores (see [`mbb_search::engine`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchParams {
    /// Beam width.
    pub beam: usize,
    /// Expansion steps.
    pub steps: usize,
    /// Tie-breaking seed.
    pub seed: u64,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            beam: mbb_search::engine::DEFAULT_BEAM,
            steps: mbb_search::engine::DEFAULT_STEPS,
            seed: mbb_search::engine::DEFAULT_SEED,
        }
    }
}

/// The `optimize --search` analysis: beam search over transformation
/// sequences, scored by the balance model, seeded with the fixed pipeline
/// so the winner is never worse than [`optimize`]'s result on the search
/// objective.  Deterministic for fixed `(program, machine, beam, steps,
/// seed)`: cache state and concurrency never change the text or data (the
/// CLI appends its own per-execution `search cache:` line, exactly like
/// the `simulation:` timing line).
pub fn optimize_search(
    p: &Program,
    opts: &Options,
    sp: &SearchParams,
) -> Result<(Analysis, String), ServeError> {
    searched(p, opts, sp).map(with_source)
}

fn searched(p: &Program, opts: &Options, sp: &SearchParams) -> Result<Analysis, ServeError> {
    exhaustive_fits(p, &opts.pipeline)?;
    profiled(opts.profile, || optimize_search_inner(p, opts, sp), |a, pr| a.profile = Some(pr))
}

fn optimize_search_inner(
    p: &Program,
    opts: &Options,
    sp: &SearchParams,
) -> Result<Analysis, ServeError> {
    // The search scores through the runs engine internally (its `search`
    // and `score:<spec>` spans land in the profile); the surrounding
    // measurements and the verification honour `opts.engine`.
    let v = verified(p, opts, || {
        let sopts = mbb_search::SearchOptions {
            machine: opts.machine.clone(),
            beam: sp.beam,
            steps: sp.steps,
            seed: sp.seed,
            pipeline: opts.pipeline,
            scorer_mutation: None,
        };
        let out = mbb_search::search(p, &sopts).map_err(run_error)?;
        Ok((out.program.clone(), out))
    })?;
    let Verified { report: out, program, regrouped, before: (before_t, before_b), after } = v;
    let (after_t, after_b) = after;

    let t = &out.trace;
    let mut text = String::new();
    let _ = writeln!(text, "program {} on {}", p.name, opts.machine.name);
    let _ = writeln!(
        text,
        "  search: beam {}, steps {} (ran {}), seed {:#010x}",
        t.beam, t.steps, t.steps_run, t.seed
    );
    let _ = writeln!(text, "  candidates: {} scored, {} pruned", t.visited, t.pruned);
    let _ = writeln!(text, "  fixed pipeline:   {}", t.fixed_spec);
    let _ = writeln!(text, "  winning sequence: {}", t.best_spec);
    let _ = writeln!(
        text,
        "  memory balance:   {:.2} -> {:.2} (fixed) vs {:.2} (search) bytes/flop",
        before_b.memory(),
        out.fixed_score.memory(),
        out.best_score.memory()
    );
    let _ = writeln!(
        text,
        "  memory traffic:   {} -> {} bytes",
        before_b.report.mem_bytes(),
        after_b.report.mem_bytes()
    );
    regrouped_text(&mut text, &regrouped);
    let _ = writeln!(
        text,
        "  predicted time:   {:.4} s -> {:.4} s ({:.2}× speedup)",
        before_t.time_s,
        after_t.time_s,
        speedup(before_t.time_s, after_t.time_s)
    );
    let _ = writeln!(
        text,
        "  search result:    {}",
        if t.improved { "improved on the fixed pipeline" } else { "matched the fixed pipeline" }
    );
    let _ = writeln!(text, "  equivalence:      verified (interpreted both versions)");

    let data = Json::obj([
        ("program", Json::str(p.name.clone())),
        ("machine", Json::str(opts.machine.name.clone())),
        (
            "search",
            Json::obj([
                ("beam", Json::UInt(t.beam as u64)),
                ("steps", Json::UInt(t.steps as u64)),
                ("steps_run", Json::UInt(t.steps_run as u64)),
                ("seed", Json::UInt(t.seed)),
                ("visited", Json::UInt(t.visited)),
                ("pruned", Json::UInt(t.pruned)),
                ("best_spec", Json::str(t.best_spec.clone())),
                ("fixed_spec", Json::str(t.fixed_spec.clone())),
                ("improved", Json::Bool(t.improved)),
            ]),
        ),
        (
            "memory_balance_bytes_per_flop",
            Json::obj([
                ("before", Json::num(before_b.memory())),
                ("fixed", Json::num(out.fixed_score.memory())),
                ("best", Json::num(out.best_score.memory())),
            ]),
        ),
        (
            "memory_traffic_bytes",
            Json::obj([
                ("before", Json::UInt(before_b.report.mem_bytes())),
                ("after", Json::UInt(after_b.report.mem_bytes())),
            ]),
        ),
        ("regrouped", regrouped_json(&regrouped)),
        (
            "predicted_time_s",
            Json::obj([
                ("before", Json::num(before_t.time_s)),
                ("after", Json::num(after_t.time_s)),
            ]),
        ),
        ("speedup", Json::num(speedup(before_t.time_s, after_t.time_s))),
        ("optimized_program", Json::str(pretty::program(&program))),
    ]);
    Ok(Analysis::new(text, data))
}

/// The `optimize --pipeline SPEC` analysis: replays an explicit
/// transformation sequence (e.g. the `winning sequence:` a search
/// printed), verifies equivalence, and reports the balance change.
/// Returns the report and the optimised source.
pub fn optimize_replay(
    p: &Program,
    opts: &Options,
    spec: &Candidate,
) -> Result<(String, String), ServeError> {
    let v = verified(p, opts, || {
        let q = spec
            .apply(p)
            .map_err(|e| ServeError::new(ErrorKind::Run, format!("pipeline spec failed: {e}")))?;
        Ok((q, ()))
    })?;
    let (before, after) = (&v.before.1, &v.after.1);
    let mut out = String::new();
    let _ = writeln!(out, "program {} on {}", p.name, opts.machine.name);
    let _ = writeln!(out, "  pipeline:         {}", spec.spec());
    regrouped_text(&mut out, &v.regrouped);
    let _ = writeln!(
        out,
        "  memory traffic:   {} -> {} bytes",
        before.report.mem_bytes(),
        after.report.mem_bytes()
    );
    let _ = writeln!(
        out,
        "  memory balance:   {:.2} -> {:.2} bytes/flop",
        before.memory(),
        after.memory()
    );
    let _ = writeln!(out, "  equivalence:      verified (interpreted both versions)");
    Ok((out, pretty::program(&v.program)))
}

/// The `trace-stats` analysis: execution counters plus the traffic the
/// program's access trace induces on the machine's memory hierarchy.
pub fn trace_stats(p: &Program, opts: &Options) -> Result<Analysis, ServeError> {
    profiled(opts.profile, || trace_stats_inner(p, opts), |a, pr| a.profile = Some(pr))
}

fn trace_stats_inner(p: &Program, opts: &Options) -> Result<Analysis, ServeError> {
    let _budget = opts.budget.install();
    let _engine = mbb_ir::runs::install(opts.engine);
    // The counters and traffic are a value run's; `trace_only` skips the
    // values, which nothing here reads.
    let (r, traffic) = simulate(&opts.machine, |h| {
        let _s = mbb_obs::span!("interp");
        Interpreter::trace_only(p, LayoutOpts::default()).run(h)
    })
    .map_err(run_error)?;
    let names = channel_names(traffic.channel_bytes.len());

    let mut out = String::new();
    let _ = writeln!(out, "trace of {} on {}", p.name, opts.machine.name);
    let _ = writeln!(
        out,
        "  accesses: {} ({} loads, {} stores) over {} iterations, {} flops",
        r.stats.loads + r.stats.stores,
        r.stats.loads,
        r.stats.stores,
        r.stats.iterations,
        r.stats.flops
    );
    for (k, name) in names.iter().enumerate() {
        let _ = writeln!(out, "  {:<8} {:>14} bytes", name, traffic.channel_bytes[k]);
    }
    let _ = writeln!(
        out,
        "  memory: {} read + {} written bytes",
        traffic.mem_read_bytes, traffic.mem_write_bytes
    );
    let _ = writeln!(out, "  tlb misses: {}", traffic.tlb_misses);

    let data = Json::obj([
        ("program", Json::str(p.name.clone())),
        ("machine", Json::str(opts.machine.name.clone())),
        ("loads", Json::UInt(r.stats.loads)),
        ("stores", Json::UInt(r.stats.stores)),
        ("iterations", Json::UInt(r.stats.iterations)),
        ("flops", Json::UInt(r.stats.flops)),
        (
            "channels",
            Json::arr(names.iter().enumerate().map(|(k, name)| {
                Json::obj([
                    ("name", Json::str(name.clone())),
                    ("bytes", Json::UInt(traffic.channel_bytes[k])),
                ])
            })),
        ),
        ("mem_read_bytes", Json::UInt(traffic.mem_read_bytes)),
        ("mem_write_bytes", Json::UInt(traffic.mem_write_bytes)),
        ("tlb_misses", Json::UInt(traffic.tlb_misses)),
        ("level_misses", Json::arr(traffic.misses().into_iter().map(Json::UInt))),
    ]);
    Ok(Analysis::new(out, data))
}

/// The `machines` catalogue: every model name [`machine_by_name`] accepts.
pub fn machines() -> Analysis {
    let models = [("origin", MachineModel::origin2000()), ("exemplar", MachineModel::exemplar())];
    let mut out = String::new();
    let _ = writeln!(out, "machines:");
    for (id, m) in &models {
        let balance: Vec<String> = m.balance().iter().map(|b| format!("{b:.2}")).collect();
        let _ = writeln!(
            out,
            "  {:<9} {} — peak {} Mflop/s, {} cache level(s), balance {} B/flop",
            id,
            m.name,
            m.peak_mflops,
            m.caches.len(),
            balance.join("/")
        );
    }
    let _ = writeln!(out, "  origin/N  Origin2000 with caches scaled down by N (§2.3 study)");

    let data = Json::obj([
        (
            "machines",
            Json::arr(models.iter().map(|(id, m)| {
                Json::obj([
                    ("id", Json::str(*id)),
                    ("name", Json::str(m.name.clone())),
                    ("peak_mflops", Json::num(m.peak_mflops)),
                    ("bandwidth_mbs", Json::arr(m.bandwidth_mbs.iter().map(|&b| Json::num(b)))),
                    (
                        "balance_bytes_per_flop",
                        Json::arr(m.balance().iter().map(|&b| Json::num(b))),
                    ),
                    (
                        "caches",
                        Json::arr(m.caches.iter().map(|c| {
                            Json::obj([
                                ("name", Json::str(c.name.clone())),
                                ("size", Json::UInt(c.size)),
                                ("line", Json::UInt(c.line)),
                                ("assoc", Json::UInt(c.assoc as u64)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
        ("scaled", Json::str("origin/N")),
    ]);
    Analysis::new(out, data)
}

/// The canonical cache-key form of a program: the shared canonicalizer's
/// stable rendering of the parsed AST ([`mbb_core::canon::program`]), so
/// formatting differences (whitespace, comments) in request source
/// collapse onto one cache entry — and so this layer's keys agree
/// byte-for-byte with the search score cache and the CLI.
pub fn canonical_source(p: &Program) -> String {
    mbb_core::canon::program(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str =
        "array a[256]\nscalar s = 0  // printed\nfor i = 0, 255\n  s = (s + a[i])\nend for\n";

    #[test]
    fn load_classifies_parse_and_validate_errors() {
        let p = load("for i = 0, 3\n  bogus[i] = 1\nend for\n").unwrap_err();
        assert_eq!(p.kind, ErrorKind::Parse);
        assert!(p.message.contains("line 2"), "{p}");
        // An inner loop rebinding `i` parses fine but fails validation.
        let v =
            load("array a[16]\nfor i = 0, 3\n  for i = 0, 3\n    a[i] = 1\n  end for\nend for\n")
                .unwrap_err();
        assert_eq!(v.kind, ErrorKind::Validate, "{v}");
    }

    #[test]
    fn run_analyses_exactly_the_program_kinds() {
        let p = load(SRC).unwrap();
        let (opts, sp) = (Options::default(), SearchParams::default());
        for kind in Kind::ALL {
            match run(kind, &p, &opts, &sp) {
                Ok(a) => {
                    assert!(kind.takes_program(), "{}", kind.as_str());
                    let optimizes = matches!(kind, Kind::Optimize | Kind::OptimizeSearch);
                    let source = a.data.get("optimized_program").and_then(Json::as_str);
                    assert_eq!(source.is_some(), optimizes, "{}", kind.as_str());
                    if let Some(source) = source {
                        assert!(load(source).is_ok(), "{}: {source}", kind.as_str());
                    }
                    assert!(a.text.contains(&p.name), "{}: {}", kind.as_str(), a.text);
                }
                Err(e) => {
                    assert!(!kind.takes_program(), "{}: {e}", kind.as_str());
                    assert_eq!(e.kind, ErrorKind::BadRequest, "{}", kind.as_str());
                }
            }
        }
    }

    #[test]
    fn a_program_without_work_reports_unit_speedup() {
        let p = load("program idle\narray a[8]\nscalar s = 1  // printed\n").unwrap();
        let (opts, sp) = (Options::default(), SearchParams::default());
        let (fixed, _) = optimize(&p, &opts).unwrap();
        let (searched, _) = optimize_search(&p, &opts, &sp).unwrap();
        for a in [fixed, searched] {
            assert!(a.text.contains("(1.00× speedup)"), "{}", a.text);
            assert_eq!(a.data.get("speedup").and_then(Json::as_f64), Some(1.0));
        }
    }

    /// `count` nests, each summing its own array into `s`; with `pairs`
    /// each nest also doubles its array into `bK`, a statement that
    /// normalisation distributes into a nest of its own.
    fn independent_nests(count: usize, pairs: bool) -> Program {
        let mut src = String::from("program independent\nscalar s = 0  // printed\n");
        for k in 0..count {
            src += &format!("array a{k}[64]\narray b{k}[64]  // live-out\n");
        }
        for k in 0..count {
            src += &format!("for i{k} = 0, 63\n  s = (s + a{k}[i{k}])\n");
            if pairs {
                src += &format!("  b{k}[i{k}] = (a{k}[i{k}] * 2)\n");
            }
            src += "end for\n";
        }
        load(&src).unwrap()
    }

    #[test]
    fn exhaustive_fusion_beyond_its_bound_is_a_bad_request() {
        let exhaustive = |normalize| Options {
            pipeline: OptimizeOptions {
                fusion: FusionStrategy::Exhaustive,
                normalize,
                ..OptimizeOptions::default()
            },
            ..Options::default()
        };
        let sp = SearchParams::default();
        // 13 nests as written; 7 nests that normalisation distributes
        // into 14.
        let cases = [
            (independent_nests(EXHAUSTIVE_MAX_NESTS + 1, false), exhaustive(false), "has 13"),
            (independent_nests(7, true), exhaustive(true), "has 14 after normalisation"),
        ];
        for (p, opts, count) in &cases {
            for kind in [Kind::Optimize, Kind::OptimizeSearch] {
                let e = run(kind, p, opts, &sp).unwrap_err();
                assert_eq!(e.kind, ErrorKind::BadRequest, "{}: {e}", kind.as_str());
                assert!(e.message.contains("at most 12 nests"), "{e}");
                assert!(e.message.contains(count), "{e}");
            }
        }
        // Without normalisation the 7 nests are within the bound, and the
        // other strategies have none.
        let seven = &cases[1].0;
        assert!(optimize(seven, &exhaustive(false)).is_ok());
        assert!(optimize(&cases[0].0, &Options::default()).is_ok());
    }

    #[test]
    fn a_deadline_stops_the_exhaustive_walk() {
        // Bell(12) partitions take seconds to walk; a 50 ms deadline must
        // stop the walk, not wait for it.
        let opts = Options {
            pipeline: OptimizeOptions {
                fusion: FusionStrategy::Exhaustive,
                ..OptimizeOptions::default()
            },
            budget: Budget { max_steps: None, wall: Some(std::time::Duration::from_millis(50)) },
            ..Options::default()
        };
        let p = independent_nests(EXHAUSTIVE_MAX_NESTS, false);
        let start = std::time::Instant::now();
        let e = optimize(&p, &opts).unwrap_err();
        let took = start.elapsed();
        assert_eq!(e.kind, ErrorKind::DeadlineExceeded, "{e}");
        assert!(took < std::time::Duration::from_secs(1), "the request took {took:?}");
    }

    #[test]
    fn report_text_and_data_agree() {
        let p = load(SRC).unwrap();
        let a = report(&p, &Options::default()).unwrap();
        assert!(a.text.contains("CPU utilisation bound"), "{}", a.text);
        assert!(!a.text.contains("simulation:"), "{}", a.text);
        let flops = a.data.get("flops").and_then(|j| j.as_f64()).unwrap();
        assert!(a.text.contains(&format!("flops: {flops}")), "{}", a.text);
        assert_eq!(a.data.get("machine").and_then(|j| j.as_str()), Some("Origin2000 (R10K)"));
    }

    #[test]
    fn profile_is_attached_only_on_request_and_sums_to_the_report() {
        let p = load(SRC).unwrap();
        let plain = report(&p, &Options::default()).unwrap();
        assert!(plain.profile.is_none(), "unprofiled analyses must stay lean");

        let opts = Options { profile: true, ..Options::default() };
        let a = report(&p, &opts).unwrap();
        let prof = a.profile.as_ref().expect("profile requested");
        assert!(prof.spans.iter().any(|s| s.name == "measure"));
        assert!(prof.spans.iter().any(|s| s.name.starts_with("nest:")));

        // The per-nest table's totals are the whole-program report, exactly.
        let table = mbb_core::profile::nest_table(prof).expect("nest table");
        let flops = a.data.get("flops").and_then(|j| j.as_f64()).unwrap();
        assert_eq!(table.flops as f64, flops);
        let doc = profile_json(prof);
        assert!(doc.get("nest_table").is_some());
        assert_eq!(doc.get("wall_ns").and_then(|j| j.as_f64()), Some(prof.wall_ns as f64));
    }

    #[test]
    fn trace_stats_counts_match_the_interpreter() {
        let p = load(SRC).unwrap();
        let a = trace_stats(&p, &Options::default()).unwrap();
        let r = mbb_ir::interp::run(&p).unwrap();
        assert_eq!(a.data.get("loads").and_then(|j| j.as_f64()), Some(r.stats.loads as f64));
        assert!(a.text.contains("tlb misses"), "{}", a.text);
    }

    #[test]
    fn machines_lists_both_models() {
        let a = machines();
        assert!(a.text.contains("origin"), "{}", a.text);
        assert!(a.text.contains("exemplar"), "{}", a.text);
        assert_eq!(
            a.data.get("machines").map(|m| match m {
                Json::Arr(v) => v.len(),
                _ => 0,
            }),
            Some(2)
        );
    }

    #[test]
    fn unknown_machine_is_a_bad_request() {
        for name in ["cray", "origin/x", "origin/-1", "origin/0", "origin/100000000"] {
            assert_eq!(machine_by_name(name).unwrap_err().kind, ErrorKind::BadRequest, "{name}");
        }
        assert!(machine_by_name("origin/64").is_ok());
        assert!(machine_by_name("origin/1").is_ok());
    }

    /// ~80k innermost iterations: far beyond a 4096-step quota but quick
    /// to run unbudgeted.
    const BIG: &str = "program big\narray a[8]\nscalar s = 0  // printed\nfor i = 0, 9999\n  for j = 0, 7\n    s = (s + a[j])\n  end for\nend for\n";

    #[test]
    fn analyses_are_engine_invariant() {
        let p = load(SRC).unwrap();
        let per_engine = |e| {
            let opts = Options { engine: e, ..Options::default() };
            let a = report(&p, &opts).unwrap();
            let t = trace_stats(&p, &opts).unwrap();
            (a.text, t.text)
        };
        assert_eq!(per_engine(mbb_ir::Engine::Runs), per_engine(mbb_ir::Engine::Scalar));
    }

    #[test]
    fn step_quota_stops_report_with_deadline_exceeded() {
        let p = load(BIG).unwrap();
        let opts =
            Options { budget: Budget { max_steps: Some(4096), wall: None }, ..Options::default() };
        let e = report(&p, &opts).unwrap_err();
        assert_eq!(e.kind, ErrorKind::DeadlineExceeded, "{e}");
        assert!(e.message.contains("budget"), "{e}");
        // The guard uninstalled: an unbudgeted run on the same thread works.
        assert!(report(&p, &Options::default()).is_ok());
    }

    #[test]
    fn step_quota_stops_optimize_with_deadline_exceeded() {
        let p = load(BIG).unwrap();
        let opts =
            Options { budget: Budget { max_steps: Some(4096), wall: None }, ..Options::default() };
        let e = optimize(&p, &opts).unwrap_err();
        assert_eq!(e.kind, ErrorKind::DeadlineExceeded, "{e}");
    }

    #[test]
    fn expired_wall_deadline_stops_trace_stats() {
        let p = load(BIG).unwrap();
        let opts = Options {
            budget: Budget { max_steps: None, wall: Some(std::time::Duration::ZERO) },
            ..Options::default()
        };
        let e = trace_stats(&p, &opts).unwrap_err();
        assert_eq!(e.kind, ErrorKind::DeadlineExceeded, "{e}");
    }
}
