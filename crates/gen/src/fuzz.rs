//! The differential fuzz driver.
//!
//! One fuzz case ([`check`]) takes the program generated for a
//! [`Params`] through every cross-checkable pipeline in the workspace:
//!
//! 1. `mbb_ir::validate` accepts it (the generator's contract);
//! 2. `parse(pretty(p)) == p` structurally and `pretty` output is a
//!    fixpoint — the round-trip property;
//! 3. the runs engine and the scalar oracle produce identical
//!    observations, execution counters and simulated traffic, and the
//!    trace-only balance runs reproduce the value runs' flops and a
//!    value-executing simulation's traffic;
//! 4. `optimize` preserves observable behaviour (within a floating-point
//!    tolerance for reassociated reductions) under *both* engines;
//! 5. measured memory balance never regresses past a small slop;
//! 6. the `mbb-search` autotuner (small beam, hang-guarded by a wall
//!    budget) returns an observably equivalent program, reports the
//!    balance an independent re-measurement reproduces exactly, and never
//!    lands above the fixed pipeline's balance — the lane that catches
//!    scorer miscompiles such as `swap-balance-channels`.
//!
//! A failing case is shrunk with the proptest shim's integer-shrinking
//! strategies ([`shrink`]): each round proposes smaller parameter tuples
//! (halving toward the domain minimum, one coordinate at a time) and
//! greedily adopts any candidate that still fails, so counterexamples
//! arrive as the smallest program the failure reproduces on, plus the
//! exact `gen replay` command.

use std::fmt;
use std::time::Duration;

use mbb_core::balance::{measure_program_balance, simulate};
use mbb_core::mutate::{self, Mutation};
use mbb_core::pipeline::{optimize, OptimizeOptions};
use mbb_ir::budget::{self, Budget};
use mbb_ir::interp::Interpreter;
use mbb_ir::program::Program;
use mbb_ir::runs::{self, Engine};
use mbb_ir::{parse, pretty, validate};
use mbb_memsim::MachineModel;
use mbb_search::SearchOptions;
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::templates::{self, Params, FAMILY_COUNT, K_RANGE, N_RANGE};

/// Default base seed of the fixed-seed fuzz pass (CI's deterministic lane;
/// the exploration lane derives the seed from the CI run id instead).
pub const DEFAULT_SEED: u64 = 0x6E6D_B611;

/// Tolerance for optimizer equivalence: fusion may reassociate
/// reductions, so bit-exactness is only demanded *between engines*, not
/// across the optimizer.
pub const REL_TOL: f64 = 1e-9;

/// Settings for one fuzz run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Planted optimizer bug (mutation testing); `None` for the real
    /// pipeline.
    pub mutation: Option<Mutation>,
    /// Extent multiplier (1 = quick fuzz sizes).
    pub scale: u32,
    /// Allowed relative growth of optimized memory traffic before the
    /// balance non-regression check fails.
    pub balance_slop: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config { mutation: None, scale: 1, balance_slop: 0.05 }
    }
}

/// Why a fuzz case failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The generator emitted an invalid program (a generator bug).
    Invalid,
    /// `parse(pretty(p))` was not `p`.
    RoundTrip,
    /// The two engines disagreed on the unoptimized program.
    EngineDivergence,
    /// Optimized and original programs observably differ.
    OptimizerDivergence,
    /// The two engines disagreed on the optimized program.
    OptimizedEngineDivergence,
    /// Optimization increased memory traffic beyond the slop.
    BalanceRegression,
    /// The search winner observably differs from the original program.
    SearchDivergence,
    /// The search reported a winning score an independent honest
    /// re-measurement does not reproduce (a scorer miscompile).
    SearchScoreMismatch,
    /// The search winner's honest balance exceeds the fixed pipeline's.
    SearchBalance,
    /// A program failed to execute at all.
    Runtime,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureKind::Invalid => "generator emitted invalid program",
            FailureKind::RoundTrip => "parse/pretty round-trip mismatch",
            FailureKind::EngineDivergence => "runs vs scalar divergence (original)",
            FailureKind::OptimizerDivergence => "optimized program diverges from original",
            FailureKind::OptimizedEngineDivergence => "runs vs scalar divergence (optimized)",
            FailureKind::BalanceRegression => "optimization regressed memory balance",
            FailureKind::SearchDivergence => "search winner diverges from original",
            FailureKind::SearchScoreMismatch => "search score disagrees with re-measurement",
            FailureKind::SearchBalance => "search winner worse than fixed pipeline",
            FailureKind::Runtime => "program failed to execute",
        };
        f.write_str(s)
    }
}

/// One failing fuzz case.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The failing parameters.
    pub params: Params,
    /// Classification.
    pub kind: FailureKind,
    /// Human-readable mismatch description.
    pub detail: String,
}

/// A shrunk counterexample, ready to be reported.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The original (pre-shrink) failure.
    pub found: Failure,
    /// The minimal failure after shrinking.
    pub minimal: Failure,
    /// Pretty-printed text of the minimal program.
    pub program: String,
    /// Number of successful shrink steps taken.
    pub shrink_steps: usize,
    /// The exact command reproducing the minimal failure.
    pub replay: String,
}

fn fail(params: Params, kind: FailureKind, detail: impl Into<String>) -> Failure {
    Failure { params, kind, detail: detail.into() }
}

fn run_under(engine: Engine, prog: &Program) -> Result<mbb_ir::interp::RunResult, String> {
    let _guard = runs::install(engine);
    mbb_ir::run(prog).map_err(|e| format!("{engine}: {e}"))
}

fn traffic_under(
    engine: Engine,
    prog: &Program,
    machine: &MachineModel,
) -> Result<mbb_core::balance::ProgramBalance, String> {
    let _guard = runs::install(engine);
    measure_program_balance(prog, machine).map_err(|e| format!("{engine}: {e}"))
}

/// Channel bytes of a value-executing simulation under the scalar oracle
/// engine: what the trace-only balance runs must reproduce.
fn value_traffic(prog: &Program, machine: &MachineModel) -> Result<Vec<u64>, String> {
    let _guard = runs::install(Engine::Scalar);
    let (_, report) =
        simulate(machine, |h| Interpreter::new(prog).run(h)).map_err(|e| format!("scalar: {e}"))?;
    Ok(report.channel_bytes)
}

/// Runs `prog` under both engines and demands byte-identical observations,
/// counters and simulated traffic.  Value execution is the oracle for the
/// trace-only balance measurement: its flops and channel bytes must match.
fn engine_parity(
    params: Params,
    prog: &Program,
    machine: &MachineModel,
    kind: FailureKind,
) -> Result<mbb_core::balance::ProgramBalance, Failure> {
    let scalar =
        run_under(Engine::Scalar, prog).map_err(|e| fail(params, FailureKind::Runtime, e))?;
    let fast = run_under(Engine::Runs, prog).map_err(|e| fail(params, FailureKind::Runtime, e))?;
    if let Some(d) = scalar.observation.diff(&fast.observation, 0.0) {
        return Err(fail(params, kind, format!("observation: {d}")));
    }
    if scalar.stats != fast.stats {
        return Err(fail(
            params,
            kind,
            format!("counters: scalar {:?} vs runs {:?}", scalar.stats, fast.stats),
        ));
    }
    let t_scalar = traffic_under(Engine::Scalar, prog, machine)
        .map_err(|e| fail(params, FailureKind::Runtime, e))?;
    let t_fast = traffic_under(Engine::Runs, prog, machine)
        .map_err(|e| fail(params, FailureKind::Runtime, e))?;
    if t_scalar.report.channel_bytes != t_fast.report.channel_bytes {
        return Err(fail(
            params,
            kind,
            format!(
                "traffic: scalar {:?} vs runs {:?}",
                t_scalar.report.channel_bytes, t_fast.report.channel_bytes
            ),
        ));
    }
    if t_scalar.flops != scalar.stats.flops || t_fast.flops != scalar.stats.flops {
        return Err(fail(
            params,
            kind,
            format!(
                "flops: value run {} vs trace-only balance scalar {} / runs {}",
                scalar.stats.flops, t_scalar.flops, t_fast.flops
            ),
        ));
    }
    let valued = value_traffic(prog, machine).map_err(|e| fail(params, FailureKind::Runtime, e))?;
    if valued != t_scalar.report.channel_bytes {
        return Err(fail(
            params,
            kind,
            format!(
                "traffic: value run {valued:?} vs trace-only balance {:?}",
                t_scalar.report.channel_bytes
            ),
        ));
    }
    Ok(t_scalar)
}

/// Checks one fuzz case.  Deterministic in `(params, cfg)`.
pub fn check(params: Params, cfg: &Config) -> Result<(), Failure> {
    let prog = templates::generate(params, cfg.scale);
    if let Err(e) = validate(&prog) {
        return Err(fail(params, FailureKind::Invalid, e.to_string()));
    }

    // Round trip: structural equality and textual fixpoint.
    let text = pretty::program(&prog);
    let reparsed = parse(&text)
        .map_err(|e| fail(params, FailureKind::RoundTrip, format!("re-parse failed: {e}")))?;
    if reparsed != prog {
        return Err(fail(
            params,
            FailureKind::RoundTrip,
            "parse(pretty(p)) differs structurally from p",
        ));
    }
    let text2 = pretty::program(&reparsed);
    if text2 != text {
        return Err(fail(params, FailureKind::RoundTrip, "pretty output is not a fixpoint"));
    }

    let machine = MachineModel::origin2000();
    let base = engine_parity(params, &prog, &machine, FailureKind::EngineDivergence)?;

    // Optimize — with the planted bug, if any.
    let mut input = prog.clone();
    if let Some(m) = cfg.mutation.filter(|m| m.applies_before_optimize()) {
        mutate::apply(&mut input, m);
    }
    let mut optimized = optimize(&input, OptimizeOptions::default()).program;
    if let Some(m) = cfg.mutation.filter(|m| !m.applies_before_optimize()) {
        mutate::apply(&mut optimized, m);
    }
    if let Err(e) = validate(&optimized) {
        return Err(fail(params, FailureKind::OptimizerDivergence, format!("invalid output: {e}")));
    }

    // The optimized program must agree with the original under both
    // engines (tolerance covers reassociated reductions)...
    let orig =
        run_under(Engine::Scalar, &prog).map_err(|e| fail(params, FailureKind::Runtime, e))?;
    for engine in [Engine::Scalar, Engine::Runs] {
        let opt = run_under(engine, &optimized)
            .map_err(|e| fail(params, FailureKind::OptimizerDivergence, e))?;
        if let Some(d) = orig.observation.diff(&opt.observation, REL_TOL) {
            return Err(fail(
                params,
                FailureKind::OptimizerDivergence,
                format!("under {engine}: {d}"),
            ));
        }
    }
    // ... and with itself across engines, exactly.
    let tuned =
        engine_parity(params, &optimized, &machine, FailureKind::OptimizedEngineDivergence)?;

    // Balance non-regression: optimization exists to *reduce* memory
    // traffic; any growth beyond slop (conflict noise on tiny footprints)
    // is a pipeline bug.
    let before = base.report.mem_bytes();
    let after = tuned.report.mem_bytes();
    let limit = (before as f64) * (1.0 + cfg.balance_slop) + 4096.0;
    if (after as f64) > limit {
        return Err(fail(
            params,
            FailureKind::BalanceRegression,
            format!("memory traffic {before} B -> {after} B (limit {limit:.0} B)"),
        ));
    }

    // The autotuner, under a small beam and a wall budget that only exists
    // as a hang-guard (budget stops are a skip, not a failure).  A scorer
    // mutation is routed into the search's selection here — the cache
    // itself stays honest — so a planted `swap-balance-channels` must be
    // caught by the honesty and floor checks below.
    let sopts = SearchOptions {
        beam: 2,
        steps: 2,
        scorer_mutation: cfg.mutation.filter(|m| m.distorts_scorer()),
        ..SearchOptions::default()
    };
    let outcome = {
        let _hang_guard = Budget { max_steps: None, wall: Some(Duration::from_secs(30)) }.install();
        match mbb_search::search(&prog, &sopts) {
            Ok(o) => o,
            // The guard fired: too slow to search at this size, not a bug.
            Err(_) if budget::exhausted() => return Ok(()),
            Err(e) => return Err(fail(params, FailureKind::Runtime, e.to_string())),
        }
    };

    // The winner must observably match the original program under both
    // engines...
    for engine in [Engine::Scalar, Engine::Runs] {
        let won = run_under(engine, &outcome.program)
            .map_err(|e| fail(params, FailureKind::SearchDivergence, e))?;
        if let Some(d) = orig.observation.diff(&won.observation, REL_TOL) {
            return Err(fail(
                params,
                FailureKind::SearchDivergence,
                format!("under {engine}: {d}"),
            ));
        }
    }
    // ... its reported balance must survive an independent honest
    // re-measurement bit-for-bit (the scorer-miscompile detector) ...
    let honest = traffic_under(Engine::Runs, &outcome.program, &machine)
        .map_err(|e| fail(params, FailureKind::Runtime, e))?;
    if honest.memory() != outcome.best_view.bytes_per_flop {
        return Err(fail(
            params,
            FailureKind::SearchScoreMismatch,
            format!(
                "search reported {} bytes/flop for its winner; independent re-measurement \
                 says {}",
                outcome.best_view.bytes_per_flop,
                honest.memory()
            ),
        ));
    }
    // ... and it may never land above the fixed pipeline it was seeded with.
    let fixed = outcome.fixed_score.memory();
    if honest.memory() > fixed {
        return Err(fail(
            params,
            FailureKind::SearchBalance,
            format!(
                "search winner at {} bytes/flop is worse than the fixed pipeline's {fixed}",
                honest.memory()
            ),
        ));
    }
    Ok(())
}

fn params_strategy() -> (
    core::ops::Range<u8>,
    core::ops::RangeInclusive<u32>,
    core::ops::RangeInclusive<u32>,
    core::ops::RangeInclusive<u64>,
) {
    (0..FAMILY_COUNT, N_RANGE, K_RANGE, 0..=u64::MAX)
}

/// Shrinks a failing case to a minimal one via the proptest shim's
/// strategies, preserving the failure *kind* so the shrinker cannot walk
/// from, say, an optimizer divergence onto an unrelated round-trip bug.
/// Returns the minimal params and the number of successful shrink steps.
pub fn shrink(failure: &Failure, cfg: &Config) -> (Failure, usize) {
    const BUDGET: usize = 512;
    let strat = params_strategy();
    let mut current = failure.clone();
    let mut steps = 0usize;
    let mut budget = BUDGET;
    'outer: loop {
        let tuple =
            (current.params.family, current.params.n, current.params.k, current.params.detail);
        for (family, n, k, detail) in strat.shrink(&tuple) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            let candidate = Params { family, n, k, detail };
            if let Err(f) = check(candidate, cfg) {
                if f.kind == current.kind {
                    current = f;
                    steps += 1;
                    continue 'outer;
                }
            }
        }
        break;
    }
    (current, steps)
}

/// Builds the full replay command line for a failure under `cfg`.
pub fn replay_command(params: Params, cfg: &Config) -> String {
    let mut cmd =
        format!("cargo run --release -p mbb-gen --bin gen -- replay {}", params.replay_args());
    if let Some(m) = cfg.mutation {
        cmd.push_str(&format!(" --mutate {m}"));
    }
    if cfg.scale != 1 {
        cmd.push_str(&format!(" --scale {}", cfg.scale));
    }
    cmd
}

/// Runs `iters` fuzz cases from `base_seed`.  On the first failure,
/// shrinks it and returns the counterexample; `progress` is called once
/// per case with the iteration index and params.
pub fn fuzz(
    base_seed: u64,
    iters: u32,
    cfg: &Config,
    mut progress: impl FnMut(u32, Params),
) -> Result<u32, Box<Counterexample>> {
    for iter in 0..iters {
        // One independent splitmix stream per iteration, so any iteration
        // can be reproduced without replaying its predecessors.
        let mut rng = StdRng::seed_from_u64(
            base_seed ^ (u64::from(iter).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let params = templates::sample_params(&mut rng);
        progress(iter, params);
        if let Err(found) = check(params, cfg) {
            let (minimal, shrink_steps) = shrink(&found, cfg);
            let program = pretty::program(&templates::generate(minimal.params, cfg.scale));
            let replay = replay_command(minimal.params, cfg);
            return Err(Box::new(Counterexample { found, minimal, program, shrink_steps, replay }));
        }
    }
    Ok(iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_is_deterministic_on_a_known_good_case() {
        let p = Params { family: 0, n: 8, k: 2, detail: 42 };
        assert!(check(p, &Config::default()).is_ok());
        assert!(check(p, &Config::default()).is_ok());
    }

    /// A scorer miscompile must be caught by the search stage on a
    /// program with temporal reuse (the stencil family re-reads
    /// neighbours, so cache hits split the register and memory channels
    /// and the swapped balance becomes observable).
    #[test]
    fn swap_balance_channels_canary_is_caught_on_a_reuse_case() {
        let p = Params { family: 1, n: 8, k: 1, detail: 0 };
        assert!(check(p, &Config::default()).is_ok(), "case must be green without the mutation");
        let cfg = Config { mutation: Some(Mutation::SwapBalanceChannels), ..Config::default() };
        let f = check(p, &cfg).expect_err("planted scorer bug must be caught");
        assert!(
            matches!(f.kind, FailureKind::SearchScoreMismatch | FailureKind::SearchBalance),
            "caught as {:?}: {}",
            f.kind,
            f.detail
        );
    }

    #[test]
    fn replay_command_names_every_knob() {
        let p = Params { family: 3, n: 12, k: 2, detail: 0xAB };
        let cfg = Config { mutation: Some(Mutation::DropStore), scale: 4, ..Config::default() };
        let cmd = replay_command(p, &cfg);
        assert!(cmd.contains("--family rotate"), "{cmd}");
        assert!(cmd.contains("--detail 0xab"), "{cmd}");
        assert!(cmd.contains("--mutate drop-store"), "{cmd}");
        assert!(cmd.contains("--scale 4"), "{cmd}");
    }
}
