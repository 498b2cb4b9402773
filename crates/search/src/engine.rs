//! The beam / branch-and-bound search over transformation sequences.
//!
//! ## Shape of the search
//!
//! A beam state is a [`Candidate`] (the move sequence so far) plus the
//! program it produces and that program's measured score.  Each step
//! expands every beam state with every applicable move — moves are only
//! appended in nondecreasing [`Move::stage`] order, which collapses
//! permutations of commuting moves — scores the new programs, and keeps
//! the best `beam` states.  The overall winner is the best state *ever
//! scored*, and the paper's fixed pipeline is seeded into the initial
//! pool as a fully-formed candidate, so the search is never worse than
//! the fixed pipeline on its own objective, by construction.
//!
//! ## Pruning
//!
//! The fusion lattice is the combinatorial heart of the space (Bell
//! numbers of partitions).  For programs of ≤ [`ENUMERATE_NESTS`] nests
//! the candidate partitions are the whole lattice, walked by
//! [`for_each_partition`] (the walk the exhaustive solver takes), which
//! holds every partition an oracle could return.  Beyond it they come
//! from the `mbb_core::fusion` oracles: greedy merging, recursive
//! min-cut bisection, the exhaustive min-bandwidth optimum on graphs of
//! ≤ 10 nests, and the all-fused partition.  Every candidate's groups
//! are put in dependence order by [`reorder_topologically`], the order
//! every fusion strategy returns.  Candidates are ranked by the paper's
//! static objective (total distinct arrays, [`total_distinct_arrays`])
//! and only the best few ever reach the simulator; the rest are counted in
//! [`SearchTrace::pruned`] along with illegal moves and duplicate
//! programs (deduplicated by canonical key before scoring).
//!
//! ## Determinism and budgets
//!
//! Scoring runs the interpreter under the runs engine and is charged to
//! the caller's installed [`mbb_ir::budget`]; the loop also polls the
//! budget between candidates, so a wall deadline stops the search at the
//! next candidate boundary with a clean `deadline_exceeded`.  All
//! ordering ties break on a seed-keyed hash and then the spec string, so
//! a search is a pure function of `(program, machine, beam, steps,
//! seed)` — cache state can change *when* scores are computed, never
//! their values.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::ControlFlow;

use mbb_core::balance::measure_program_balance;
use mbb_core::canon;
use mbb_core::fusion::{
    build_fusion_graph, check_legal, exhaustive_min_bandwidth, for_each_partition, greedy_fusion,
    recursive_bisection_fusion, reorder_topologically, total_distinct_arrays, Partitioning,
};
use mbb_core::interchange::permutations;
use mbb_core::mutate::{self, Mutation};
use mbb_core::pipeline::{self, OptimizeOptions};
use mbb_core::spec::{apply_move, Candidate, Move};
use mbb_ir::runs::{self, Engine};
use mbb_ir::Program;
use mbb_memsim::hierarchy::TrafficReport;
use mbb_memsim::machine::MachineModel;

use crate::cache::{Score, ScoreCache};

/// The cache-key kind of score entries (see [`mbb_core::canon::cache_key`]).
pub const SCORE_KIND: &str = "search-score";

/// Default beam width.
pub const DEFAULT_BEAM: usize = 4;
/// Default expansion steps.
pub const DEFAULT_STEPS: usize = 5;
/// Default tie-breaking seed.
pub const DEFAULT_SEED: u64 = 0xBEA3_5EED;

/// Programs of at most this many nests get their fusion lattice fully
/// enumerated (Bell(6) = 203) before oracle ranking; larger programs
/// rely on the oracle solutions alone.
pub const ENUMERATE_NESTS: usize = 6;

/// How a search runs.
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Machine model candidates are scored against.
    pub machine: MachineModel,
    /// Beam width (states kept per step).
    pub beam: usize,
    /// Expansion steps (maximum sequence length explored).
    pub steps: usize,
    /// Tie-breaking seed; the search is deterministic for a fixed seed.
    pub seed: u64,
    /// The fixed pipeline seeded into the beam (and reported as the
    /// baseline the search must never lose to).
    pub pipeline: OptimizeOptions,
    /// Planted scorer bug (mutation testing); `None` for honest scoring.
    /// Distortion is applied to the scorer's *view* after retrieval, so
    /// the shared cache only ever holds honest measurements.
    pub scorer_mutation: Option<Mutation>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            machine: MachineModel::origin2000(),
            beam: DEFAULT_BEAM,
            steps: DEFAULT_STEPS,
            seed: DEFAULT_SEED,
            pipeline: OptimizeOptions::default(),
            scorer_mutation: None,
        }
    }
}

/// The scorer's view of one candidate: what selection actually compares.
/// Equal to the honest measurement unless a scorer mutation is armed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreView {
    /// Memory-channel balance (bytes/flop) — the primary objective.
    pub bytes_per_flop: f64,
    /// Memory-channel bytes — the deterministic tie-breaker.
    pub bytes: u64,
}

/// Why a search failed (interpreter errors, including budget stops; the
/// caller classifies budget exhaustion via [`mbb_ir::budget::exhausted`]).
#[derive(Clone, Debug)]
pub struct SearchError(pub String);

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The reproducible record of one search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchTrace {
    /// Tie-breaking seed used.
    pub seed: u64,
    /// Beam width used.
    pub beam: usize,
    /// Steps requested.
    pub steps: usize,
    /// Steps actually run (fewer when the frontier empties).
    pub steps_run: usize,
    /// Unique candidate programs scored (including the input and the
    /// seeded fixed pipeline).  Deterministic for fixed seed/beam.
    pub visited: u64,
    /// Candidates discarded without simulation: illegal moves, duplicate
    /// programs, and oracle-ranked-out fusion partitions.  Deterministic.
    pub pruned: u64,
    /// Scores served from the cache during this search.  A per-execution
    /// fact (depends on what earlier searches cached), so it is excluded
    /// from deterministic surfaces like server responses and sweep rows.
    pub cache_hits: u64,
    /// Scores computed by this search.
    pub cache_misses: u64,
    /// The winning sequence, replayable with `mbbc optimize --pipeline`.
    pub best_spec: String,
    /// The seeded fixed-pipeline sequence.
    pub fixed_spec: String,
    /// True when the winner strictly beats the fixed pipeline.
    pub improved: bool,
}

/// A completed search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The winning program.
    pub program: Program,
    /// The winning sequence.
    pub best: Candidate,
    /// The scorer's view of the winner (equals `best_score`'s memory
    /// figures unless a scorer mutation distorted selection).
    pub best_view: ScoreView,
    /// The honest measurement of the winner.
    pub best_score: Score,
    /// The fixed pipeline's program (the seeded baseline).
    pub fixed_program: Program,
    /// The scorer's view of the fixed pipeline.
    pub fixed_view: ScoreView,
    /// The honest measurement of the fixed pipeline.
    pub fixed_score: Score,
    /// Search statistics.
    pub trace: SearchTrace,
}

struct State {
    cand: Candidate,
    prog: Program,
    score: Score,
    view: ScoreView,
    spec: String,
    tie: u64,
}

fn charge() -> Result<(), SearchError> {
    mbb_ir::budget::charge(0).map_err(|e| SearchError(e.to_string()))
}

/// Derives the scorer's view, routing any armed mutation through the one
/// distortion definition in [`mbb_core::mutate::distort_balance`].
fn score_view(s: &Score, mutation: Option<Mutation>) -> ScoreView {
    let mut b = mbb_core::balance::ProgramBalance {
        name: String::new(),
        bytes_per_flop: s.bytes_per_flop.clone(),
        flops: s.flops,
        report: TrafficReport {
            channel_bytes: s.channel_bytes.clone(),
            level_stats: Vec::new(),
            mem_read_bytes: 0,
            mem_write_bytes: 0,
            tlb_misses: 0,
        },
    };
    if let Some(m) = mutation {
        mutate::distort_balance(&mut b, m);
    }
    ScoreView { bytes_per_flop: b.memory(), bytes: *b.report.channel_bytes.last().unwrap_or(&0) }
}

fn view_cmp(a: &ScoreView, b: &ScoreView) -> Ordering {
    a.bytes_per_flop.total_cmp(&b.bytes_per_flop).then_with(|| a.bytes.cmp(&b.bytes))
}

fn state_cmp(a: &State, b: &State) -> Ordering {
    view_cmp(&a.view, &b.view).then_with(|| a.tie.cmp(&b.tie)).then_with(|| a.spec.cmp(&b.spec))
}

/// Candidate fusion partitions for one program: the enumerated lattice on
/// programs of ≤ [`ENUMERATE_NESTS`] nests, the oracle solutions (greedy,
/// min-cut bisection, exhaustive optimum on ≤ 10 nests, fully fused)
/// beyond it — ranked by the paper's static objective and truncated to
/// `keep`, everything else counted as pruned.
///
/// The first survivor has the lowest static cost of the legal fusing
/// candidates.  Within the lattice those are every legal fusing
/// partition, so it matches the exhaustive optimum's cost whenever that
/// optimum fuses anything; an oracle would add only a partition already
/// enumerated (pinned by a test), so none is called there.  Beyond it, up
/// to 10 nests, the exhaustive optimum is itself a candidate.
fn fusion_moves(prog: &Program, keep: usize, trace: &mut SearchTrace) -> Vec<Vec<Vec<usize>>> {
    let graph = build_fusion_graph(prog);
    let n = graph.n;
    let mut legal: Vec<(u64, Vec<Vec<usize>>)> = Vec::new();
    let mut seen: BTreeSet<Vec<Vec<usize>>> = BTreeSet::new();
    let mut consider = |groups: &[Vec<usize>]| {
        // The unfused partition is the identity move: not a candidate.
        if groups.len() == n {
            return;
        }
        let Some(p) = reorder_topologically(&graph, groups) else {
            trace.pruned += 1;
            return;
        };
        if !seen.insert(p.groups.clone()) {
            return; // same partition from two oracles: not a prune
        }
        if check_legal(&graph, &p).is_err() {
            trace.pruned += 1;
            return;
        }
        legal.push((total_distinct_arrays(&graph, &p), p.groups));
    };
    if n <= ENUMERATE_NESTS {
        for_each_partition(n, |groups| {
            consider(groups);
            ControlFlow::Continue(())
        });
    } else {
        let mut oracles = vec![greedy_fusion(&graph), recursive_bisection_fusion(&graph)];
        if n <= 10 {
            oracles.push(exhaustive_min_bandwidth(&graph).0);
        }
        oracles.push(Partitioning::all_fused(n));
        for p in &oracles {
            consider(&p.groups);
        }
    }
    // Oracle ranking: simulate only the statically best few.
    legal.sort();
    let keep = keep.max(1);
    if legal.len() > keep {
        trace.pruned += (legal.len() - keep) as u64;
        legal.truncate(keep);
    }
    legal.into_iter().map(|(_, g)| g).collect()
}

/// Applicable moves for one beam state, respecting stage order.
fn expand_moves(state: &State, beam: usize, trace: &mut SearchTrace) -> Vec<Move> {
    let has = |pred: fn(&Move) -> bool| state.cand.moves.iter().any(pred);
    let mut out = Vec::new();
    if state.cand.moves.is_empty() {
        out.push(Move::Normalize);
    }
    let fused = has(|m| matches!(m, Move::Fuse(_)));
    let past_fusion = has(|m| m.stage() >= 2);
    if !fused && !past_fusion && state.prog.nests.len() >= 2 {
        for groups in fusion_moves(&state.prog, beam, trace) {
            out.push(Move::Fuse(groups));
        }
    }
    let reduced = has(|m| m.stage() >= 3);
    if !reduced {
        let start = state
            .cand
            .moves
            .iter()
            .filter_map(|m| match m {
                Move::Interchange { nest, .. } => Some(nest + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        for nest in start..state.prog.nests.len() {
            let depth = state.prog.nests[nest].loops.len();
            if !(2..=4).contains(&depth) {
                continue;
            }
            for perm in permutations(depth) {
                if perm.iter().enumerate().all(|(k, &l)| k == l) {
                    continue;
                }
                out.push(Move::Interchange { nest, perm });
            }
        }
    }
    if !reduced {
        out.push(Move::Shrink);
    }
    if !has(|m| matches!(m, Move::StoreElim)) {
        out.push(Move::StoreElim);
    }
    out
}

/// Searches through the process-global score cache (what the CLI and
/// server use, so concurrent searches share work).
pub fn search(prog: &Program, opts: &SearchOptions) -> Result<SearchOutcome, SearchError> {
    search_with_cache(prog, opts, ScoreCache::global())
}

/// Searches through an explicit score cache (tests and the perf gate use
/// a fresh one for repetition determinism).
pub fn search_with_cache(
    prog: &Program,
    opts: &SearchOptions,
    cache: &ScoreCache,
) -> Result<SearchOutcome, SearchError> {
    let _span = mbb_obs::span!("search");
    let beam_width = opts.beam.max(1);
    let mut trace = SearchTrace {
        seed: opts.seed,
        beam: beam_width,
        steps: opts.steps,
        steps_run: 0,
        visited: 0,
        pruned: 0,
        cache_hits: 0,
        cache_misses: 0,
        best_spec: String::new(),
        fixed_spec: String::new(),
        improved: false,
    };
    let mut seen: BTreeSet<u64> = BTreeSet::new();

    let mk_state = |cand: Candidate,
                    prog: Program,
                    key: u64,
                    trace: &mut SearchTrace|
     -> Result<State, SearchError> {
        let spec = cand.spec();
        let (score, hit) = {
            let _s = mbb_obs::span!("score:{}", spec);
            cache.get_or_compute(key, charge, || {
                let _e = runs::install(Engine::Runs);
                let b = measure_program_balance(&prog, &opts.machine)
                    .map_err(|e| SearchError(e.to_string()))?;
                Ok(Score {
                    bytes_per_flop: b.bytes_per_flop,
                    channel_bytes: b.report.channel_bytes,
                    flops: b.flops,
                })
            })?
        };
        if hit {
            trace.cache_hits += 1;
        } else {
            trace.cache_misses += 1;
        }
        trace.visited += 1;
        let view = score_view(&score, opts.scorer_mutation);
        let tie = canon::fnv1a(&[&opts.seed.to_le_bytes()[..], spec.as_bytes()].concat());
        Ok(State { cand, prog, score, view, spec, tie })
    };
    let key_of = |p: &Program| canon::program_key(SCORE_KIND, &opts.machine.name, "", p);

    // The input program is the root state...
    charge()?;
    let init_key = key_of(prog);
    seen.insert(init_key);
    let init = mk_state(Candidate::identity(), prog.clone(), init_key, &mut trace)?;

    // ...and the fixed pipeline is seeded fully formed, as the spec it
    // applied, so the winner can never score worse than it.
    let fixed_out = pipeline::optimize(prog, opts.pipeline);
    let (fixed_cand, fixed_prog) = (fixed_out.candidate, fixed_out.program);
    trace.fixed_spec = fixed_cand.spec();
    let fixed_key = key_of(&fixed_prog);
    let fixed = if seen.insert(fixed_key) {
        mk_state(fixed_cand.clone(), fixed_prog, fixed_key, &mut trace)?
    } else {
        // The pipeline is a no-op on this program; reuse the root score.
        State {
            cand: fixed_cand.clone(),
            prog: fixed_prog,
            score: init.score.clone(),
            view: init.view,
            spec: fixed_cand.spec(),
            tie: init.tie,
        }
    };
    let fixed_view = fixed.view;
    let fixed_score = fixed.score.clone();
    let fixed_program = fixed.prog.clone();

    let mut best =
        clone_state(if state_cmp(&fixed, &init) == Ordering::Less { &fixed } else { &init });
    let mut beam: Vec<State> = vec![init, fixed];
    beam.sort_by(state_cmp);
    beam.truncate(beam_width);

    for _ in 0..opts.steps {
        let mut pool: Vec<State> = Vec::new();
        for state in &beam {
            for mv in expand_moves(state, beam_width, &mut trace) {
                charge()?;
                let next_prog = match apply_move(&state.prog, &mv) {
                    Ok(a) => a.program,
                    Err(_) => {
                        trace.pruned += 1;
                        continue;
                    }
                };
                let key = key_of(&next_prog);
                if !seen.insert(key) {
                    trace.pruned += 1;
                    continue;
                }
                let mut cand = state.cand.clone();
                cand.moves.push(mv);
                pool.push(mk_state(cand, next_prog, key, &mut trace)?);
            }
        }
        if pool.is_empty() {
            break;
        }
        trace.steps_run += 1;
        pool.sort_by(state_cmp);
        if state_cmp(&pool[0], &best) == Ordering::Less {
            best = clone_state(&pool[0]);
        }
        pool.truncate(beam_width);
        beam = pool;
    }

    trace.best_spec = best.spec.clone();
    trace.improved = view_cmp(&best.view, &fixed_view) == Ordering::Less;
    Ok(SearchOutcome {
        program: best.prog,
        best: best.cand,
        best_view: best.view,
        best_score: best.score,
        fixed_program,
        fixed_view,
        fixed_score,
        trace,
    })
}

fn clone_state(s: &State) -> State {
    State {
        cand: s.cand.clone(),
        prog: s.prog.clone(),
        score: s.score.clone(),
        view: s.view,
        spec: s.spec.clone(),
        tie: s.tie,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_core::pipeline::verify_equivalent;
    use mbb_ir::budget::Budget;
    use mbb_ir::builder::*;
    use std::time::Duration;

    /// A three-nest producer/consumer chain with contractable temporaries:
    /// rich enough that fusion + shrinking + store elimination all fire.
    fn chain() -> Program {
        let n = 64;
        let mut b = ProgramBuilder::new("chain");
        let a = b.array_in("a", &[n]);
        let t0 = b.array("t0", &[n]);
        let t1 = b.array("t1", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let (i, j, k) = (b.var("i"), b.var("j"), b.var("k"));
        let hi = n as i64 - 1;
        b.nest("p0", &[(i, 0, hi)], vec![assign(t0.at([v(i)]), ld(a.at([v(i)])) + lit(1.0))]);
        b.nest("p1", &[(j, 0, hi)], vec![assign(t1.at([v(j)]), ld(t0.at([v(j)])) * lit(2.0))]);
        b.nest("sum", &[(k, 0, hi)], vec![accumulate(s, ld(t1.at([v(k)])))]);
        b.finish()
    }

    fn opts() -> SearchOptions {
        SearchOptions { beam: 3, steps: 4, ..SearchOptions::default() }
    }

    #[test]
    fn never_worse_than_fixed_and_equivalent() {
        let p = chain();
        let cache = ScoreCache::new(1024, 2);
        let out = search_with_cache(&p, &opts(), &cache).unwrap();
        assert_ne!(
            view_cmp(&out.best_view, &out.fixed_view),
            Ordering::Greater,
            "search must never lose to the seeded fixed pipeline"
        );
        verify_equivalent(&p, &out.program, 1e-9).unwrap();
        verify_equivalent(&p, &out.fixed_program, 1e-9).unwrap();
        assert!(out.trace.visited >= 2);
    }

    #[test]
    fn winning_spec_replays_to_the_winning_program() {
        let p = chain();
        let cache = ScoreCache::new(1024, 2);
        let out = search_with_cache(&p, &opts(), &cache).unwrap();
        let replayed = Candidate::parse(&out.trace.best_spec).unwrap().apply(&p).unwrap();
        assert_eq!(
            canon::program(&replayed),
            canon::program(&out.program),
            "spec replay must reproduce the winner byte-for-byte"
        );
    }

    #[test]
    fn search_is_deterministic_for_fixed_seed() {
        let p = chain();
        let a = search_with_cache(&p, &opts(), &ScoreCache::new(1024, 2)).unwrap();
        let b = search_with_cache(&p, &opts(), &ScoreCache::new(1024, 2)).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(canon::program(&a.program), canon::program(&b.program));
        // A warm cache changes hit counts but never decisions.
        let warm = ScoreCache::new(1024, 2);
        let c = search_with_cache(&p, &opts(), &warm).unwrap();
        let d = search_with_cache(&p, &opts(), &warm).unwrap();
        assert_eq!(c.trace.best_spec, d.trace.best_spec);
        assert_eq!(c.trace.visited, d.trace.visited);
        assert_eq!(c.trace.pruned, d.trace.pruned);
        assert!(d.trace.cache_hits > c.trace.cache_hits);
        assert_eq!(canon::program(&c.program), canon::program(&d.program));
    }

    #[test]
    fn expired_deadline_stops_the_search() {
        let p = chain();
        let b = Budget { max_steps: None, wall: Some(Duration::ZERO) };
        let _g = b.install();
        let err = search_with_cache(&p, &opts(), &ScoreCache::new(64, 1)).unwrap_err();
        assert!(err.to_string().contains("budget"), "unexpected error: {err}");
        assert!(mbb_ir::budget::exhausted());
    }

    /// Like [`chain`] but every value is loaded twice per use site, so
    /// the register channel provably carries more bytes per flop than the
    /// memory channel — which is what makes `swap-balance-channels`
    /// observable (on a pure streaming program every channel carries the
    /// same traffic and a swap is a no-op).
    fn reuse_chain() -> Program {
        let n = 64;
        let mut b = ProgramBuilder::new("reuse-chain");
        let a = b.array_in("a", &[n]);
        let t = b.array("t", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let (i, j) = (b.var("i"), b.var("j"));
        let hi = n as i64 - 1;
        b.nest(
            "square",
            &[(i, 0, hi)],
            vec![assign(t.at([v(i)]), ld(a.at([v(i)])) * ld(a.at([v(i)])))],
        );
        b.nest("sum", &[(j, 0, hi)], vec![accumulate(s, ld(t.at([v(j)])) * ld(t.at([v(j)])))]);
        b.finish()
    }

    /// The corpus programs, read at compile time: `mbb-gen`, which owns
    /// the corpus tooling, depends on this crate.
    const CORPUS: [&str; 6] = [
        include_str!("../../../tests/corpus/chain.loop"),
        include_str!("../../../tests/corpus/reduce.loop"),
        include_str!("../../../tests/corpus/rotate.loop"),
        include_str!("../../../tests/corpus/shrunk_swap_add_sub.loop"),
        include_str!("../../../tests/corpus/stencil.loop"),
        include_str!("../../../tests/corpus/triangle.loop"),
    ];

    /// Within the enumerated lattice the fusion oracles add no candidate:
    /// each one's partition orders without a cycle (so it was never
    /// counted as pruned twice, once as an oracle's and once as the
    /// lattice's) and is one of the enumerated partitions.  That is why
    /// `fusion_moves` calls them only beyond [`ENUMERATE_NESTS`].
    #[test]
    fn every_oracle_partition_is_in_the_enumerated_lattice() {
        let mut programs: Vec<Program> =
            CORPUS.iter().map(|src| mbb_ir::parse::parse(src).unwrap()).collect();
        programs.extend([chain(), reuse_chain()]);
        let mut checked = 0;
        for p in &programs {
            let graph = build_fusion_graph(p);
            let n = graph.n;
            if !(2..=ENUMERATE_NESTS).contains(&n) {
                continue;
            }
            let mut lattice = Vec::new();
            for_each_partition(n, |groups| {
                lattice.push(groups.to_vec());
                ControlFlow::Continue(())
            });
            let oracles = [
                ("greedy", greedy_fusion(&graph)),
                ("bisection", recursive_bisection_fusion(&graph)),
                ("exhaustive", exhaustive_min_bandwidth(&graph).0),
                ("all-fused", Partitioning::all_fused(n)),
            ];
            for (name, part) in oracles {
                let mut groups = part.groups;
                assert!(
                    reorder_topologically(&graph, &groups).is_some(),
                    "{}: the {name} partition {groups:?} has a cycle",
                    p.name
                );
                // The lattice lists groups by first member.
                groups.sort();
                assert!(
                    lattice.contains(&groups),
                    "{}: the {name} partition {groups:?} is not enumerated",
                    p.name
                );
            }
            checked += 1;
        }
        assert!(checked >= 4, "only {checked} programs within the lattice");
    }

    #[test]
    fn scorer_mutation_distorts_selection_but_never_the_cache() {
        let p = reuse_chain();
        let honest = search_with_cache(&p, &opts(), &ScoreCache::new(1024, 2)).unwrap();
        // Canary run through a shared cache...
        let shared = ScoreCache::new(1024, 2);
        let canary_opts =
            SearchOptions { scorer_mutation: Some(Mutation::SwapBalanceChannels), ..opts() };
        let canary = search_with_cache(&p, &canary_opts, &shared).unwrap();
        // ...the distorted view disagrees with the honest measurement of
        // its own winner (that is what the fuzz lane detects)...
        assert_ne!(
            canary.best_view.bytes_per_flop,
            canary.best_score.memory(),
            "swap-balance-channels must be visible in the scorer's view"
        );
        // ...and an honest search through the same (now warm) cache is
        // untouched: cached scores are honest measurements.
        let after = search_with_cache(&p, &opts(), &shared).unwrap();
        assert_eq!(after.trace.best_spec, honest.trace.best_spec);
        assert_eq!(after.best_score, honest.best_score);
    }
}
