//! The complete compiler strategy: fuse → shrink storage → eliminate
//! stores, with dynamic equivalence verification.
//!
//! This is the §3 pipeline as a single call: bandwidth-minimal fusion
//! localises array live ranges, storage reduction collapses localised
//! arrays to buffers or registers, and store elimination removes the
//! remaining writebacks.  [`optimize`] picks each move from its options,
//! applies it through [`crate::spec::apply_move`] and returns the
//! [`Candidate`] it applied, so the fixed strategy is a spec like any
//! other.  Every stage is semantics-preserving by construction;
//! [`verify_equivalent`] additionally *executes* both programs and
//! compares observations, which the test-suite does for every workload.

use mbb_ir::interp;
use mbb_ir::program::Program;

use crate::distribute::distribute_all;
use crate::expand::expand_scalar;
use crate::fusion::{
    build_fusion_graph, exhaustive_min_bandwidth, greedy_fusion, recursive_bisection_fusion,
    total_distinct_arrays, Partitioning,
};
use crate::spec::{apply_move, ApplyError, Candidate, Move};
use crate::storage::ShrinkAction;
use crate::stores::StoreElimination;

/// Which fusion strategy the pipeline uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FusionStrategy {
    /// The polynomial greedy heuristic (default).
    #[default]
    Greedy,
    /// Kennedy–McKinley recursive bisection, with the paper's hyperedge
    /// minimal cut performing each bisection (§4).
    Bisection,
    /// Exhaustive optimum (programs of at most
    /// [`EXHAUSTIVE_MAX_NESTS`](crate::fusion::EXHAUSTIVE_MAX_NESTS) nests).
    Exhaustive,
    /// Skip fusion.
    None,
}

/// Pipeline configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OptimizeOptions {
    /// Normalise first: expand per-iteration scalar temporaries and
    /// distribute every nest maximally, so fusion gets the finest-grained
    /// loop sequence to arrange (contraction later re-registers the
    /// expanded temporaries).
    pub normalize: bool,
    /// Fusion strategy.
    pub fusion: FusionStrategy,
    /// Run array shrinking/peeling.
    pub shrink: bool,
    /// Run store elimination.
    pub eliminate_stores: bool,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            normalize: false,
            fusion: FusionStrategy::Greedy,
            shrink: true,
            eliminate_stores: true,
        }
    }
}

/// The normalisation pre-pass: expand every expandable scalar in every
/// nest, then distribute all nests maximally.
pub fn normalize(prog: &Program) -> Program {
    let mut cur = prog.clone();
    // Scalar expansion (best-effort; blockers simply skip).
    let mut k = 0;
    while k < cur.nests.len() {
        let mut changed = true;
        while changed {
            changed = false;
            for s in 0..cur.scalars.len() {
                let sid = mbb_ir::ScalarId(s as u32);
                if let Ok((next, _)) = expand_scalar(&cur, k, sid) {
                    cur = next;
                    changed = true;
                    break;
                }
            }
        }
        k += 1;
    }
    distribute_all(&cur)
}

/// Everything the pipeline did.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// The optimised program.
    pub program: Program,
    /// The moves applied, in order: replaying this spec on the input
    /// program gives [`OptimizeOutcome::program`].
    pub candidate: Candidate,
    /// The partitioning fusion applied (if fusion ran).
    pub partitioning: Option<Partitioning>,
    /// The paper's fusion objective before and after (total distinct
    /// arrays over partitions).
    pub arrays_cost_before: u64,
    /// Post-fusion objective value.
    pub arrays_cost_after: u64,
    /// Storage-reduction actions.
    pub shrink_actions: Vec<ShrinkAction>,
    /// Store eliminations.
    pub store_eliminations: Vec<StoreElimination>,
    /// Declared array bytes before optimisation.
    pub storage_before: usize,
    /// Declared array bytes after optimisation.
    pub storage_after: usize,
}

/// Runs the compiler strategy over a program.
///
/// ```
/// use mbb_ir::builder::*;
/// use mbb_core::pipeline::{optimize, verify_equivalent, OptimizeOptions};
///
/// // Figure 7: update then reduce — fusion plus store elimination halves
/// // the memory traffic.
/// let n = 1024;
/// let mut b = ProgramBuilder::new("fig7");
/// let res = b.array_in("res", &[n]);
/// let data = b.array_in("data", &[n]);
/// let sum = b.scalar_printed("sum", 0.0);
/// let (i, j) = (b.var("i"), b.var("j"));
/// b.nest("update", &[(i, 0, n as i64 - 1)],
///     vec![assign(res.at([v(i)]), ld(res.at([v(i)])) + ld(data.at([v(i)])))]);
/// b.nest("reduce", &[(j, 0, n as i64 - 1)],
///     vec![accumulate(sum, ld(res.at([v(j)])))]);
/// let program = b.finish();
///
/// let out = optimize(&program, OptimizeOptions::default());
/// verify_equivalent(&program, &out.program, 1e-9).unwrap();
/// assert_eq!(out.program.nests.len(), 1);       // fused
/// assert_eq!(out.store_eliminations.len(), 1);  // res never written back
/// ```
pub fn optimize(prog: &Program, opts: OptimizeOptions) -> OptimizeOutcome {
    let mut cur = prog.clone();
    let mut candidate = Candidate::identity();
    let (mut shrink_actions, mut store_eliminations) = (Vec::new(), Vec::new());
    // Applies a move the options chose, appends it to the spec and keeps
    // its reports.
    let mut apply = |cur: &mut Program, mv: Move| -> Result<(), ApplyError> {
        let applied = apply_move(cur, &mv)?;
        *cur = applied.program;
        shrink_actions.extend(applied.shrink_actions);
        store_eliminations.extend(applied.store_eliminations);
        candidate.moves.push(mv);
        Ok(())
    };
    if opts.normalize {
        let _s = mbb_obs::span!("normalize");
        apply(&mut cur, Move::Normalize).expect("normalisation always applies");
    }
    let graph = build_fusion_graph(&cur);
    let unfused_cost = total_distinct_arrays(&graph, &Partitioning::unfused(graph.n));

    let (partitioning, fused_cost) = match opts.fusion {
        FusionStrategy::None => (None, unfused_cost),
        strategy => {
            let _s = mbb_obs::span!("fuse");
            let p = match strategy {
                FusionStrategy::Greedy => greedy_fusion(&graph),
                FusionStrategy::Bisection => recursive_bisection_fusion(&graph),
                FusionStrategy::Exhaustive => exhaustive_min_bandwidth(&graph).0,
                FusionStrategy::None => unreachable!(),
            };
            let cost = total_distinct_arrays(&graph, &p);
            // A program without nests gets its empty partition reported but
            // no move.  A partitioning the graph model accepts can still be
            // rejected by the stricter IR-level checks; then nothing fuses.
            if p.groups.is_empty() || apply(&mut cur, Move::Fuse(p.groups.clone())).is_ok() {
                (Some(p), cost)
            } else {
                (None, unfused_cost)
            }
        }
    };
    if opts.shrink {
        let _s = mbb_obs::span!("shrink");
        apply(&mut cur, Move::Shrink).expect("shrinking always applies");
    }
    if opts.eliminate_stores {
        let _s = mbb_obs::span!("store-elim");
        apply(&mut cur, Move::StoreElim).expect("store elimination always applies");
    }

    OptimizeOutcome {
        storage_after: cur.storage_bytes(),
        program: cur,
        candidate,
        partitioning,
        arrays_cost_before: unfused_cost,
        arrays_cost_after: fused_cost,
        shrink_actions,
        store_eliminations,
        storage_before: prog.storage_bytes(),
    }
}

/// Executes both programs and compares observable outputs with a relative
/// tolerance (fusion may reassociate reductions).  Returns the first
/// mismatch description, if any.
pub fn verify_equivalent(a: &Program, b: &Program, rel_tol: f64) -> Result<(), String> {
    let _s = mbb_obs::span!("verify");
    let ra = interp::run(a).map_err(|e| format!("original failed: {e}"))?;
    let rb = interp::run(b).map_err(|e| format!("optimised failed: {e}"))?;
    match ra.observation.diff(&rb.observation, rel_tol) {
        None => Ok(()),
        Some(d) => Err(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_ir::builder::*;

    /// Figure 7(a): separate update and reduce loops.
    fn fig7(n: usize) -> Program {
        let mut b = ProgramBuilder::new("fig7");
        let res = b.array_in("res", &[n]);
        let data = b.array_in("data", &[n]);
        let sum = b.scalar_printed("sum", 0.0);
        let i = b.var("i");
        let j = b.var("j");
        b.nest(
            "update",
            &[(i, 0, n as i64 - 1)],
            vec![assign(res.at([v(i)]), ld(res.at([v(i)])) + ld(data.at([v(i)])))],
        );
        b.nest("reduce", &[(j, 0, n as i64 - 1)], vec![accumulate(sum, ld(res.at([v(j)])))]);
        b.finish()
    }

    #[test]
    fn full_pipeline_on_figure7() {
        let p = fig7(128);
        let out = optimize(&p, OptimizeOptions::default());
        verify_equivalent(&p, &out.program, 1e-12).unwrap();
        // Fusion merged the two loops…
        assert_eq!(out.program.nests.len(), 1);
        assert_eq!(out.arrays_cost_before, 3); // res+data, res
        assert_eq!(out.arrays_cost_after, 2); // res, data once
                                              // …and store elimination removed the writeback.
        assert_eq!(out.store_eliminations.len(), 1);
        let stats = mbb_ir::interp::run(&out.program).unwrap().stats;
        assert_eq!(stats.stores, 0);
    }

    #[test]
    fn pipeline_stages_can_be_disabled() {
        let p = fig7(64);
        let out = optimize(
            &p,
            OptimizeOptions {
                fusion: FusionStrategy::None,
                shrink: false,
                eliminate_stores: false,
                ..Default::default()
            },
        );
        assert_eq!(out.program.nests.len(), 2);
        assert!(out.partitioning.is_none());
        assert!(out.store_eliminations.is_empty());
        verify_equivalent(&p, &out.program, 0.0).unwrap();
    }

    #[test]
    fn exhaustive_matches_greedy_on_simple_case() {
        let p = fig7(64);
        let g =
            optimize(&p, OptimizeOptions { fusion: FusionStrategy::Greedy, ..Default::default() });
        let e = optimize(
            &p,
            OptimizeOptions { fusion: FusionStrategy::Exhaustive, ..Default::default() },
        );
        assert_eq!(g.arrays_cost_after, e.arrays_cost_after);
    }

    #[test]
    fn pipeline_reduces_storage_with_temporaries() {
        // producer → consumer through a temporary array: fusion localises
        // it, shrinking registers it away.
        let n = 64usize;
        let hi = n as i64 - 1;
        let mut b = ProgramBuilder::new("tmp");
        let x = b.array_in("x", &[n]);
        let t = b.array_zero("t", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let i = b.var("i");
        let j = b.var("j");
        b.nest("produce", &[(i, 0, hi)], vec![assign(t.at([v(i)]), ld(x.at([v(i)])) * lit(2.0))]);
        b.nest("consume", &[(j, 0, hi)], vec![accumulate(s, ld(t.at([v(j)])))]);
        let p = b.finish();
        let before = p.storage_bytes();
        let out = optimize(&p, OptimizeOptions::default());
        verify_equivalent(&p, &out.program, 1e-12).unwrap();
        assert!(out.storage_after < before, "{} -> {}", before, out.storage_after);
        assert!(out
            .shrink_actions
            .iter()
            .any(|a| matches!(a, ShrinkAction::Contracted { to_scalar: true, .. })));
        // t is gone entirely: only x remains.
        assert_eq!(out.program.arrays.len(), 1);
    }

    #[test]
    fn verify_detects_differences() {
        let p = fig7(16);
        let mut q = p.clone();
        // Corrupt the reduction.
        if let mbb_ir::Stmt::Assign { rhs, .. } = &mut q.nests[1].body[0] {
            *rhs = lit(0.0);
        }
        assert!(verify_equivalent(&p, &q, 1e-9).is_err());
    }
}

#[cfg(test)]
mod normalize_tests {
    use super::*;
    use mbb_ir::builder::*;

    /// One fused nest mixing two independent computations through scalar
    /// temporaries: only normalisation lets the partitioner pull them
    /// apart and regroup by data affinity.
    fn entangled(n: usize) -> Program {
        let hi = n as i64 - 1;
        let mut b = ProgramBuilder::new("ent");
        let x = b.array_in("x", &[n]);
        let y = b.array_in("y", &[n]);
        let ox = b.array_out("ox", &[n]);
        let oy = b.array_out("oy", &[n]);
        let t1 = b.scalar("t1", 0.0);
        let t2 = b.scalar("t2", 0.0);
        let i = b.var("i");
        b.nest(
            "k",
            &[(i, 0, hi)],
            vec![
                assign(t1.r(), ld(x.at([v(i)])) * lit(2.0)),
                assign(t2.r(), ld(y.at([v(i)])) * lit(3.0)),
                assign(ox.at([v(i)]), ld(t1.r())),
                assign(oy.at([v(i)]), ld(t2.r())),
            ],
        );
        b.finish()
    }

    #[test]
    fn normalize_expands_and_distributes() {
        let p = entangled(32);
        let q = normalize(&p);
        assert!(q.nests.len() >= 2, "{} nests", q.nests.len());
        verify_equivalent(&p, &q, 0.0).unwrap();
    }

    #[test]
    fn normalized_pipeline_stays_equivalent_and_compact() {
        let p = entangled(32);
        let out = optimize(&p, OptimizeOptions { normalize: true, ..Default::default() });
        verify_equivalent(&p, &out.program, 1e-12).unwrap();
        // The expanded temporaries must have been contracted away again:
        // no storage growth survives the full pipeline.
        assert!(out.storage_after <= p.storage_bytes(), "{}", out.storage_after);
        let stats = mbb_ir::interp::run(&out.program).unwrap().stats;
        let orig = mbb_ir::interp::run(&p).unwrap().stats;
        assert_eq!(stats.flops, orig.flops);
    }

    #[test]
    fn normalize_is_identity_on_already_fine_programs() {
        let mut b = ProgramBuilder::new("fine");
        let a = b.array_out("a", &[16]);
        let i = b.var("i");
        b.nest("w", &[(i, 0, 15)], vec![assign(a.at([v(i)]), lit(1.0))]);
        let p = b.finish();
        let q = normalize(&p);
        assert_eq!(q.nests.len(), 1);
        verify_equivalent(&p, &q, 0.0).unwrap();
    }
}
