//! IR-level loop transformations: fusion application and loop peeling.
//!
//! These are the mechanical halves of §3.1: once a partitioning has been
//! chosen on the fusion graph, [`fuse_nests`] produces the fused program;
//! [`peel_front_iterations`] splits boundary iterations off a nest so that
//! nests with slightly different ranges (Figure 6's init loop over
//! `j = 1..N` against the compute loop over `j = 2..N`) can be made
//! conformable first.

use mbb_ir::deps::{dependences, fusion_legal, FusionBlocker};
use mbb_ir::program::{LoopNest, Program, VarId};

/// Why a fusion could not be applied.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FuseError {
    /// The groups are not a partition of the nest indices into
    /// non-empty groups.
    NotAPartition,
    /// Two nests in one group may not be fused (with the pairwise reason).
    Illegal {
        /// The offending pair (program-order indices).
        pair: (usize, usize),
        /// The pairwise blocker.
        blocker: FusionBlocker,
    },
    /// A dependence flows backwards across the group sequence.
    OrderViolation {
        /// The dependence source nest.
        src: usize,
        /// The dependence destination nest.
        dst: usize,
    },
}

/// Fuses the program's nests according to `groups`: one output nest per
/// group, in the given group order; bodies are concatenated in
/// program order within each group, with loop variables renamed onto the
/// group leader's.
///
/// Checks pairwise fusibility inside groups and forward dependence flow
/// across groups; returns the fused program or the reason it is illegal.
pub fn fuse_nests(prog: &Program, groups: &[Vec<usize>]) -> Result<Program, FuseError> {
    // --- A partition of 0..n into non-empty groups -------------------------
    let n = prog.nests.len();
    let mut seen = vec![false; n];
    for g in groups {
        if g.is_empty() {
            return Err(FuseError::NotAPartition);
        }
        for &k in g {
            if k >= n || seen[k] {
                return Err(FuseError::NotAPartition);
            }
            seen[k] = true;
        }
    }
    if !seen.iter().all(|&s| s) {
        return Err(FuseError::NotAPartition);
    }

    // --- Pairwise fusibility within groups --------------------------------
    for g in groups {
        let mut sorted = g.clone();
        sorted.sort_unstable();
        for (i, &a) in sorted.iter().enumerate() {
            for &b in &sorted[i + 1..] {
                if let Err(blocker) = fusion_legal(prog, a, b) {
                    return Err(FuseError::Illegal { pair: (a, b), blocker });
                }
            }
        }
    }

    // --- Dependences must flow forward across the group sequence ----------
    let mut group_of = vec![0usize; n];
    for (gi, g) in groups.iter().enumerate() {
        for &k in g {
            group_of[k] = gi;
        }
    }
    let deps = dependences(prog);
    for e in &deps.edges {
        if group_of[e.src] > group_of[e.dst] {
            return Err(FuseError::OrderViolation { src: e.src, dst: e.dst });
        }
    }

    // --- Build the fused program ------------------------------------------
    let mut out = prog.clone();
    out.nests.clear();
    out.fusion_preventing.clear();
    for g in groups {
        let mut sorted = g.clone();
        sorted.sort_unstable();
        let lead = &prog.nests[sorted[0]];
        let mut fused = LoopNest {
            name: sorted.iter().map(|&k| prog.nests[k].name.as_str()).collect::<Vec<_>>().join("+"),
            loops: lead.loops.clone(),
            body: lead.body.clone(),
        };
        for &k in &sorted[1..] {
            let nest = &prog.nests[k];
            // Rename the nest's loop variables onto the leader's, going
            // through fresh intermediates so permuted variable sets cannot
            // collide mid-substitution.
            let fresh: Vec<VarId> = nest
                .loops
                .iter()
                .map(|lp| out.add_var(format!("{}__tmp", prog.var_name(lp.var))))
                .collect();
            let mut body = nest.body.clone();
            for (lp, &f) in nest.loops.iter().zip(&fresh) {
                body = body.iter().map(|s| s.rename(lp.var, f)).collect();
            }
            for (lead_lp, &f) in lead.loops.iter().zip(&fresh) {
                body = body.iter().map(|s| s.rename(f, lead_lp.var)).collect();
            }
            fused.body.extend(body);
        }
        out.nests.push(fused);
    }
    Ok(out)
}

/// Splits the first `count` iterations of nest `nest_idx`'s *outermost*
/// loop into a separate preceding nest (classic loop peeling), enabling
/// fusion of nests whose ranges differ by a few boundary iterations.
///
/// # Panics
/// Panics if the outermost bounds are not constants, the step is not 1, or
/// `count` is not smaller than the trip count.
pub fn peel_front_iterations(prog: &Program, nest_idx: usize, count: u64) -> Program {
    let mut out = prog.clone();
    let nest = &prog.nests[nest_idx];
    let outer = &nest.loops[0];
    let lo = outer.lo.as_const().expect("constant lower bound required for peeling");
    let hi = outer.hi.as_const().expect("constant upper bound required for peeling");
    assert_eq!(outer.step, 1, "peeling requires unit step");
    let trips = (hi - lo + 1).max(0) as u64;
    assert!(count < trips, "cannot peel {count} of {trips} iterations");

    let mut front = nest.clone();
    front.name = format!("{}_peel", nest.name);
    front.loops[0].hi = mbb_ir::Affine::constant(lo + count as i64 - 1);
    let mut rest = nest.clone();
    rest.loops[0].lo = mbb_ir::Affine::constant(lo + count as i64);

    out.nests[nest_idx] = front;
    out.nests.insert(nest_idx + 1, rest);
    // Re-index explicit fusion-preventing edges past the insertion point.
    out.fusion_preventing = prog
        .fusion_preventing
        .iter()
        .map(|&(a, b)| {
            let bump = |x: usize| if x > nest_idx { x + 1 } else { x };
            (bump(a), bump(b))
        })
        .collect();
    out
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::NotAPartition => write!(f, "groups are not a partition of the nests"),
            FuseError::Illegal { pair, blocker } => {
                write!(f, "nests {} and {} may not fuse: {blocker:?}", pair.0, pair.1)
            }
            FuseError::OrderViolation { src, dst } => write!(
                f,
                "dependence from nest {src} to nest {dst} flows backwards across the groups"
            ),
        }
    }
}

impl std::error::Error for FuseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_ir::builder::*;
    use mbb_ir::interp;

    /// Two conforming producer/consumer loops plus a reduction loop.
    fn three_loop_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new("three");
        let a = b.array_zero("a", &[n]);
        let out = b.array_out("o", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let i = b.var("i");
        let j = b.var("j");
        let k = b.var("k");
        let hi = n as i64 - 1;
        b.nest("produce", &[(i, 0, hi)], vec![assign(a.at([v(i)]), lit(2.0))]);
        b.nest("consume", &[(j, 0, hi)], vec![assign(out.at([v(j)]), ld(a.at([v(j)])) * lit(3.0))]);
        b.nest("reduce", &[(k, 0, hi)], vec![accumulate(s, ld(out.at([v(k)])))]);
        b.finish()
    }

    #[test]
    fn fuse_all_three_preserves_semantics() {
        let p = three_loop_program(32);
        let before = interp::run(&p).unwrap();
        let fused = fuse_nests(&p, &[vec![0, 1, 2]]).unwrap();
        assert_eq!(fused.nests.len(), 1);
        mbb_ir::validate(&fused).unwrap();
        let after = interp::run(&fused).unwrap();
        assert!(before.observation.approx_eq(&after.observation, 1e-12));
        // Same work, one nest.
        assert_eq!(before.stats.flops, after.stats.flops);
    }

    #[test]
    fn fuse_respects_group_sequence() {
        let p = three_loop_program(16);
        let fused = fuse_nests(&p, &[vec![0], vec![1, 2]]).unwrap();
        assert_eq!(fused.nests.len(), 2);
        let after = interp::run(&fused).unwrap();
        let before = interp::run(&p).unwrap();
        assert!(before.observation.approx_eq(&after.observation, 1e-12));
    }

    #[test]
    fn backward_dependence_rejected() {
        let p = three_loop_program(16);
        // Putting the consumer's group before the producer's violates the
        // flow dependence.
        let err = fuse_nests(&p, &[vec![1, 2], vec![0]]).unwrap_err();
        assert!(matches!(err, FuseError::OrderViolation { .. }));
    }

    #[test]
    fn non_partition_rejected() {
        let p = three_loop_program(16);
        assert!(matches!(fuse_nests(&p, &[vec![0, 1]]), Err(FuseError::NotAPartition)));
        assert!(matches!(fuse_nests(&p, &[vec![0, 0, 1, 2]]), Err(FuseError::NotAPartition)));
        let with_empty = [vec![0, 1, 2], vec![]];
        assert!(matches!(fuse_nests(&p, &with_empty), Err(FuseError::NotAPartition)));
    }

    #[test]
    fn illegal_pair_reported() {
        let mut p = three_loop_program(16);
        p.fusion_preventing.push((0, 1));
        let err = fuse_nests(&p, &[vec![0, 1], vec![2]]).unwrap_err();
        assert_eq!(err, FuseError::Illegal { pair: (0, 1), blocker: FusionBlocker::Explicit });
    }

    #[test]
    fn fusion_renames_permuted_loop_vars() {
        // Nest 2 uses (x, y) where nest 1 uses (y, x)-shaped headers; the
        // fresh-variable renaming must not tangle them.
        let n = 8usize;
        let mut b = ProgramBuilder::new("perm");
        let a = b.array_zero("a", &[n, n]);
        let o = b.array_out("o", &[n, n]);
        let (i, j) = (b.var("i"), b.var("j"));
        let (x, y) = (b.var("x"), b.var("y"));
        let hi = n as i64 - 1;
        b.nest("w", &[(j, 0, hi), (i, 0, hi)], vec![assign(a.at([v(i), v(j)]), lit(1.0))]);
        b.nest(
            "r",
            &[(y, 0, hi), (x, 0, hi)],
            vec![assign(o.at([v(x), v(y)]), ld(a.at([v(x), v(y)])))],
        );
        let p = b.finish();
        let before = interp::run(&p).unwrap();
        let fused = fuse_nests(&p, &[vec![0, 1]]).unwrap();
        mbb_ir::validate(&fused).unwrap();
        let after = interp::run(&fused).unwrap();
        assert!(before.observation.approx_eq(&after.observation, 0.0));
    }

    #[test]
    fn peeling_preserves_semantics_and_enables_fusion() {
        // init over 0..n-1, compute over 1..n-1: peel one iteration of init,
        // then the remainders conform and fuse.
        let n = 24usize;
        let mut b = ProgramBuilder::new("peel");
        let a = b.array_zero("a", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let i = b.var("i");
        let j = b.var("j");
        b.nest("init", &[(i, 0, n as i64 - 1)], vec![assign(a.at([v(i)]), lit(1.0))]);
        b.nest("use", &[(j, 1, n as i64 - 1)], vec![accumulate(s, ld(a.at([v(j) - 1])))]);
        let p = b.finish();
        let before = interp::run(&p).unwrap();

        let peeled = peel_front_iterations(&p, 0, 1);
        assert_eq!(peeled.nests.len(), 3);
        let mid = interp::run(&peeled).unwrap();
        assert!(before.observation.approx_eq(&mid.observation, 0.0));

        // Now nests 1 ("init" rest, 1..n-1) and 2 ("use", 1..n-1) conform.
        let fused = fuse_nests(&peeled, &[vec![0], vec![1, 2]]).unwrap();
        let after = interp::run(&fused).unwrap();
        assert!(before.observation.approx_eq(&after.observation, 0.0));
    }

    #[test]
    fn peeling_reindexes_fusion_preventing_edges() {
        let mut p = three_loop_program(8);
        p.fusion_preventing.push((0, 2));
        let peeled = peel_front_iterations(&p, 1, 2);
        assert!(peeled.fusion_prevented(0, 3));
        assert!(!peeled.fusion_prevented(0, 2));
    }
}
