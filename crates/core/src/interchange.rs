//! Loop interchange and a bandwidth-guided order auto-tuner.
//!
//! Interchange permutes a nest's loop levels.  Under the balance lens
//! (§2), the loop order decides which array walks with stride one, and the
//! memory balance of e.g. matrix multiply varies ~23× across the six
//! orders (`repro ablations`).  [`auto_interchange`] turns that
//! observation into a tool: enumerate the legal permutations, *measure*
//! each one's memory balance on the simulator, keep the best — the §4
//! "bandwidth-based performance tuning" idea made concrete.
//!
//! Legality is the classical direction-vector test: every dependence's
//! distance vector (per loop level, derived from the `var + c` subscript
//! offsets) must stay lexicographically positive after permutation.
//! Unanalysable subscript shapes conservatively pin the nest to its
//! original order.

use std::collections::BTreeMap;

use mbb_ir::expr::Ref;
use mbb_ir::program::{Program, VarId};
use mbb_memsim::machine::MachineModel;

use crate::balance::measure_program_balance;

/// Why a permutation was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InterchangeError {
    /// `perm` is not a permutation of `0..depth`.
    BadPermutation,
    /// A dependence's distance vector would turn lexicographically
    /// negative.
    DirectionViolated,
    /// A subscript shape the analysis cannot order (conservative).
    Unanalysable,
}

/// Collects the distance vectors (per level) of every intra-nest
/// dependence pair; `Err` when shapes are unsupported.
fn distance_vectors(prog: &Program, nest_idx: usize) -> Result<Vec<Vec<i64>>, InterchangeError> {
    let nest = &prog.nests[nest_idx];
    let depth = nest.loops.len();
    let levels: BTreeMap<VarId, usize> =
        nest.loops.iter().enumerate().map(|(l, lp)| (lp.var, l)).collect();

    // Gather per-array refs: (is_store, per-dim (level, offset) or None).
    #[allow(clippy::type_complexity)]
    let mut refs: Vec<(u32, bool, Option<Vec<(usize, i64)>>)> = Vec::new();
    let mut scalar_rw = false;
    nest.for_each_ref(&mut |r, is_store| match r {
        Ref::Scalar(_) => {
            // Scalar dependences are order-independent within an iteration
            // and carried identically by any order (the whole iteration
            // space is executed either way, sequentially) — but a scalar
            // that is both read and written creates a serialising recurrence
            // whose *order* of combination changes under interchange.
            if is_store {
                scalar_rw = true;
            }
        }
        Ref::Element(a, subs) => {
            let shapes: Option<Vec<(usize, i64)>> = subs
                .iter()
                .map(|s| {
                    let e = s.as_plain()?;
                    if let Some((v, c)) = e.as_var_plus_const() {
                        levels.get(&v).map(|&l| (l, c))
                    } else {
                        e.as_const().map(|_| (usize::MAX, 0))
                    }
                })
                .collect();
            refs.push((a.0, is_store, shapes));
        }
    });
    // A written scalar is tolerated only when it is a pure commuting
    // reduction (every interleaving sums the same values).
    if scalar_rw {
        let all_reductions = (0..prog.scalars.len())
            .all(|s| mbb_ir::deps::scalar_is_pure_reduction(nest, mbb_ir::ScalarId(s as u32)));
        if !all_reductions {
            return Err(InterchangeError::Unanalysable);
        }
    }

    let mut vectors = Vec::new();
    for (k, (arr_a, store_a, shapes_a)) in refs.iter().enumerate() {
        for (arr_b, store_b, shapes_b) in &refs[k..] {
            if arr_a != arr_b || (!store_a && !store_b) {
                continue;
            }
            let (Some(sa), Some(sb)) = (shapes_a, shapes_b) else {
                return Err(InterchangeError::Unanalysable);
            };
            // Distance per level: Δ[l] = offset_a − offset_b where both use
            // level l; constant dims must match structurally (MAX marker).
            let mut delta = vec![0i64; depth];
            let mut ok = true;
            for ((la, ca), (lb, cb)) in sa.iter().zip(sb) {
                if la != lb {
                    ok = false;
                    break;
                }
                if *la != usize::MAX {
                    delta[*la] = ca - cb;
                }
            }
            if !ok {
                return Err(InterchangeError::Unanalysable);
            }
            if delta.iter().any(|&d| d != 0) {
                vectors.push(delta);
            }
        }
    }
    Ok(vectors)
}

/// True when `delta`, read in the order given by `perm` (outermost first),
/// is lexicographically positive, negative or zero — returned as the sign.
fn lex_sign(delta: &[i64], perm: &[usize]) -> i64 {
    for &l in perm {
        if delta[l] != 0 {
            return delta[l].signum();
        }
    }
    0
}

/// Permutes nest `nest_idx`'s loop levels: `perm[k]` is the original level
/// that becomes level `k`.
pub fn interchange(
    prog: &Program,
    nest_idx: usize,
    perm: &[usize],
) -> Result<Program, InterchangeError> {
    let depth = prog.nests[nest_idx].loops.len();
    let mut check: Vec<usize> = perm.to_vec();
    check.sort_unstable();
    if check != (0..depth).collect::<Vec<_>>() {
        return Err(InterchangeError::BadPermutation);
    }
    if perm.iter().enumerate().all(|(k, &l)| k == l) {
        return Ok(prog.clone()); // identity
    }
    // Bounds may only reference outer variables; permuting rectangular
    // constant-bound loops is always structurally fine, otherwise check.
    let nest = &prog.nests[nest_idx];
    for lp in &nest.loops {
        if !(lp.lo.is_const() && lp.hi.is_const()) {
            return Err(InterchangeError::Unanalysable);
        }
    }
    let vectors = distance_vectors(prog, nest_idx)?;
    let identity: Vec<usize> = (0..depth).collect();
    for d in &vectors {
        let before = lex_sign(d, &identity);
        let after = lex_sign(d, perm);
        if before != after {
            return Err(InterchangeError::DirectionViolated);
        }
    }
    let mut out = prog.clone();
    out.nests[nest_idx].loops =
        perm.iter().map(|&l| prog.nests[nest_idx].loops[l].clone()).collect();
    Ok(out)
}

/// Every permutation of `0..n`: each permutation of `0..n-1`, in this
/// order, with `n - 1` inserted at every position from the front, so the
/// identity comes last.  `perm[k]` is the original level that becomes
/// level `k`, as in [`interchange`].
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for pos in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(pos, n - 1);
            out.push(p);
        }
    }
    out
}

/// Tries every legal permutation of the nest's loops, measures the memory
/// balance of the whole program on `machine` for each, and returns the
/// best program with its `(permutation, memory bytes/flop)`.
///
/// Exhaustive in `depth!`; intended for nests of depth ≤ 4.
pub fn auto_interchange(
    prog: &Program,
    nest_idx: usize,
    machine: &MachineModel,
) -> (Program, Vec<usize>, f64) {
    let depth = prog.nests[nest_idx].loops.len();
    assert!(depth <= 4, "auto_interchange enumerates depth! orders");
    let mut best: Option<(Program, Vec<usize>, f64)> = None;
    for perm in permutations(depth) {
        let Ok(candidate) = interchange(prog, nest_idx, &perm) else {
            continue;
        };
        let Ok(balance) = measure_program_balance(&candidate, machine) else {
            continue;
        };
        let cost = balance.memory();
        if best.as_ref().map(|&(_, _, c)| cost < c).unwrap_or(true) {
            best = Some((candidate, perm, cost));
        }
    }
    best.expect("the identity permutation is always legal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::verify_equivalent;
    use mbb_ir::builder::*;

    #[test]
    fn interchange_permutes_and_preserves_semantics() {
        let n = 8usize;
        let hi = n as i64 - 1;
        let mut b = ProgramBuilder::new("ic");
        let a = b.array_out("a", &[n, n]);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest(
            "k",
            &[(j, 0, hi), (i, 0, hi)],
            vec![assign(
                a.at([v(i), v(j)]),
                mbb_ir::Expr::Input(mbb_ir::SourceId(1), vec![v(i), v(j)]),
            )],
        );
        let p = b.finish();
        let q = interchange(&p, 0, &[1, 0]).unwrap();
        assert_eq!(p.nests[0].loops[0].var, q.nests[0].loops[1].var);
        verify_equivalent(&p, &q, 0.0).unwrap();
    }

    #[test]
    fn skewed_dependence_blocks_interchange() {
        // a[i, j] = f(a[i-1, j+1]): distance (Δj, Δi) = (−1, +1) read→write
        // … as a vector over levels (j, i): (+1 at j? ) — concretely, the
        // pair's delta flips lexicographic sign under interchange, which
        // must be rejected.
        let n = 8usize;
        let hi = n as i64 - 1;
        let mut b = ProgramBuilder::new("skew");
        let a = b.array_out("a", &[n + 2, n + 2]);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest(
            "k",
            &[(j, 1, hi), (i, 1, hi)],
            vec![assign(a.at([v(i), v(j)]), ld(a.at([v(i) - 1, v(j) + 1])) * lit(0.5))],
        );
        let p = b.finish();
        assert_eq!(interchange(&p, 0, &[1, 0]).err(), Some(InterchangeError::DirectionViolated));
        // And the legal direction (i outer) would equally be refused from
        // that starting point; identity always works.
        assert!(interchange(&p, 0, &[0, 1]).is_ok());
    }

    #[test]
    fn carried_dependence_in_one_level_permits_interchange_keeping_it_outer() {
        // t[i, j] = t[i, j-1]: carried by j only; (j, i) → (i, j) keeps the
        // j-distance first-nonzero positive (delta only at j), so both
        // orders are legal.
        let n = 6usize;
        let hi = n as i64 - 1;
        let mut b = ProgramBuilder::new("cj");
        let t = b.array_out("t", &[n, n]);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest(
            "k",
            &[(j, 1, hi), (i, 0, hi)],
            vec![assign(t.at([v(i), v(j)]), ld(t.at([v(i), v(j) - 1])) + lit(1.0))],
        );
        let p = b.finish();
        let q = interchange(&p, 0, &[1, 0]).unwrap();
        verify_equivalent(&p, &q, 0.0).unwrap();
    }

    #[test]
    fn permutations_list_every_order_once_with_the_identity_last() {
        assert_eq!(permutations(2), vec![vec![1, 0], vec![0, 1]]);
        let three = permutations(3);
        let distinct: std::collections::BTreeSet<_> = three.iter().collect();
        assert_eq!((three.len(), distinct.len()), (6, 6));
        assert_eq!(three[0], vec![2, 1, 0]);
        assert_eq!(three.last(), Some(&vec![0, 1, 2]));
    }

    #[test]
    fn bad_permutations_rejected() {
        let mut b = ProgramBuilder::new("bp");
        let a = b.array_out("a", &[4, 4]);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest("k", &[(j, 0, 3), (i, 0, 3)], vec![assign(a.at([v(i), v(j)]), lit(1.0))]);
        let p = b.finish();
        assert_eq!(interchange(&p, 0, &[0, 0]).err(), Some(InterchangeError::BadPermutation));
        assert_eq!(interchange(&p, 0, &[0]).err(), Some(InterchangeError::BadPermutation));
    }

    #[test]
    fn auto_interchange_finds_the_stride_one_order_for_mm() {
        use mbb_memsim::machine::MachineModel;
        // Start matrix multiply in the worst order; the tuner must land on
        // a unit-stride inner loop (i innermost), cutting memory balance.
        let m = MachineModel::origin2000().scaled_levels(&[16, 64]);
        let p = mbb_workloads_free::mm_order_free(64, "ijk");
        let before = measure_program_balance(&p, &m).unwrap().memory();
        let (best, perm, cost) = auto_interchange(&p, 0, &m);
        assert!(cost < before * 0.7, "tuned {cost} vs original {before} ({perm:?})");
        verify_equivalent(&p, &best, 1e-12).unwrap();
        // The chosen innermost loop is `i` (the stride-one index of both
        // `c[i,j]` and `a[i,k]`).
        let inner = best.nests[0].loops.last().unwrap().var;
        assert_eq!(best.var_name(inner), "i");
    }

    /// A local mm builder so this crate's tests do not depend on
    /// `mbb-workloads` (which depends on this crate).
    mod mbb_workloads_free {
        use mbb_ir::builder::*;

        pub fn mm_order_free(n: usize, order: &str) -> mbb_ir::Program {
            let mut b = ProgramBuilder::new(format!("mm_{order}"));
            let a = b.array_in("a", &[n, n]);
            let bb = b.array_in("b", &[n, n]);
            let cc = b.array_out("c", &[n, n]);
            let (i, j, k) = (b.var("i"), b.var("j"), b.var("k"));
            let hi = n as i64 - 1;
            let by = |ch: char| match ch {
                'i' => i,
                'j' => j,
                _ => k,
            };
            let loops: Vec<(mbb_ir::VarId, i64, i64)> =
                order.chars().map(|ch| (by(ch), 0, hi)).collect();
            b.nest(
                "mm",
                &loops,
                vec![assign(
                    cc.at([v(i), v(j)]),
                    ld(cc.at([v(i), v(j)])) + ld(a.at([v(i), v(k)])) * ld(bb.at([v(k), v(j)])),
                )],
            );
            b.finish()
        }
    }
}
