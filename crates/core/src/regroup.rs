//! Inter-array data regrouping.
//!
//! The paper's §4 places this pass in the complete compiler strategy of
//! Ding's dissertation: after loop fusion improves *temporal* reuse,
//! regrouping improves *spatial* reuse by interleaving arrays that are
//! always accessed together — `x[i], y[i], z[i]` become one array
//! `grp[3, i]`, so a fetched cache line carries all three operands of an
//! iteration instead of one, and the three separate streams (which can
//! conflict in a low-associativity cache) become one.
//!
//! Regrouping is a pure storage re-map: element `m` of member `k` lives at
//! `grp[k, m]`.  It is semantics-preserving whenever the members are not
//! individually observable (`live_out`); live-in contents are preserved
//! exactly via [`Init::HashInterleaved`].  *Profitability* is where the
//! analysis lives: [`regroup_candidates`] proposes maximal groups of
//! same-shaped arrays that are referenced in exactly the same nests
//! (co-access), which is the dissertation's criterion.

use std::collections::BTreeSet;

use mbb_ir::deps::nest_access;
use mbb_ir::expr::{Ref, Sub};
use mbb_ir::program::{ArrayDecl, ArrayId, Init, Program};

/// Why a set of arrays cannot be regrouped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegroupError {
    /// Fewer than two members.
    TooFew,
    /// Members disagree on shape.
    ShapeMismatch,
    /// A member is observable output.
    LiveOut,
    /// A member has an initialisation the transform cannot interleave
    /// (peeled sections, already-regrouped arrays with zero/hash mixes).
    UnsupportedInit,
    /// Duplicate member.
    Duplicate,
}

/// The record of one applied regrouping.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegroupAction {
    /// Names of the member arrays, in member order.
    pub members: Vec<String>,
    /// Name of the interleaved array.
    pub grouped: String,
}

/// Regroups `members` (same shape, not live-out) into one interleaved
/// array with a new leading (fastest-varying) member dimension.
pub fn regroup(
    prog: &Program,
    members: &[ArrayId],
) -> Result<(Program, RegroupAction), RegroupError> {
    if members.len() < 2 {
        return Err(RegroupError::TooFew);
    }
    let set: BTreeSet<ArrayId> = members.iter().copied().collect();
    if set.len() != members.len() {
        return Err(RegroupError::Duplicate);
    }
    let dims = prog.array(members[0]).dims.clone();
    let mut sources = Vec::with_capacity(members.len());
    let mut all_zero = true;
    let mut all_hash = true;
    for &m in members {
        let d = prog.array(m);
        if d.dims != dims {
            return Err(RegroupError::ShapeMismatch);
        }
        if d.live_out {
            return Err(RegroupError::LiveOut);
        }
        match d.init {
            Init::Zero => all_hash = false,
            Init::Hash => all_zero = false,
            _ => return Err(RegroupError::UnsupportedInit),
        }
        sources.push(d.source);
    }
    let init = if all_zero {
        Init::Zero
    } else if all_hash {
        Init::HashInterleaved { sources }
    } else {
        return Err(RegroupError::UnsupportedInit);
    };

    let mut out = prog.clone();
    let mut name = format!(
        "grp_{}",
        members.iter().map(|&m| prog.array(m).name.as_str()).collect::<Vec<_>>().join("_")
    );
    while out.arrays.iter().any(|a| a.name == name) || out.scalars.iter().any(|s| s.name == name) {
        name.push('_');
    }
    let mut grouped_dims = vec![members.len()];
    grouped_dims.extend(&dims);
    let source = out.fresh_source();
    let grouped = out.add_array(ArrayDecl {
        name: name.clone(),
        dims: grouped_dims,
        init,
        live_out: false,
        source,
    });

    // Rewrite every reference: member k's subs → [k, subs…].
    let member_index = |a: ArrayId| members.iter().position(|&m| m == a);
    for nest in &mut out.nests {
        nest.body = nest
            .body
            .iter()
            .map(|st| {
                st.map_refs(&mut |r| match r {
                    Ref::Element(a, subs) => match member_index(*a) {
                        Some(k) => {
                            let mut new_subs = Vec::with_capacity(subs.len() + 1);
                            new_subs.push(Sub::plain(k as i64));
                            new_subs.extend(subs.iter().cloned());
                            Ref::Element(grouped, new_subs)
                        }
                        None => r.clone(),
                    },
                    other => other.clone(),
                })
            })
            .collect();
    }

    // Drop the member declarations (highest id first so indices stay valid).
    let mut ids: Vec<ArrayId> = members.to_vec();
    ids.sort_unstable_by(|a, b| b.cmp(a));
    for id in ids {
        out = crate::storage::remove_array(&out, id);
    }
    let action = RegroupAction {
        members: members.iter().map(|&m| prog.array(m).name.clone()).collect(),
        grouped: name,
    };
    Ok((out, action))
}

/// Proposes regrouping candidates: maximal sets of same-shaped,
/// non-live-out, plain-init arrays referenced in exactly the same set of
/// nests (the dissertation's "always accessed together" criterion).
pub fn regroup_candidates(prog: &Program) -> Vec<Vec<ArrayId>> {
    let access: Vec<_> = prog.nests.iter().map(nest_access).collect();
    let signature = |a: ArrayId| -> (Vec<usize>, Vec<usize>) {
        let nests: Vec<usize> = access
            .iter()
            .enumerate()
            .filter(|(_, acc)| acc.arrays_touched().contains(&a))
            .map(|(k, _)| k)
            .collect();
        (prog.array(a).dims.clone(), nests)
    };
    type Signature = (Vec<usize>, Vec<usize>);
    let mut groups: Vec<(Signature, Vec<ArrayId>)> = Vec::new();
    for k in 0..prog.arrays.len() {
        let id = ArrayId(k as u32);
        let d = prog.array(id);
        if d.live_out || !matches!(d.init, Init::Zero | Init::Hash) {
            continue;
        }
        let sig = signature(id);
        if sig.1.is_empty() {
            continue;
        }
        match groups.iter_mut().find(|(s, _)| *s == sig) {
            Some((_, g)) => g.push(id),
            None => groups.push((sig, vec![id])),
        }
    }
    groups.into_iter().filter(|(_, g)| g.len() >= 2).map(|(_, g)| g).collect()
}

/// Applies regrouping to every candidate group; returns the transformed
/// program and the actions taken.
pub fn regroup_all(prog: &Program) -> (Program, Vec<RegroupAction>) {
    let mut cur = prog.clone();
    let mut actions = Vec::new();
    while let Some(group) = regroup_candidates(&cur).into_iter().next() {
        match regroup(&cur, &group) {
            Ok((next, action)) => {
                actions.push(action);
                cur = next;
            }
            Err(_) => break,
        }
    }
    (cur, actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_ir::builder::*;
    use mbb_ir::{interp, validate};

    /// `s += x[i] + y[i] + z[i]` — three co-accessed live-in streams.
    fn three_stream(n: usize) -> mbb_ir::Program {
        let mut b = ProgramBuilder::new("ts");
        let x = b.array_in("x", &[n]);
        let y = b.array_in("y", &[n]);
        let z = b.array_in("z", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let i = b.var("i");
        b.nest(
            "k",
            &[(i, 0, n as i64 - 1)],
            vec![accumulate(s, ld(x.at([v(i)])) + ld(y.at([v(i)])) + ld(z.at([v(i)])))],
        );
        b.finish()
    }

    #[test]
    fn regroup_preserves_semantics_including_live_in_values() {
        let p = three_stream(64);
        let groups = regroup_candidates(&p);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
        let (q, action) = regroup(&p, &groups[0]).unwrap();
        validate::validate(&q).unwrap();
        assert_eq!(q.arrays.len(), 1);
        assert_eq!(q.arrays[0].dims, vec![3, 64]);
        assert_eq!(action.members, vec!["x", "y", "z"]);
        let (rp, rq) = (interp::run(&p).unwrap(), interp::run(&q).unwrap());
        assert!(
            rp.observation.approx_eq(&rq.observation, 0.0),
            "{:?} vs {:?}",
            rp.observation,
            rq.observation
        );
    }

    #[test]
    fn regrouped_layout_is_interleaved() {
        // Member k element m must land at linear position m*3 + k (member
        // dimension fastest-varying).
        let p = three_stream(8);
        let (q, _) =
            regroup(&p, &[mbb_ir::ArrayId(0), mbb_ir::ArrayId(1), mbb_ir::ArrayId(2)]).unwrap();
        let mut sink = mbb_ir::trace::VecSink::new();
        mbb_ir::interp::Interpreter::new(&q).run(&mut sink).unwrap();
        // Per iteration the three loads are 8 bytes apart — one line.
        let ev = &sink.events;
        assert_eq!(ev[1].addr - ev[0].addr, 8);
        assert_eq!(ev[2].addr - ev[1].addr, 8);
    }

    #[test]
    fn live_out_members_are_refused() {
        let n = 16usize;
        let mut b = ProgramBuilder::new("lo");
        let x = b.array_in("x", &[n]);
        let y = b.array_out("y", &[n]);
        let i = b.var("i");
        b.nest("k", &[(i, 0, n as i64 - 1)], vec![assign(y.at([v(i)]), ld(x.at([v(i)])))]);
        let p = b.finish();
        assert_eq!(regroup(&p, &[x, y]).err(), Some(RegroupError::LiveOut));
    }

    #[test]
    fn shape_mismatch_refused() {
        let mut b = ProgramBuilder::new("sm");
        let x = b.array_in("x", &[8]);
        let y = b.array_in("y", &[16]);
        let s = b.scalar("s", 0.0);
        let i = b.var("i");
        b.nest("k", &[(i, 0, 7)], vec![accumulate(s, ld(x.at([v(i)])) + ld(y.at([v(i)])))]);
        let p = b.finish();
        assert_eq!(regroup(&p, &[x, y]).err(), Some(RegroupError::ShapeMismatch));
    }

    #[test]
    fn candidates_respect_co_access() {
        // x, y co-accessed in nest 0; z alone in nest 1: only {x, y} group.
        let n = 8usize;
        let mut b = ProgramBuilder::new("ca");
        let x = b.array_in("x", &[n]);
        let y = b.array_in("y", &[n]);
        let z = b.array_in("z", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest("k0", &[(i, 0, 7)], vec![accumulate(s, ld(x.at([v(i)])) + ld(y.at([v(i)])))]);
        b.nest("k1", &[(j, 0, 7)], vec![accumulate(s, ld(z.at([v(j)])))]);
        let p = b.finish();
        let groups = regroup_candidates(&p);
        assert_eq!(groups, vec![vec![x, y]]);
        let _ = z;
    }

    #[test]
    fn regroup_all_handles_multiple_groups() {
        let n = 8usize;
        let mut b = ProgramBuilder::new("mg");
        let x = b.array_in("x", &[n]);
        let y = b.array_in("y", &[n]);
        let u = b.array_in("u", &[n, n]);
        let w = b.array_in("w", &[n, n]);
        let s = b.scalar_printed("s", 0.0);
        let (i, j, k) = (b.var("i"), b.var("j"), b.var("k"));
        b.nest("k0", &[(i, 0, 7)], vec![accumulate(s, ld(x.at([v(i)])) + ld(y.at([v(i)])))]);
        b.nest(
            "k1",
            &[(k, 0, 7), (j, 0, 7)],
            vec![accumulate(s, ld(u.at([v(j), v(k)])) + ld(w.at([v(j), v(k)])))],
        );
        let p = b.finish();
        let before = interp::run(&p).unwrap();
        let (q, actions) = regroup_all(&p);
        assert_eq!(actions.len(), 2);
        assert_eq!(q.arrays.len(), 2);
        let after = interp::run(&q).unwrap();
        assert!(before.observation.approx_eq(&after.observation, 0.0));
    }

    #[test]
    fn regrouping_removes_direct_mapped_conflicts() {
        // Three page-aligned streams on a direct-mapped cache conflict;
        // regrouped into one stream they cannot.
        let n = 1 << 14;
        let p = three_stream(n);
        let (q, _) = regroup_all(&p);
        let traffic = |prog: &mbb_ir::Program| {
            let m = mbb_memsim::machine::MachineModel::exemplar();
            let lay = mbb_ir::interp::LayoutOpts { base: 0x10_0000, align: 64 * 1024, pad: 0 };
            let mut h = m.hierarchy();
            mbb_ir::interp::Interpreter::with_layout(prog, lay).run(&mut h).unwrap();
            h.flush();
            h.report().mem_bytes()
        };
        let before = traffic(&p);
        let after = traffic(&q);
        assert!(after <= before, "regrouping must not add traffic: {before} -> {after}");
    }
}
