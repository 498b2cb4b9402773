//! Bandwidth-oriented performance advice.
//!
//! The paper's §4 sketches "bandwidth-based performance tuning and
//! prediction" as the user-facing end of the compiler strategy.  This
//! module is that tool: given a program and a machine, it diagnoses the
//! binding resource and enumerates what each transformation could do —
//! including *why* a transformation does not apply, using the analyses'
//! blocker diagnostics, so a user knows what to restructure by hand.

use std::fmt;

use mbb_ir::program::{ArrayId, Program};
use mbb_ir::ranges::{contraction_plan, ContractBlocker};
use mbb_memsim::machine::MachineModel;
use mbb_memsim::timing::{predict, Bottleneck};

use crate::balance::{measure_program_balance, ratios};
use crate::fusion::{build_fusion_graph, greedy_fusion, total_distinct_arrays, Partitioning};
use crate::regroup::regroup_candidates;
use crate::stores::{can_eliminate, StoreBlocker};

/// One piece of advice about a specific array.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ArrayFinding {
    /// The array can be contracted to this many bytes (0 = a register).
    Contractible {
        /// The array's name.
        array: String,
        /// Current bytes.
        from_bytes: usize,
        /// Bytes after contraction.
        to_bytes: usize,
    },
    /// Contraction is blocked; the blocker says what to change.
    ContractionBlocked {
        /// The array's name.
        array: String,
        /// The analysis blocker.
        blocker: ContractBlocker,
    },
    /// The array's writebacks can be eliminated.
    StoresEliminable {
        /// The array's name.
        array: String,
    },
    /// Store elimination is blocked.
    StoresBlocked {
        /// The array's name.
        array: String,
        /// The blocker.
        blocker: StoreBlocker,
    },
}

/// The full advice report.
#[derive(Clone, Debug)]
pub struct Advice {
    /// Workload name.
    pub program: String,
    /// Machine name.
    pub machine: String,
    /// Which resource binds execution time today.
    pub bottleneck: String,
    /// Demand/supply ratio of the binding channel.
    pub max_ratio: f64,
    /// Upper bound on CPU utilisation.
    pub cpu_utilization_bound: f64,
    /// Array loads before and after greedy fusion (the paper's objective).
    pub fusion_arrays: (u64, u64),
    /// Per-array findings.
    pub arrays: Vec<ArrayFinding>,
    /// Regrouping candidates (member-name lists).
    pub regroup_groups: Vec<Vec<String>>,
    /// Profitable loop interchanges: `(nest name, permutation, memory
    /// balance before → after)`.
    pub interchanges: Vec<(String, Vec<usize>, f64, f64)>,
}

impl fmt::Display for Advice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "advice for `{}` on {}", self.program, self.machine)?;
        writeln!(
            f,
            "  bottleneck: {} at {:.1}× over supply (CPU ≤ {:.0}%)",
            self.bottleneck,
            self.max_ratio,
            self.cpu_utilization_bound * 100.0
        )?;
        let (before, after) = self.fusion_arrays;
        if after < before {
            writeln!(f, "  fusion: array loads {before} → {after} under greedy fusion")?;
        } else {
            writeln!(f, "  fusion: no profitable merges found")?;
        }
        for a in &self.arrays {
            match a {
                ArrayFinding::Contractible { array, from_bytes, to_bytes } => {
                    writeln!(f, "  shrink `{array}`: {from_bytes} B → {to_bytes} B")?
                }
                ArrayFinding::ContractionBlocked { array, blocker } => {
                    writeln!(f, "  `{array}` not shrinkable: {blocker:?}")?
                }
                ArrayFinding::StoresEliminable { array } => {
                    writeln!(f, "  eliminate stores of `{array}` (writebacks are dead)")?
                }
                ArrayFinding::StoresBlocked { array, blocker } => {
                    writeln!(f, "  stores of `{array}` needed: {blocker:?}")?
                }
            }
        }
        for g in &self.regroup_groups {
            writeln!(f, "  regroup {{{}}} into one interleaved array", g.join(", "))?;
        }
        for (nest, perm, before, after) in &self.interchanges {
            writeln!(
                f,
                "  interchange `{nest}` to order {perm:?}: memory balance {before:.2} → {after:.2} B/flop"
            )?;
        }
        Ok(())
    }
}

/// Produces advice for a program on a machine.
///
/// Array findings are computed on the *greedily fused* program — fusion is
/// what localises live ranges, so pre-fusion blockers like
/// `ContractBlocker::NotLocal` would mislead.
pub fn advise(prog: &Program, machine: &MachineModel) -> Result<Advice, String> {
    let balance = measure_program_balance(prog, machine).map_err(|e| e.to_string())?;
    let r = ratios(&balance, machine);
    let pred = predict(machine, &balance.report, balance.flops);
    let bottleneck = match pred.bottleneck {
        Bottleneck::Compute => "compute".to_string(),
        Bottleneck::Channel(k) if k + 1 == machine.bandwidth_mbs.len() => "memory".to_string(),
        Bottleneck::Channel(0) => "register bandwidth".to_string(),
        Bottleneck::Channel(k) => format!("cache level {k} bandwidth"),
    };

    let graph = build_fusion_graph(prog);
    let unfused = total_distinct_arrays(&graph, &Partitioning::unfused(graph.n));
    let part = greedy_fusion(&graph);
    let fused_cost = total_distinct_arrays(&graph, &part);
    let fused_prog = crate::fusion::apply(prog, &part).unwrap_or_else(|_| prog.clone());

    let mut arrays = Vec::new();
    for k in 0..fused_prog.arrays.len() {
        let id = ArrayId(k as u32);
        let decl = fused_prog.array(id);
        match contraction_plan(&fused_prog, id) {
            Ok(plan) if plan.total_slots() * 8 < decl.bytes() => {
                arrays.push(ArrayFinding::Contractible {
                    array: decl.name.clone(),
                    from_bytes: decl.bytes(),
                    to_bytes: if plan.is_scalar() { 0 } else { plan.total_slots() * 8 },
                });
                continue;
            }
            Ok(_) => {}
            Err(blocker) => {
                // Only surface blockers for arrays someone might expect to
                // shrink: written, not observable.
                if !decl.live_out && !matches!(blocker, ContractBlocker::LiveInRead) {
                    arrays.push(ArrayFinding::ContractionBlocked {
                        array: decl.name.clone(),
                        blocker,
                    });
                }
            }
        }
        match can_eliminate(&fused_prog, id) {
            Ok(_) => arrays.push(ArrayFinding::StoresEliminable { array: decl.name.clone() }),
            Err(StoreBlocker::NotSingleWriterNest) | Err(StoreBlocker::LiveOut) => {}
            Err(blocker) => {
                arrays.push(ArrayFinding::StoresBlocked { array: decl.name.clone(), blocker })
            }
        }
    }

    // Loop-order tuning: worth reporting when a legal permutation cuts the
    // memory balance by ≥ 10 %.
    let mut interchanges = Vec::new();
    let base_memory = balance.memory();
    for k in 0..prog.nests.len() {
        let depth = prog.nests[k].loops.len();
        if !(2..=4).contains(&depth) {
            continue;
        }
        let (_, perm, cost) = crate::interchange::auto_interchange(prog, k, machine);
        let identity: Vec<usize> = (0..depth).collect();
        if perm != identity && cost < 0.9 * base_memory {
            interchanges.push((prog.nests[k].name.clone(), perm, base_memory, cost));
        }
    }

    let regroup_groups = regroup_candidates(prog)
        .into_iter()
        .map(|g| g.into_iter().map(|id| prog.array(id).name.clone()).collect())
        .collect();

    Ok(Advice {
        program: prog.name.clone(),
        machine: machine.name.clone(),
        bottleneck,
        max_ratio: r.max_ratio,
        cpu_utilization_bound: r.cpu_utilization_bound,
        fusion_arrays: (unfused, fused_cost),
        arrays,
        regroup_groups,
        interchanges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_ir::builder::*;

    #[test]
    fn advises_figure7_store_elimination() {
        let n = 4096usize;
        let mut b = ProgramBuilder::new("fig7");
        let res = b.array_in("res", &[n]);
        let data = b.array_in("data", &[n]);
        let sum = b.scalar_printed("sum", 0.0);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest(
            "update",
            &[(i, 0, n as i64 - 1)],
            vec![assign(res.at([v(i)]), ld(res.at([v(i)])) + ld(data.at([v(i)])))],
        );
        b.nest("reduce", &[(j, 0, n as i64 - 1)], vec![accumulate(sum, ld(res.at([v(j)])))]);
        let p = b.finish();
        let a = advise(&p, &MachineModel::origin2000()).unwrap();
        assert_eq!(a.bottleneck, "memory");
        assert!(a.max_ratio > 5.0);
        assert_eq!(a.fusion_arrays, (3, 2));
        assert!(
            a.arrays
                .iter()
                .any(|f| matches!(f, ArrayFinding::StoresEliminable { array } if array == "res")),
            "{:?}",
            a.arrays
        );
        let text = a.to_string();
        assert!(text.contains("eliminate stores of `res`"), "{text}");
    }

    #[test]
    fn advises_contraction_of_temporaries() {
        let n = 1024usize;
        let mut b = ProgramBuilder::new("tmp");
        let x = b.array_in("x", &[n]);
        let t = b.array_zero("t", &[n]);
        let y = b.array_out("y", &[n]);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest("p", &[(i, 0, n as i64 - 1)], vec![assign(t.at([v(i)]), ld(x.at([v(i)])))]);
        b.nest("c", &[(j, 0, n as i64 - 1)], vec![assign(y.at([v(j)]), ld(t.at([v(j)])))]);
        let p = b.finish();
        let a = advise(&p, &MachineModel::origin2000()).unwrap();
        assert!(a
            .arrays
            .iter()
            .any(|f| matches!(f, ArrayFinding::Contractible { array, to_bytes: 0, .. } if array == "t")),
            "{:?}", a.arrays);
    }

    #[test]
    fn advises_regrouping_of_co_accessed_streams() {
        let n = 256usize;
        let mut b = ProgramBuilder::new("rg");
        let x = b.array_in("x", &[n]);
        let y = b.array_in("y", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let i = b.var("i");
        b.nest(
            "k",
            &[(i, 0, n as i64 - 1)],
            vec![accumulate(s, ld(x.at([v(i)])) * ld(y.at([v(i)])))],
        );
        let p = b.finish();
        let a = advise(&p, &MachineModel::origin2000()).unwrap();
        assert_eq!(a.regroup_groups, vec![vec!["x".to_string(), "y".to_string()]]);
        assert!(a.to_string().contains("regroup {x, y}"));
    }

    #[test]
    fn live_out_array_produces_no_noise() {
        let n = 64usize;
        let mut b = ProgramBuilder::new("lo");
        let y = b.array_out("y", &[n]);
        let i = b.var("i");
        b.nest("w", &[(i, 0, n as i64 - 1)], vec![assign(y.at([v(i)]), lit(1.0))]);
        let p = b.finish();
        let a = advise(&p, &MachineModel::origin2000()).unwrap();
        assert!(a.arrays.is_empty(), "{:?}", a.arrays);
    }
}

#[cfg(test)]
mod interchange_advice_tests {
    use super::*;
    use mbb_ir::builder::*;

    #[test]
    fn advises_interchange_for_bad_loop_order() {
        // Column-major array walked row-major: the tuner should flip it.
        let n = 64usize;
        let hi = n as i64 - 1;
        let mut b = ProgramBuilder::new("rowmajor");
        let a = b.array_in("a", &[n, n]);
        let s = b.scalar_printed("s", 0.0);
        let (i, j) = (b.var("i"), b.var("j"));
        // i outer, j inner → inner stride n (bad).
        b.nest("walk", &[(i, 0, hi), (j, 0, hi)], vec![accumulate(s, ld(a.at([v(i), v(j)])))]);
        let p = b.finish();
        let m = MachineModel::origin2000().scaled_levels(&[16, 64]);
        let advice = advise(&p, &m).unwrap();
        assert_eq!(advice.interchanges.len(), 1, "{advice}");
        let (_, perm, before, after) = &advice.interchanges[0];
        assert_eq!(perm, &vec![1, 0]);
        assert!(after * 2.0 < *before, "{before} -> {after}");
        assert!(advice.to_string().contains("interchange"), "{advice}");
    }

    #[test]
    fn no_interchange_advice_when_order_is_good() {
        let n = 64usize;
        let hi = n as i64 - 1;
        let mut b = ProgramBuilder::new("colmajor");
        let a = b.array_in("a", &[n, n]);
        let s = b.scalar_printed("s", 0.0);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest("walk", &[(j, 0, hi), (i, 0, hi)], vec![accumulate(s, ld(a.at([v(i), v(j)])))]);
        let p = b.finish();
        let m = MachineModel::origin2000().scaled_levels(&[16, 64]);
        let advice = advise(&p, &m).unwrap();
        assert!(advice.interchanges.is_empty(), "{advice}");
    }
}
