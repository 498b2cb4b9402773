//! Property-based end-to-end test: random loop programs survive the full
//! compiler strategy (fusion → storage reduction → store elimination) with
//! observable behaviour intact, valid IR, never-increased storage, and a
//! fusion objective that never gets worse.

use mbb::core::fusion::{
    build_fusion_graph, check_legal, exhaustive_min_bandwidth, greedy_fusion,
    recursive_bisection_fusion, reorder_topologically, total_distinct_arrays, Partitioning,
};
use mbb::core::pipeline::{optimize, verify_equivalent, OptimizeOptions};
use mbb::ir::builder::*;
use mbb::ir::{validate, CmpOp, Program};
use proptest::prelude::*;

/// One random nest's recipe.
#[derive(Clone, Debug)]
enum NestKind {
    /// `dst[i] = src[i ± off] op src2[i]`.
    Pointwise { dst: usize, src: usize, src2: usize, off_back: bool },
    /// `sum += src[i]`.
    Reduce { src: usize },
    /// `dst[i] = dst[i] + src[i]` (update in place).
    Update { dst: usize, src: usize },
}

fn arb_nest(arrays: usize) -> impl Strategy<Value = NestKind> {
    prop_oneof![
        (0..arrays, 0..arrays, 0..arrays, any::<bool>()).prop_map(|(dst, src, src2, off_back)| {
            NestKind::Pointwise { dst, src, src2, off_back }
        }),
        (0..arrays).prop_map(|src| NestKind::Reduce { src }),
        (0..arrays, 0..arrays).prop_map(|(dst, src)| NestKind::Update { dst, src }),
    ]
}

fn build(nests: &[NestKind], live_out_mask: u8, n: usize) -> Program {
    let arrays = 4usize;
    let mut b = ProgramBuilder::new("random");
    let pool: Vec<_> = (0..arrays)
        .map(|k| {
            let live = live_out_mask & (1 << k) != 0;
            b.array_with(format!("a{k}"), &[n], mbb::ir::Init::Hash, live)
        })
        .collect();
    let sum = b.scalar_printed("sum", 0.0);
    let hi = n as i64 - 1;
    for (k, nest) in nests.iter().enumerate() {
        let i = b.var(format!("i{k}"));
        let body = match *nest {
            NestKind::Pointwise { dst, src, src2, off_back } => {
                let read = if off_back {
                    // Guarded backward offset keeps subscripts in bounds.
                    ld(pool[src].at([v(i) - 1]))
                } else {
                    ld(pool[src].at([v(i)]))
                };
                let stmt =
                    assign(pool[dst].at([v(i)]), read + ld(pool[src2].at([v(i)])) * lit(0.5));
                if off_back {
                    vec![if_else(
                        cmp(v(i), CmpOp::Ge, c(1)),
                        vec![stmt],
                        vec![assign(pool[dst].at([v(i)]), ld(pool[src2].at([v(i)])))],
                    )]
                } else {
                    vec![stmt]
                }
            }
            NestKind::Reduce { src } => vec![accumulate(sum, ld(pool[src].at([v(i)])))],
            NestKind::Update { dst, src } => vec![assign(
                pool[dst].at([v(i)]),
                ld(pool[dst].at([v(i)])) + ld(pool[src].at([v(i)])),
            )],
        };
        b.nest(format!("n{k}"), &[(i, 0, hi)], body);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn optimize_preserves_semantics(
        nests in proptest::collection::vec(arb_nest(4), 1..6),
        live_out_mask in 0u8..16,
    ) {
        let p = build(&nests, live_out_mask, 24);
        validate::validate(&p).unwrap();
        let out = optimize(&p, OptimizeOptions::default());
        validate::validate(&out.program).unwrap();
        if let Err(d) = verify_equivalent(&p, &out.program, 1e-9) {
            panic!(
                "not equivalent: {d}\nbefore:\n{}\nafter:\n{}",
                mbb::ir::pretty::program(&p),
                mbb::ir::pretty::program(&out.program)
            );
        }
        prop_assert!(out.storage_after <= out.storage_before);
        prop_assert!(out.arrays_cost_after <= out.arrays_cost_before);
    }

    #[test]
    fn greedy_fusion_is_legal_and_never_worse_than_unfused(
        nests in proptest::collection::vec(arb_nest(4), 1..7),
        live_out_mask in 0u8..16,
    ) {
        let p = build(&nests, live_out_mask, 16);
        let g = build_fusion_graph(&p);
        let greedy = greedy_fusion(&g);
        prop_assert!(check_legal(&g, &greedy).is_ok());
        let unfused = total_distinct_arrays(&g, &Partitioning::unfused(g.n));
        prop_assert!(total_distinct_arrays(&g, &greedy) <= unfused);
    }

    #[test]
    fn exhaustive_is_at_least_as_good_as_greedy(
        nests in proptest::collection::vec(arb_nest(3), 1..5),
        live_out_mask in 0u8..8,
    ) {
        let p = build(&nests, live_out_mask, 16);
        let g = build_fusion_graph(&p);
        let (_, best) = exhaustive_min_bandwidth(&g);
        let greedy = total_distinct_arrays(&g, &greedy_fusion(&g));
        prop_assert!(best <= greedy);
    }

    /// Every strategy returns a legal partitioning already in the one
    /// group order (a fixed point of `reorder_topologically`), and every
    /// one the IR accepts runs to the same observations.
    #[test]
    fn every_fusion_strategy_output_is_runnable(
        nests in proptest::collection::vec(arb_nest(4), 1..5),
    ) {
        let p = build(&nests, 0b0101, 16);
        let g = build_fusion_graph(&p);
        let strategies =
            [greedy_fusion(&g), recursive_bisection_fusion(&g), exhaustive_min_bandwidth(&g).0];
        for part in strategies {
            prop_assert!(check_legal(&g, &part).is_ok(), "{:?}", part);
            prop_assert_eq!(reorder_topologically(&g, &part.groups).as_ref(), Some(&part));
            if let Ok(fused) = mbb::core::fusion::apply(&p, &part) {
                validate::validate(&fused).unwrap();
                prop_assert!(verify_equivalent(&p, &fused, 1e-9).is_ok());
            }
        }
    }
}

mod interchange_props {
    use mbb::core::interchange::interchange;
    use mbb::core::pipeline::verify_equivalent;
    use mbb::ir::builder::*;
    use proptest::prelude::*;

    /// Random 2-deep nest over a[i±di, j±dj] reads with a write at [i,j].
    fn build(di: i64, dj: i64, guard: bool, n: usize) -> mbb::ir::Program {
        let hi = n as i64 - 2;
        let mut b = ProgramBuilder::new("icp");
        let a = b.array_out("a", &[n, n]);
        let s = b.scalar_printed("s", 0.0);
        let (i, j) = (b.var("i"), b.var("j"));
        let read = ld(a.at([v(i) + di, v(j) + dj]));
        let stmt = assign(a.at([v(i), v(j)]), read * lit(0.5));
        let body = if guard {
            vec![
                if_then(cmp(v(i), mbb::ir::CmpOp::Ge, c(1)), vec![stmt]),
                accumulate(s, ld(a.at([v(i), v(j)]))),
            ]
        } else {
            vec![stmt, accumulate(s, ld(a.at([v(i), v(j)])))]
        };
        b.nest("k", &[(j, 1, hi), (i, 1, hi)], body);
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whenever the legality test admits an interchange, the permuted
        /// program computes the same result; rejections are never checked
        /// for false positives here (conservatism is allowed), but accepted
        /// permutations must be sound.
        #[test]
        fn accepted_interchanges_are_sound(
            di in -1i64..=1,
            dj in -1i64..=1,
            guard in proptest::bool::ANY,
        ) {
            let p = build(di, dj, guard, 8);
            if let Ok(q) = interchange(&p, 0, &[1, 0]) {
                mbb::ir::validate::validate(&q).unwrap();
                if let Err(d) = verify_equivalent(&p, &q, 1e-12) {
                    panic!("unsound interchange for (di={di}, dj={dj}, guard={guard}): {d}");
                }
            }
        }
    }
}
