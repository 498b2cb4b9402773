//! Property tests for the run-compiled access path.
//!
//! Three contracts under test, all "byte-identical or bust":
//!
//! 1. **Sink level** — for *any* group of strided streams and *any*
//!    hierarchy geometry, [`AccessSink::access_runs`] (the symbolic
//!    per-cache-line walk, with its scalar-replay fallback for windows it
//!    cannot prove) must report identically to the per-element expansion
//!    `refs[j].at(k)` fed through [`AccessSink::access`].  The strategies
//!    deliberately include zero, negative, non-unit and page-crossing
//!    strides, plus bases that wrap `u64` under negative strides, so the
//!    eligibility screen and the fallback path are exercised as often as
//!    the fast path.
//!
//! 2. **Engine level** — a random affine loop nest (depth ≤ 4, mixed
//!    positive/negative/zero subscript coefficients, non-power-of-two
//!    extents, forward and reversed loops) interpreted under the `runs`
//!    engine must produce the same [`TrafficReport`], execution stats and
//!    observation as the `scalar` engine, on every hierarchy in the zoo;
//!    and a trace-only run under either engine must produce the value
//!    run's report and stats.
//!
//! 3. **Trace files** — a stream serialised by [`TraceWriter`] and fed
//!    back through [`replay`] must report identically to feeding the
//!    parsed lines one at a time.
//!
//! 4. **Reset** — a hierarchy that ran a trace and was
//!    [reset](Hierarchy::reset) must simulate the next trace exactly as a
//!    fresh hierarchy does, whether the first trace filled a few sets (the
//!    reset restores those) or every set (the reset restores the level).
//!
//! The zoo holds the two paper machines plus deliberately awkward
//! geometries (non-power-of-two set count, write-through L1, next-line
//! prefetch, shuffled-index L2 with a tiny TLB).

use mbb_ir::builder::{assign, c, ld, lit, ProgramBuilder, RefBuild, ScalarRef};
use mbb_ir::expr::Affine;
use mbb_ir::interp::{Interpreter, LayoutOpts};
use mbb_ir::program::{Loop, Program, VarId};
use mbb_ir::runs::{install, Engine};
use mbb_ir::trace::{Access, AccessKind, AccessSink, RunRef};
use mbb_memsim::cache::{CacheConfig, WritePolicy};
use mbb_memsim::hierarchy::Hierarchy;
use mbb_memsim::machine::MachineModel;
use mbb_memsim::tracefile::{parse_line, replay, TraceWriter};
use proptest::prelude::*;

/// The hierarchy zoo: paper machines plus deliberately awkward geometries.
fn arb_hierarchy() -> impl Strategy<Value = HierarchyRecipe> {
    prop_oneof![
        Just(HierarchyRecipe::Origin),
        Just(HierarchyRecipe::Exemplar),
        Just(HierarchyRecipe::OddSets),
        Just(HierarchyRecipe::WriteThrough),
        Just(HierarchyRecipe::Prefetch),
        Just(HierarchyRecipe::ShuffledTlb),
    ]
}

#[derive(Clone, Copy, Debug)]
enum HierarchyRecipe {
    Origin,
    Exemplar,
    OddSets,
    WriteThrough,
    Prefetch,
    ShuffledTlb,
}

impl HierarchyRecipe {
    fn build(self) -> Hierarchy {
        match self {
            HierarchyRecipe::Origin => MachineModel::origin2000().hierarchy(),
            HierarchyRecipe::Exemplar => MachineModel::exemplar().hierarchy(),
            // 3 sets: exercises the modulo (non-mask) index fallback.
            HierarchyRecipe::OddSets => {
                Hierarchy::new(vec![CacheConfig::write_back("odd", 96, 32, 1)])
            }
            HierarchyRecipe::WriteThrough => Hierarchy::new(vec![
                CacheConfig {
                    name: "wt".into(),
                    size: 256,
                    line: 32,
                    assoc: 2,
                    policy: WritePolicy::WriteThrough,
                    prefetch_next: 0,
                    page_shuffle: None,
                },
                CacheConfig::write_back("L2", 1024, 64, 2),
            ]),
            HierarchyRecipe::Prefetch => Hierarchy::new(vec![
                CacheConfig::write_back("L1", 256, 32, 2).with_prefetch(1),
                CacheConfig::write_back("L2", 2048, 64, 2),
            ]),
            HierarchyRecipe::ShuffledTlb => Hierarchy::new(vec![
                CacheConfig::write_back("L1", 512, 32, 2),
                CacheConfig::write_back("L2", 4096, 128, 2).with_page_shuffle(1024),
            ])
            .with_tlb(4, 1024),
        }
    }
}

/// A recipe for one strided stream within a run group.
#[derive(Clone, Debug)]
struct RunRecipe {
    base: u64,
    stride: i64,
    size: u32,
    write: bool,
}

fn arb_run() -> impl Strategy<Value = RunRecipe> {
    // Strides cover forward/backward unit lines, sub-line steps that keep
    // several iterations on one line, the degenerate loop-invariant zero
    // stride, and page-sized jumps that change the TLB page every
    // iteration.  Negative strides from small bases wrap `u64`, which the
    // eligibility screen must reject into the (equally exact) fallback.
    (
        0u64..16384,
        prop_oneof![
            Just(-4096i64),
            Just(-40),
            Just(-8),
            Just(-3),
            Just(0),
            Just(1),
            Just(8),
            Just(24),
            Just(32),
            Just(4096),
        ],
        prop_oneof![Just(1u32), Just(8u32), Just(32u32)],
        any::<bool>(),
    )
        .prop_map(|(base, stride, size, write)| RunRecipe { base, stride, size, write })
}

/// One access for the trace-file round trip.  Addresses cover a few
/// pages' worth of lines with unaligned offsets; sizes include sub-line,
/// exactly-one-line and straddling multi-line accesses.  The text format
/// has no zero-size events (a missing size reads back as 8).
fn arb_access() -> impl Strategy<Value = Access> {
    (0u64..16384, prop_oneof![Just(1u32), Just(8u32), Just(32u32), Just(100u32)], any::<bool>())
        .prop_map(|(addr, size, write)| Access {
            addr,
            size,
            kind: if write { AccessKind::Write } else { AccessKind::Read },
        })
}

fn to_run_ref(r: &RunRecipe) -> RunRef {
    RunRef {
        base: r.base,
        stride: r.stride,
        size: r.size,
        kind: if r.write { AccessKind::Write } else { AccessKind::Read },
    }
}

/// One random loop of a nest: a trip count (non-power-of-two values
/// included) and a direction.
#[derive(Clone, Debug)]
struct LoopRecipe {
    extent: i64,
    reversed: bool,
}

/// A random affine nest: per-loop extents/directions plus one subscript
/// coefficient vector per array reference.
#[derive(Clone, Debug)]
struct NestRecipe {
    loops: Vec<LoopRecipe>,
    dst_coeffs: Vec<i64>,
    src_coeffs: Vec<i64>,
}

fn arb_nest() -> impl Strategy<Value = NestRecipe> {
    let depth = 1usize..=4;
    depth.prop_flat_map(|d| {
        let loops = proptest::collection::vec(
            (1i64..=7, any::<bool>())
                .prop_map(|(extent, reversed)| LoopRecipe { extent, reversed }),
            d..=d,
        );
        let coeffs = proptest::collection::vec(-3i64..=3, d..=d);
        (loops, coeffs.clone(), coeffs).prop_map(|(loops, dst_coeffs, src_coeffs)| NestRecipe {
            loops,
            dst_coeffs,
            src_coeffs,
        })
    })
}

/// Builds the subscript `Σ coeffᵢ·varᵢ + offset` with the offset chosen so
/// the minimum value over the iteration space is exactly zero, and returns
/// it with the array extent needed to hold the maximum.
fn subscript(coeffs: &[i64], loops: &[LoopRecipe], vars: &[VarId]) -> (Affine, usize) {
    let mut offset = 0i64;
    let mut max = 0i64;
    for (k, l) in loops.iter().enumerate() {
        let reach = coeffs[k].abs() * (l.extent - 1);
        if coeffs[k] < 0 {
            offset += reach;
        }
        max += reach;
    }
    let sub = Affine::new(offset, vars.iter().zip(coeffs).map(|(&v, &a)| (v, a)));
    (sub, (max + 1) as usize)
}

fn build_program(nest: &NestRecipe) -> Program {
    let mut b = ProgramBuilder::new("prop_nest");
    let vars: Vec<VarId> = (0..nest.loops.len()).map(|k| b.var(format!("i{k}"))).collect();
    let (dst_sub, dst_len) = subscript(&nest.dst_coeffs, &nest.loops, &vars);
    let (src_sub, src_len) = subscript(&nest.src_coeffs, &nest.loops, &vars);
    let dst = b.array_out("dst", &[dst_len]);
    let src = b.array_in("src", &[src_len]);
    let acc = b.scalar_printed("acc", 0.0);
    let loops: Vec<Loop> = vars
        .iter()
        .zip(&nest.loops)
        .map(|(&v, l)| {
            if l.reversed {
                Loop { var: v, lo: c(l.extent - 1), hi: c(0), step: -1 }
            } else {
                Loop::new(v, 0, l.extent - 1)
            }
        })
        .collect();
    b.nest_general(
        "body",
        loops,
        vec![
            assign(
                dst.at([dst_sub.clone()]),
                ld(dst.at([dst_sub.clone()])) + ld(src.at([src_sub.clone()])) + lit(0.25),
            ),
            assign(acc.r(), ld(acc.r()) + ld(src.at([src_sub]))),
        ],
    );
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The symbolic group walk reports identically to the element-wise
    /// interleaved expansion it is defined by, with and without a final
    /// flush.
    #[test]
    fn run_group_matches_elementwise_expansion(
        group in proptest::collection::vec(arb_run(), 1..5),
        count in 1u64..200,
        machine in arb_hierarchy(),
        flush in any::<bool>(),
    ) {
        let refs: Vec<RunRef> = group.iter().map(to_run_ref).collect();

        let mut fast = machine.build();
        fast.access_runs(&refs, count);

        let mut scalar = machine.build();
        for k in 0..count {
            for r in &refs {
                scalar.access(r.at(k));
            }
        }

        if flush {
            fast.flush();
            scalar.flush();
        }

        prop_assert_eq!(fast.report(), scalar.report());
    }

    /// Splitting one logical stream across consecutive `access_runs` calls
    /// (warm caches, partial windows at the seams) changes nothing.
    #[test]
    fn split_run_feed_matches_single_feed(
        group in proptest::collection::vec(arb_run(), 1..4),
        count in 2u64..160,
        split in 1u64..159,
        machine in arb_hierarchy(),
    ) {
        let split = split % count;
        let refs: Vec<RunRef> = group.iter().map(to_run_ref).collect();

        let mut whole = machine.build();
        whole.access_runs(&refs, count);

        // Resume each stream at iteration `split` by rebasing.
        let tail: Vec<RunRef> = refs
            .iter()
            .map(|r| RunRef { base: r.at(split).addr, ..*r })
            .collect();
        let mut parts = machine.build();
        if split > 0 {
            parts.access_runs(&refs, split);
        }
        parts.access_runs(&tail, count - split);

        prop_assert_eq!(whole.report(), parts.report());
    }

    /// A random affine nest interpreted under the runs engine is
    /// indistinguishable — traffic report, execution stats, observation —
    /// from the scalar engine, on every hierarchy in the zoo.  A
    /// trace-only run under either engine reports the value run's traffic
    /// and stats, and observes nothing.
    #[test]
    fn nest_under_runs_engine_matches_scalar_engine(
        nest in arb_nest(),
        machine in arb_hierarchy(),
    ) {
        let prog = build_program(&nest);

        let run_with = |engine, values: bool| {
            let _g = install(engine);
            let mut h = machine.build();
            let interp = if values {
                Interpreter::new(&prog)
            } else {
                Interpreter::trace_only(&prog, LayoutOpts::default())
            };
            let r = interp.run(&mut h).expect("valid nest");
            h.flush();
            (h.report(), r.stats, r.observation)
        };

        let (rep_s, stats_s, obs_s) = run_with(Engine::Scalar, true);
        let (rep_r, stats_r, obs_r) = run_with(Engine::Runs, true);

        prop_assert_eq!(&rep_s, &rep_r);
        prop_assert_eq!(stats_s, stats_r);
        prop_assert_eq!(obs_s.diff(&obs_r, 0.0), None);

        for engine in [Engine::Scalar, Engine::Runs] {
            let (rep_t, stats_t, obs_t) = run_with(engine, false);
            prop_assert_eq!(&rep_t, &rep_s, "trace-only report under {}", engine);
            prop_assert_eq!(stats_t, stats_s, "trace-only stats under {}", engine);
            prop_assert!(obs_t.scalars.is_empty() && obs_t.arrays.is_empty());
        }
    }

    /// Trace-file round trip: the parsed lines are the trace, and a replay
    /// reports identically to feeding the trace directly.
    #[test]
    fn tracefile_roundtrip_through_replay(
        trace in proptest::collection::vec(arb_access(), 1..120),
        machine in arb_hierarchy(),
    ) {
        let mut text = Vec::new();
        {
            let mut w = TraceWriter::new(&mut text);
            for &a in &trace {
                w.access(a);
            }
            prop_assert_eq!(w.finish().unwrap(), trace.len() as u64);
        }
        let parsed: Vec<Access> =
            std::str::from_utf8(&text).unwrap().lines().map(|l| parse_line(l).unwrap()).collect();
        prop_assert_eq!(&parsed, &trace);

        let mut replayed = machine.build();
        let n = replay(std::io::BufReader::new(&text[..]), &mut replayed).unwrap();
        prop_assert_eq!(n, trace.len() as u64);

        let mut direct = machine.build();
        for &a in &trace {
            direct.access(a);
        }
        prop_assert_eq!(replayed.report(), direct.report());
    }

    /// A reset hierarchy is a fresh one.  Trace A (a random trace, a short
    /// one, or a write sweep over twice the zoo's largest cache, which
    /// fills every set) runs and the hierarchy is reset; then trace B (A
    /// again, more accesses and a run group) must report exactly what it
    /// reports on a fresh hierarchy: channel bytes, per-level stats and TLB
    /// misses.  So must the flush after it, and a replay of A after the
    /// flush, which runs on the lines and LRU orders the flush order left.
    /// A second reset must hold the same way.
    #[test]
    fn a_reset_hierarchy_simulates_like_a_fresh_one(
        machine in arb_hierarchy(),
        sweep in any::<bool>(),
        a in prop_oneof![
            proptest::collection::vec(arb_access(), 1..4),
            proptest::collection::vec(arb_access(), 1..120),
        ],
        extra in proptest::collection::vec(arb_access(), 0..60),
        group in proptest::collection::vec(arb_run(), 1..4),
        count in 1u64..100,
    ) {
        let refs: Vec<RunRef> = group.iter().map(to_run_ref).collect();
        let feed = |h: &mut Hierarchy, trace: &[Access]| {
            for &x in trace {
                h.access(x);
            }
        };
        let trace_b = |h: &mut Hierarchy| {
            feed(h, &a);
            feed(h, &extra);
            h.access_runs(&refs, count);
        };

        let mut reused = machine.build();
        if sweep {
            // 8 MiB of 32-byte lines: twice the Origin2000's L2.
            let line = RunRef { base: 1 << 24, stride: 32, size: 8, kind: AccessKind::Write };
            reused.access_runs(&[line], (8 << 20) / 32);
        }
        feed(&mut reused, &a);
        for round in 0..2 {
            reused.reset();
            let mut fresh = machine.build();
            trace_b(&mut reused);
            trace_b(&mut fresh);
            prop_assert_eq!(reused.report(), fresh.report(), "round {}", round);
            reused.flush();
            fresh.flush();
            prop_assert_eq!(reused.report(), fresh.report(), "round {} flushed", round);
            feed(&mut reused, &a);
            feed(&mut fresh, &a);
            prop_assert_eq!(reused.report(), fresh.report(), "round {} after the flush", round);
        }
    }
}
