//! Ablations over the design choices DESIGN.md calls out, printed by
//! `repro ablations`.
//!
//! Each ablation varies one mechanism of the machine model, the layout or
//! the program, and prints the traffic or time it moves.  EXPERIMENTS.md
//! cites these tables as the evidence for its mechanism claims:
//!
//! * **Timing mode** — Figure 3's kernels under the pure-bandwidth
//!   bottleneck model and under one with exposed miss latency: the memory
//!   channel saturates under both, though absolute rates shift and one
//!   pair of neighbours swaps places.
//! * **Associativity** — the `3w6r` conflict outlier as a function of the
//!   Exemplar cache's associativity (the paper's footnote, quantified).
//! * **Layout padding** — inter-array padding as a software fix for the
//!   same conflicts.
//! * **Prefetch** — deeper next-line prefetch cuts demand misses but moves
//!   more bytes (§1: latency tolerance trades bandwidth).
//! * **Regrouping** — three page-aligned streams against one interleaved
//!   array.
//! * **Loop order** — matrix multiply's memory balance across all six
//!   loop orders.
//! * **TLB** — the TLB cost of SP's strided `z_solve` sweep.
//!
//! Every table is a pure function of the models, so the output is
//! deterministic under either engine and is pinned by a golden file.

use mbb_core::balance::{measure_program_balance, measure_program_balance_with_layout};
use mbb_ir::interp::LayoutOpts;
use mbb_memsim::machine::MachineModel;
use mbb_memsim::timing::{effective_bandwidth_mbs, predict};
use mbb_workloads::stream_kernels::{kernel_name, stream_kernel, FIGURE3_ORDER};

use crate::table::{f, Table};

/// Elements per stream in the STREAM-style ablation kernels.
const N: usize = 1 << 18;

/// Renders all seven ablation tables, each under its heading.
pub fn render() -> String {
    [timing_mode(), associativity(), padding(), prefetch(), regrouping(), loop_order(), tlb()]
        .concat()
}

fn section(heading: &str, t: &Table) -> String {
    format!("-- ablation: {heading} --\n{}\n", t.render())
}

fn timing_mode() -> String {
    let pure = MachineModel::origin2000();
    let mut latency = MachineModel::origin2000();
    latency.exposed_latency_s = vec![5e-9, 60e-9]; // no prefetch overlap
    let mut t = Table::new(&["kernel", "pure-bandwidth MB/s", "with exposed latency MB/s"]);
    for &(w, r) in FIGURE3_ORDER.iter().take(6) {
        let b = measure_program_balance(&stream_kernel(w, r, N), &pure)
            .expect("stream kernels interpret");
        let tp = predict(&pure, &b.report, b.flops);
        let tl = predict(&latency, &b.report, b.flops);
        t.row(vec![
            kernel_name(w, r),
            f(effective_bandwidth_mbs(b.report.mem_bytes(), tp.time_s), 0),
            f(effective_bandwidth_mbs(b.report.mem_bytes(), tl.time_s), 0),
        ]);
    }
    section("bottleneck timing vs exposed-latency timing (Origin)", &t)
}

fn associativity() -> String {
    let mut t = Table::new(&["associativity", "memory-channel bytes", "vs program bytes"]);
    let p = stream_kernel(3, 6, N);
    let program_bytes = (9 * N * 8) as u64;
    for assoc in [1u32, 2, 4] {
        let mut m = MachineModel::exemplar();
        m.caches[0].assoc = assoc;
        let b = measure_program_balance(&p, &m).expect("3w6r interprets");
        t.row(vec![
            format!("{assoc}-way"),
            b.report.mem_bytes().to_string(),
            format!("{:.2}×", b.report.mem_bytes() as f64 / program_bytes as f64),
        ]);
    }
    section("3w6r conflict traffic vs Exemplar associativity", &t)
}

fn padding() -> String {
    let m = MachineModel::exemplar();
    let p = stream_kernel(3, 6, N);
    let mut t = Table::new(&["padding bytes", "memory-channel bytes"]);
    for pad in [0u64, 4096, 65536] {
        let lay = LayoutOpts { base: 0x10_0000, align: 64, pad };
        let b = measure_program_balance_with_layout(&p, &m, lay).expect("3w6r interprets");
        t.row(vec![pad.to_string(), b.report.mem_bytes().to_string()]);
    }
    section("inter-array padding vs 3w6r conflicts (Exemplar)", &t)
}

fn prefetch() -> String {
    // §1 of the paper: prefetching halves exposed latency but consumes the
    // same (or more) bandwidth — saturation, not latency, is the wall.
    let p = stream_kernel(0, 2, N);
    let mut t =
        Table::new(&["prefetch depth", "demand misses", "memory bytes", "predicted time (s)"]);
    for depth in [0u32, 1, 3] {
        let mut m = MachineModel::exemplar();
        m.caches[0] = m.caches[0].clone().with_prefetch(depth);
        let b = measure_program_balance(&p, &m).expect("0w2r interprets");
        let pred = predict(&m, &b.report, b.flops);
        t.row(vec![
            depth.to_string(),
            b.report.level_stats[0].misses().to_string(),
            b.report.mem_bytes().to_string(),
            f(pred.time_s, 4),
        ]);
    }
    section("latency tolerance trades bandwidth (prefetch on Exemplar)", &t)
}

fn regrouping() -> String {
    use mbb_core::regroup::regroup_all;
    use mbb_ir::builder::*;
    let mut bld = ProgramBuilder::new("streams");
    let x = bld.array_in("x", &[N]);
    let y = bld.array_in("y", &[N]);
    let z = bld.array_in("z", &[N]);
    let s = bld.scalar_printed("s", 0.0);
    let i = bld.var("i");
    bld.nest(
        "k",
        &[(i, 0, N as i64 - 1)],
        vec![accumulate(s, ld(x.at([v(i)])) + ld(y.at([v(i)])) + ld(z.at([v(i)])))],
    );
    let p = bld.finish();
    let (q, _) = regroup_all(&p);
    let m = MachineModel::exemplar();
    let traffic = |prog: &mbb_ir::Program| {
        let lay = LayoutOpts { base: 0x10_0000, align: 64 * 1024, pad: 0 };
        let b = measure_program_balance_with_layout(prog, &m, lay).expect("streams interpret");
        b.report.mem_bytes().to_string()
    };
    let mut t = Table::new(&["layout", "memory bytes"]);
    t.row(vec!["three separate page-aligned arrays".into(), traffic(&p)]);
    t.row(vec!["one interleaved array (regrouped)".into(), traffic(&q)]);
    section("inter-array regrouping vs separate streams (Exemplar)", &t)
}

fn loop_order() -> String {
    use mbb_workloads::kernels::mm_order;
    let m = MachineModel::origin2000().scaled_levels(&[16, 64]);
    let n = 96;
    let mut t = Table::new(&["order", "Mem-L2 bytes/flop"]);
    for order in ["jki", "kji", "ikj", "jik", "ijk", "kij"] {
        let b = measure_program_balance(&mm_order(n, order), &m).expect("mm interprets");
        t.row(vec![order.to_string(), f(b.memory(), 2)]);
    }
    section("matrix-multiply loop order vs memory balance (scaled Origin)", &t)
}

fn tlb() -> String {
    use mbb_workloads::nas_sp::{x_solve, z_solve, SpGrid};
    let g = SpGrid::cubed(40);
    let mut with = MachineModel::origin2000();
    let mut without = MachineModel::origin2000();
    without.tlb = None;
    with.name = "with TLB".into();
    without.name = "no TLB".into();
    let mut t = Table::new(&["subroutine", "machine", "TLB misses", "utilisation"]);
    for p in [x_solve(g), z_solve(g)] {
        for m in [&with, &without] {
            let b = measure_program_balance(&p, m).expect("SP sweeps interpret");
            let pred = predict(m, &b.report, b.flops);
            let util = effective_bandwidth_mbs(b.report.mem_bytes(), pred.time_s)
                / m.memory_bandwidth_mbs();
            t.row(vec![
                p.name.clone(),
                m.name.clone(),
                b.report.tlb_misses.to_string(),
                format!("{:.0}%", util * 100.0),
            ]);
        }
    }
    section("TLB cost of strided sweeps (full Origin, SP z_solve)", &t)
}
