//! Cross-crate sanity: every workload program is well-formed, runs, and
//! interacts correctly with the analyses and transformations.

use mbb::core::fusion::build_fusion_graph;
use mbb::core::pipeline::{optimize, verify_equivalent, OptimizeOptions};
use mbb::ir::{interp, validate};
use mbb::workloads::{figures, kernels, nas_sp, stream_kernels, sweep3d};

fn all_programs() -> Vec<mbb::ir::Program> {
    let mut v = vec![
        kernels::convolution(48, 3),
        kernels::dmxpy(24, 8),
        kernels::mm_jki(8),
        kernels::mm_blocked(8, 4),
        sweep3d::sweep3d(5, 2),
        figures::sec21_update_loop(32),
        figures::sec21_read_loop(32),
        figures::figure4(24),
        figures::figure6(8),
        figures::figure7(32),
        nas_sp::full_step(nas_sp::SpGrid::cubed(5)),
    ];
    v.extend(nas_sp::subroutines(nas_sp::SpGrid::cubed(5)).into_iter().map(|(_, p)| p));
    v.extend(stream_kernels::figure3_kernels(24));
    v
}

#[test]
fn every_workload_validates_and_runs() {
    for p in all_programs() {
        validate::validate(&p).unwrap_or_else(|e| panic!("{}: {e:?}", p.name));
        let r = interp::run(&p).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        assert!(r.stats.iterations > 0, "{} ran no iterations", p.name);
    }
}

#[test]
fn every_workload_survives_the_default_pipeline() {
    for p in all_programs() {
        let out = optimize(&p, OptimizeOptions::default());
        validate::validate(&out.program).unwrap_or_else(|e| panic!("{}: {e:?}", p.name));
        if let Err(d) = verify_equivalent(&p, &out.program, 1e-9) {
            panic!(
                "{} changed behaviour: {d}\nafter:\n{}",
                p.name,
                mbb::ir::pretty::program(&out.program)
            );
        }
        assert!(out.storage_after <= out.storage_before, "{}", p.name);
    }
}

#[test]
fn fusion_graphs_are_well_formed_for_all_workloads() {
    for p in all_programs() {
        let g = build_fusion_graph(&p);
        assert_eq!(g.n, p.nests.len(), "{}", p.name);
        for &(a, b) in &g.deps {
            assert!(a < b, "{}: dependence not in program order", p.name);
        }
        for &(a, b) in &g.preventing {
            assert!(a < b && b < g.n, "{}", p.name);
        }
    }
}

#[test]
fn pretty_printer_round_trips_every_workload_without_panic() {
    for p in all_programs() {
        let text = mbb::ir::pretty::program(&p);
        assert!(text.contains(&p.name) || !p.name.is_empty());
        assert!(text.contains("for "), "{}: no loops rendered", p.name);
    }
}

#[test]
fn traced_fft_agrees_with_interpreted_workloads_on_trace_format() {
    // The address-only FFT and the interpreter must speak the same trace
    // dialect: 8-byte accesses at 8-byte-aligned addresses.
    let mut sink = mbb::ir::trace::VecSink::new();
    mbb::workloads::fft::emit(64, &mut sink);
    assert!(!sink.events.is_empty());
    for e in &sink.events {
        assert_eq!(e.size, 8);
        assert_eq!(e.addr % 8, 0);
    }
}
