//! The committed generator corpus (`tests/corpus/*.loop`) replayed through
//! the full pipeline on every push: one program per `mbb-gen` template
//! family plus shrunk fuzz counterexamples kept as regression seeds.
//!
//! Unlike `loop_files.rs` (the hand-written paper examples), these
//! programs exercise the syntax corners the generator reaches — modular
//! subscripts, `input#N` streams, triangular bounds, negative steps,
//! combined `// live-out zero` attributes — so this test also pins the
//! parse/pretty round-trip surface those corners depend on.

use std::path::PathBuf;

use mbb::ir::runs::{self, Engine};

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "loop").then_some(p)
        })
        .collect();
    out.sort();
    assert!(out.len() >= 6, "expected one corpus seed per template family, found {out:?}");
    out
}

#[test]
fn corpus_parses_validates_and_round_trips() {
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let p = mbb::ir::parse::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        mbb::ir::validate::validate(&p).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Structural round trip and textual fixpoint, the mbb-gen
        // round-trip property replayed on committed files.
        let text = mbb::ir::pretty::program(&p);
        let again = mbb::ir::parse::parse(&text)
            .unwrap_or_else(|e| panic!("{}: re-parse: {e}\n{text}", path.display()));
        assert_eq!(again, p, "{}: parse(pretty(p)) != p", path.display());
        assert_eq!(
            mbb::ir::pretty::program(&again),
            text,
            "{}: pretty not a fixpoint",
            path.display()
        );
    }
}

#[test]
fn corpus_agrees_across_engines() {
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let p = mbb::ir::parse::parse(&src).unwrap();
        let scalar = {
            let _g = runs::install(Engine::Scalar);
            mbb::ir::run(&p).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        let fast = {
            let _g = runs::install(Engine::Runs);
            mbb::ir::run(&p).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        if let Some(d) = scalar.observation.diff(&fast.observation, 0.0) {
            panic!("{}: engines diverge: {d}", path.display());
        }
        assert_eq!(scalar.stats, fast.stats, "{}: counter divergence", path.display());
    }
}

#[test]
fn corpus_optimizes_with_verified_equivalence() {
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let p = mbb::ir::parse::parse(&src).unwrap();
        let out = mbb::core::pipeline::optimize(&p, Default::default());
        mbb::ir::validate::validate(&out.program)
            .unwrap_or_else(|e| panic!("{}: invalid optimized program: {e}", path.display()));
        mbb::core::pipeline::verify_equivalent(&p, &out.program, 1e-9)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(out.storage_after <= out.storage_before, "{}", path.display());
    }
}

#[test]
fn corpus_balance_never_regresses() {
    let machine = mbb::memsim::MachineModel::origin2000();
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let p = mbb::ir::parse::parse(&src).unwrap();
        let before = mbb::core::balance::measure_program_balance(&p, &machine)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let out = mbb::core::pipeline::optimize(&p, Default::default());
        let after = mbb::core::balance::measure_program_balance(&out.program, &machine)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let limit = before.report.mem_bytes() as f64 * 1.05 + 4096.0;
        assert!(
            (after.report.mem_bytes() as f64) <= limit,
            "{}: memory traffic regressed {} B -> {} B",
            path.display(),
            before.report.mem_bytes(),
            after.report.mem_bytes()
        );
    }
}

#[test]
fn corpus_trace_stats_equal_a_value_run() {
    // `trace-stats` runs trace-only on the thread's spare hierarchy; its
    // text and data must be what a value run on a fresh hierarchy counts.
    use mbb_server::analysis::{trace_stats, Options};
    let opts = Options::default();
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let p = mbb::ir::parse::parse(&src).unwrap();
        let mut h = opts.machine.hierarchy();
        let run = mbb::ir::interp::Interpreter::new(&p)
            .run(&mut h)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        h.flush();
        let (s, t) = (run.stats, h.report());

        let mut text = format!("trace of {} on {}\n", p.name, opts.machine.name);
        text += &format!(
            "  accesses: {} ({} loads, {} stores) over {} iterations, {} flops\n",
            s.loads + s.stores,
            s.loads,
            s.stores,
            s.iterations,
            s.flops
        );
        let names = mbb_obs::channel_names(t.channel_bytes.len());
        for (name, bytes) in names.iter().zip(&t.channel_bytes) {
            text += &format!("  {name:<8} {bytes:>14} bytes\n");
        }
        text +=
            &format!("  memory: {} read + {} written bytes\n", t.mem_read_bytes, t.mem_write_bytes);
        text += &format!("  tlb misses: {}\n", t.tlb_misses);

        let a = trace_stats(&p, &opts).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(a.text, text, "{}", path.display());
        let uint = |key: &str| a.data.get(key).and_then(|j| j.as_f64()).map(|x| x as u64);
        for (key, want) in [
            ("loads", s.loads),
            ("stores", s.stores),
            ("iterations", s.iterations),
            ("flops", s.flops),
            ("mem_read_bytes", t.mem_read_bytes),
            ("mem_write_bytes", t.mem_write_bytes),
            ("tlb_misses", t.tlb_misses),
        ] {
            assert_eq!(uint(key), Some(want), "{}: {key}", path.display());
        }
        let listed = |key: &str, field: Option<&str>| -> Vec<u64> {
            let Some(mbb_obs::json::Json::Arr(items)) = a.data.get(key) else {
                panic!("{}: {key} is not a list", path.display());
            };
            let item = |j: &mbb_obs::json::Json| match field {
                Some(f) => j.get(f).and_then(|v| v.as_f64()),
                None => j.as_f64(),
            };
            items.iter().map(|j| item(j).unwrap() as u64).collect()
        };
        assert_eq!(listed("channels", Some("bytes")), t.channel_bytes, "{}", path.display());
        assert_eq!(listed("level_misses", None), t.misses(), "{}", path.display());
    }
}
