//! The simulator perf-regression gate behind `repro gate`.
//!
//! Every number this repository reproduces comes off one hot path — an
//! access stream driven through [`mbb_memsim::hierarchy::Hierarchy`] — so
//! a simulator slowdown taxes every experiment at once, and nothing in the
//! result tables would show it.  This module is the instrument that makes
//! such a slowdown a CI failure instead of a silent tax: it runs a fixed
//! set of calibrated kernels through [`mbb_obs::Meter`], records
//! events/second per kernel in a `BENCH_<n>.json` (schema
//! [`SCHEMA`] = `mbb-bench-gate/1`), and compares the run against a
//! committed `bench/baseline.json` with a configurable tolerance.
//!
//! The four kernels cover the distinct hot-path regimes.  Since the run
//! fast path landed ([`mbb_ir::runs`] + `Hierarchy::access_runs`), the
//! three simulator kernels are calibrated to the *hit-dominated steady
//! state* — resident working sets walked for many passes — because that
//! is the regime the symbolic per-line walk accelerates and therefore the
//! regime a regression would silently tax.  Each builds its own hierarchy
//! and keeps it warm across passes and repetitions, rather than measuring
//! through `mbb_core::balance::simulate`; the cold first pass still
//! exercises the miss/writeback walk on every line:
//!
//! * **STREAM triad** — three L1-resident streams emitted directly as
//!   [`mbb_ir::trace::RunRef`] bundles: pure sink-side run throughput,
//!   no value work;
//! * **FFT** — repeated in-L1 address-only transforms
//!   ([`mbb_workloads::fft::emit`]): the butterfly stages emit runs, the
//!   bit-reversal stays per-element (non-affine), covering both entry
//!   paths and the TLB, with no value work;
//! * **Sweep3D slice** — interpreter-driven wavefront: exercises the run
//!   *compiler* (`mbb_ir::runs`) end to end, value loop included;
//! * **Search** — the `mbb-search` beam search over a fixed fusable
//!   chain with a fresh score cache per pass: candidate generation,
//!   canonical hashing and per-candidate balance simulation all on the
//!   metered path, so an autotuner slowdown fails CI like a simulator
//!   slowdown does.
//!
//! Wall-clock on shared CI runners is noisy, so each kernel takes the best
//! of `reps` repetitions and the comparison tolerance defaults to
//! [`DEFAULT_TOLERANCE`] (generous by design: the gate is meant to catch
//! integer-factor regressions, not percent-level drift).

use std::path::{Path, PathBuf};
use std::time::Duration;

use mbb_ir::interp::Interpreter;
use mbb_ir::trace::{AccessKind, AccessSink, RunRef};
use mbb_memsim::arena::Arena;
use mbb_memsim::machine::MachineModel;
use mbb_obs::json::Json;
use mbb_obs::Meter;

use crate::table::{f, Table};

/// Schema tag of the gate's JSON documents.
pub const SCHEMA: &str = "mbb-bench-gate/1";

/// Default regression tolerance: fail when a kernel's events/second drops
/// below `(1 - tolerance)` × baseline.  0.3 tolerates the ~1.4× spread we
/// see from runner noise and CPU heterogeneity while still catching the
/// regressions that matter — losing the run fast path costs an order of
/// magnitude, a reintroduced per-event allocation a large integer factor.
/// (The pre-runs-engine gate used 0.5; the fast path widened the gap
/// between noise and a real regression enough to tighten it.)
pub const DEFAULT_TOLERANCE: f64 = 0.3;

/// Workload sizes for one gate run.
///
/// The `*_n` sizes pick L1-resident working sets (Origin2000 L1 = 32 KB)
/// and the pass counts provide the steady-state repetitions; scaling a
/// mode means more passes over the *same* working set, never a larger
/// set — growing `n` past residency would silently change the regime the
/// gate certifies.
#[derive(Clone, Copy, Debug)]
pub struct GateSizes {
    /// STREAM triad elements per array (3 arrays; 512 → 12 KB total,
    /// comfortably L1-resident).
    pub triad_n: usize,
    /// Triad passes over the resident arrays (events = 3·n·passes).
    pub triad_passes: usize,
    /// FFT points (power of two; data + twiddles = 32·n bytes).
    pub fft_n: usize,
    /// Full transforms per measurement (identical addresses each pass, so
    /// passes after the first run warm).
    pub fft_passes: usize,
    /// Sweep3D grid edge (kept small enough for the flux slab to stay
    /// resident).
    pub sweep_n: usize,
    /// Sweep3D angles per octant (the pass knob for this kernel: each
    /// angle re-walks the same grid).
    pub sweep_angles: usize,
    /// Elements per array in the search kernel's fusable chain.
    pub search_n: usize,
    /// Full beam searches per measurement (each with a fresh score cache,
    /// so every pass re-simulates every candidate).
    pub search_passes: usize,
}

impl GateSizes {
    /// CI-sized run: a few million events per kernel, so each metered
    /// region spans many ticks of the ~4 ms on-CPU clock and finishes in
    /// well under a second per repetition on any machine.
    pub fn quick() -> Self {
        GateSizes {
            triad_n: 1 << 9,
            triad_passes: 8192,
            fft_n: 1 << 10,
            fft_passes: 64,
            sweep_n: 8,
            sweep_angles: 32,
            search_n: 1 << 11,
            search_passes: 8,
        }
    }

    /// Local-measurement run (~4× quick) for refreshing baselines.
    pub fn full() -> Self {
        GateSizes {
            triad_n: 1 << 9,
            triad_passes: 32768,
            fft_n: 1 << 10,
            fft_passes: 256,
            sweep_n: 8,
            sweep_angles: 128,
            search_n: 1 << 11,
            search_passes: 32,
        }
    }
}

/// One kernel's best-of-reps measurement.
#[derive(Clone, Debug)]
pub struct KernelMeasure {
    /// Kernel name (`triad`, `fft`, `sweep3d`).
    pub name: &'static str,
    /// Simulated access events per repetition (identical across reps by
    /// construction — the simulation is deterministic).
    pub events: u64,
    /// Time of the best (fastest) repetition: the thread's on-CPU time
    /// where the OS exposes it (so background load on a shared runner
    /// doesn't masquerade as a regression), wall-clock otherwise.
    pub wall: Duration,
}

impl KernelMeasure {
    /// Simulated events per second of the best repetition.
    pub fn events_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.events as f64 / s
        } else {
            0.0
        }
    }
}

/// A complete gate run.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// Repetitions per kernel (best-of).
    pub reps: u32,
    /// Per-kernel measurements.
    pub kernels: Vec<KernelMeasure>,
}

impl GateReport {
    /// Total events across kernels (one repetition each).
    pub fn total_events(&self) -> u64 {
        self.kernels.iter().map(|k| k.events).sum()
    }

    /// Aggregate throughput: total events over summed best wall-clocks.
    pub fn events_per_sec(&self) -> f64 {
        let wall: f64 = self.kernels.iter().map(|k| k.wall.as_secs_f64()).sum();
        if wall > 0.0 {
            self.total_events() as f64 / wall
        } else {
            0.0
        }
    }

    /// The `mbb-bench-gate/1` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("mode", Json::str(self.mode)),
            ("reps", Json::UInt(u64::from(self.reps))),
            (
                "kernels",
                Json::arr(self.kernels.iter().map(|k| {
                    Json::obj([
                        ("name", Json::str(k.name)),
                        ("events", Json::UInt(k.events)),
                        ("wall_s", Json::num(k.wall.as_secs_f64())),
                        ("events_per_sec", Json::num(k.events_per_sec())),
                    ])
                })),
            ),
            ("total_events", Json::UInt(self.total_events())),
            ("events_per_sec", Json::num(self.events_per_sec())),
        ])
    }

    /// The human table printed by `repro gate`.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["kernel", "events", "best wall (s)", "Mev/s"]);
        for k in &self.kernels {
            t.row(vec![
                k.name.to_string(),
                k.events.to_string(),
                f(k.wall.as_secs_f64(), 3),
                f(k.events_per_sec() / 1e6, 2),
            ]);
        }
        t.row(vec![
            "total".into(),
            self.total_events().to_string(),
            f(self.kernels.iter().map(|k| k.wall.as_secs_f64()).sum::<f64>(), 3),
            f(self.events_per_sec() / 1e6, 2),
        ]);
        t.render()
    }
}

/// Runs one kernel `reps` times under the [`Meter`], keeping the fastest
/// repetition.  Panics if the simulation is non-deterministic (different
/// event counts between repetitions).
///
/// The kernel is `FnMut` so fixtures (the hierarchy — ~0.02 ms to
/// construct since cache sets became flat arrays — arenas, IR programs)
/// can be built once outside the metered region and captured; the event
/// count per repetition is unaffected because events are counted on the
/// producer side, whatever the cache state.
fn measure(name: &'static str, reps: u32, mut kernel: impl FnMut()) -> KernelMeasure {
    assert!(reps >= 1, "need at least one repetition");
    let mut best: Option<KernelMeasure> = None;
    for _ in 0..reps {
        let meter = Meter::start();
        kernel();
        let m = meter.finish();
        if let Some(b) = &best {
            assert_eq!(b.events, m.events, "gate kernel `{name}` must be deterministic");
        }
        // The on-CPU clock ticks at scheduler granularity (ms); a region
        // faster than one tick reads zero, which would divide into a
        // bogus 0 ev/s — fall back to wall-clock there.
        let busy = m.busy();
        let t = if busy.is_zero() { m.wall } else { busy };
        if best.as_ref().is_none_or(|b| t < b.wall) {
            best = Some(KernelMeasure { name, events: m.events, wall: t });
        }
    }
    best.expect("reps >= 1")
}

/// Runs the whole gate suite.
///
/// Each kernel's fixtures (hierarchy, arenas, IR program) are built once
/// and reused across repetitions; the metered region is the simulation
/// itself.  Repetitions after the first therefore run against warm cache
/// state — exactly the steady-state regime the gate certifies, and
/// `measure`'s determinism assert still holds because event counts are
/// producer-side.
pub fn run_gate(sizes: &GateSizes, mode: &'static str, reps: u32) -> GateReport {
    // The gate certifies the *untraced* hot path; a collector left live by
    // a caller would silently measure tracing overhead instead.
    assert!(!mbb_obs::timing_enabled(), "perf gate must run with tracing disabled");
    let machine = MachineModel::origin2000();

    // STREAM triad (`a[i] = b[i] + s·c[i]`) access pattern, L1-resident
    // and emitted straight as [`mbb_ir::trace::RunRef`] bundles: pure
    // run-simulation throughput (the gate certifies the simulator, so the
    // kernel arithmetic is deliberately absent — it would only dilute the
    // measurement).
    let triad = {
        let mut h = machine.hierarchy();
        let mut arena = Arena::new();
        let n = sizes.triad_n;
        let (a, b, c) = (arena.alloc_f64(n), arena.alloc_f64(n), arena.alloc_f64(n));
        let run = |base, kind| RunRef { base, stride: 8, size: 8, kind };
        let refs = [run(b, AccessKind::Read), run(c, AccessKind::Read), run(a, AccessKind::Write)];
        let (n, passes) = (n as u64, sizes.triad_passes);
        measure("triad", reps, move || {
            for _ in 0..passes {
                h.access_runs(&refs, n);
            }
            h.flush();
            std::hint::black_box(h.report());
        })
    };

    // Address-only FFT: runs from the butterfly stages, per-element
    // emission from the bit-reversal, repeated over identical addresses so
    // passes after the first hit warm lines and pages.
    let fft = {
        let mut h = machine.hierarchy();
        let (n, passes) = (sizes.fft_n, sizes.fft_passes);
        measure("fft", reps, move || {
            for _ in 0..passes {
                std::hint::black_box(mbb_workloads::fft::emit(n, &mut h));
            }
            h.flush();
            std::hint::black_box(h.report());
        })
    };

    // A Sweep3D slice through the IR interpreter: exercises the run
    // compiler end to end, value loop included.
    let sweep = {
        let mut h = machine.hierarchy();
        let prog = mbb_workloads::sweep3d::sweep3d(sizes.sweep_n, sizes.sweep_angles);
        measure("sweep3d", reps, move || {
            Interpreter::new(&prog).run(&mut h).expect("sweep3d interprets");
            h.flush();
            std::hint::black_box(h.report());
        })
    };

    // The autotuner end to end over a fixed fusable chain.  A fresh
    // score cache per pass keeps every candidate's simulation on the
    // metered path (warm-cache passes would measure hashing alone) and
    // makes the event count identical across passes and repetitions.
    let search = {
        let prog = search_chain(sizes.search_n);
        let sopts = mbb_search::SearchOptions::default();
        let passes = sizes.search_passes;
        measure("search", reps, move || {
            for _ in 0..passes {
                let cache = mbb_search::ScoreCache::new(1 << 10, 1);
                let out = mbb_search::search_with_cache(&prog, &sopts, &cache)
                    .expect("gate search runs unbudgeted");
                std::hint::black_box(out.trace.visited);
            }
        })
    };

    GateReport { mode, reps, kernels: vec![triad, fft, sweep, search] }
}

/// The search kernel's workload: a four-nest fusable producer chain with
/// a live-out consumer and a scalar reduction — enough fusion partitions,
/// interchange orders and storage moves to give the beam real work.
fn search_chain(n: usize) -> mbb_ir::program::Program {
    use mbb_ir::builder::{accumulate, assign, ld, lit, v, ProgramBuilder, RefBuild};
    let mut b = ProgramBuilder::new("gate_search_chain");
    let x = b.array_in("x", &[n]);
    let t0 = b.array("t0", &[n]);
    let t1 = b.array("t1", &[n]);
    let y = b.array_out("y", &[n]);
    let s = b.scalar_printed("s", 0.0);
    let i = b.var("i");
    let hi = n as i64 - 1;
    b.nest("n0", &[(i, 0, hi)], vec![assign(t0.at([v(i)]), ld(x.at([v(i)])) + lit(1.0))]);
    b.nest("n1", &[(i, 0, hi)], vec![assign(t1.at([v(i)]), ld(t0.at([v(i)])) * lit(0.5))]);
    b.nest("n2", &[(i, 0, hi)], vec![assign(y.at([v(i)]), ld(t1.at([v(i)])) + ld(x.at([v(i)])))]);
    b.nest("n3", &[(i, 0, hi)], vec![accumulate(s, ld(y.at([v(i)])))]);
    b.finish()
}

/// One kernel that fell below tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Kernel name (or `"total"` for the aggregate).
    pub kernel: String,
    /// Events/second in the current run.
    pub current: f64,
    /// Events/second in the baseline.
    pub baseline: f64,
    /// The floor the current value had to clear.
    pub floor: f64,
}

impl Regression {
    /// A one-line human description.
    pub fn describe(&self) -> String {
        format!(
            "{}: {:.2} Mev/s vs baseline {:.2} Mev/s (floor {:.2})",
            self.kernel,
            self.current / 1e6,
            self.baseline / 1e6,
            self.floor / 1e6
        )
    }
}

/// Checks that `doc` is a structurally valid `mbb-bench-gate/1` document.
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("schema is `{s}`, expected `{SCHEMA}`")),
        None => return Err("missing `schema` field".into()),
    }
    let Some(Json::Arr(kernels)) = doc.get("kernels") else {
        return Err("missing `kernels` array".into());
    };
    if kernels.is_empty() {
        return Err("empty `kernels` array".into());
    }
    for k in kernels {
        let name = k.get("name").and_then(Json::as_str).ok_or("kernel without `name`")?;
        for field in ["events", "wall_s", "events_per_sec"] {
            if k.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("kernel `{name}` missing numeric `{field}`"));
            }
        }
    }
    if doc.get("events_per_sec").and_then(Json::as_f64).is_none() {
        return Err("missing aggregate `events_per_sec`".into());
    }
    Ok(())
}

/// Compares a current gate document against a baseline document.
///
/// Every kernel present in the baseline must appear in the current run and
/// clear `baseline × (1 − tolerance)` events/second; the aggregate rate is
/// held to the same floor under the name `total`.  Returns the list of
/// kernels that regressed (empty = pass).
pub fn compare(current: &Json, baseline: &Json, tolerance: f64) -> Result<Vec<Regression>, String> {
    assert!((0.0..1.0).contains(&tolerance), "tolerance must be in [0, 1)");
    validate(current).map_err(|e| format!("current run: {e}"))?;
    validate(baseline).map_err(|e| format!("baseline: {e}"))?;

    let rate_of = |doc: &Json, name: &str| -> Option<f64> {
        let Some(Json::Arr(kernels)) = doc.get("kernels") else { return None };
        kernels
            .iter()
            .find(|k| k.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|k| k.get("events_per_sec"))
            .and_then(Json::as_f64)
    };

    let mut regressions = Vec::new();
    let mut check = |name: &str, cur: Option<f64>, base: f64| {
        let cur = cur.unwrap_or(0.0);
        let floor = base * (1.0 - tolerance);
        if cur < floor {
            regressions.push(Regression {
                kernel: name.to_string(),
                current: cur,
                baseline: base,
                floor,
            });
        }
    };

    let Some(Json::Arr(base_kernels)) = baseline.get("kernels") else { unreachable!() };
    for k in base_kernels {
        let name = k.get("name").and_then(Json::as_str).expect("validated");
        let base = k.get("events_per_sec").and_then(Json::as_f64).expect("validated");
        if rate_of(current, name).is_none() {
            return Err(format!("baseline kernel `{name}` missing from current run"));
        }
        check(name, rate_of(current, name), base);
    }
    check(
        "total",
        current.get("events_per_sec").and_then(Json::as_f64),
        baseline.get("events_per_sec").and_then(Json::as_f64).expect("validated"),
    );
    Ok(regressions)
}

/// First unused `BENCH_<n>.json` path under `dir`, so every gate run in a
/// working tree extends the recorded trajectory instead of overwriting it.
pub fn next_bench_path(dir: &Path) -> PathBuf {
    for n in 0u32.. {
        let candidate = dir.join(format!("BENCH_{n}.json"));
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("fewer than 2^32 bench files")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sizes() -> GateSizes {
        GateSizes {
            triad_n: 512,
            triad_passes: 4,
            fft_n: 256,
            fft_passes: 2,
            sweep_n: 4,
            sweep_angles: 1,
            search_n: 64,
            search_passes: 1,
        }
    }

    #[test]
    fn gate_report_is_schema_valid_and_round_trips() {
        let report = run_gate(&tiny_sizes(), "quick", 1);
        let doc = report.to_json();
        validate(&doc).expect("schema-valid");
        let parsed = Json::parse(&doc.render()).expect("parses");
        validate(&parsed).expect("still valid after round-trip");
        assert_eq!(report.kernels.len(), 4);
        for k in &report.kernels {
            assert!(k.events > 0, "kernel {} produced no events", k.name);
        }
    }

    #[test]
    fn repetitions_are_deterministic() {
        // `measure` asserts equal event counts across reps internally.
        let report = run_gate(&tiny_sizes(), "quick", 2);
        assert!(report.total_events() > 0);
    }

    #[test]
    fn detects_injected_synthetic_regression() {
        let report = run_gate(&tiny_sizes(), "quick", 1);
        let current = report.to_json();
        // Forge a baseline claiming 10× the measured throughput plus a
        // constant (so even a kernel whose tiny test run was too fast for
        // the on-CPU clock, measuring 0 ev/s, still regresses): with a
        // 30% tolerance the "regressed" current run must trip the gate.
        let mut baseline = current.clone();
        let scale = |v: &mut Json| {
            if let Some(x) = v.as_f64() {
                *v = Json::num(x * 10.0 + 1e6);
            }
        };
        scale(baseline.get_mut("events_per_sec").unwrap());
        if let Some(Json::Arr(kernels)) = baseline.get_mut("kernels") {
            for k in kernels {
                scale(k.get_mut("events_per_sec").unwrap());
            }
        }
        let regressions = compare(&current, &baseline, DEFAULT_TOLERANCE).expect("comparable");
        assert_eq!(regressions.len(), 5, "4 kernels + total: {regressions:?}");
        assert!(regressions.iter().any(|r| r.kernel == "total"));
        assert!(regressions[0].describe().contains("Mev/s"));
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let report = run_gate(&tiny_sizes(), "quick", 1);
        let doc = report.to_json();
        let regressions = compare(&doc, &doc, DEFAULT_TOLERANCE).expect("comparable");
        assert!(regressions.is_empty(), "{regressions:?}");
    }

    #[test]
    fn baseline_kernel_missing_from_current_is_an_error() {
        let report = run_gate(&tiny_sizes(), "quick", 1);
        let baseline = report.to_json();
        let mut current = baseline.clone();
        if let Some(Json::Arr(kernels)) = current.get_mut("kernels") {
            kernels.retain(|k| k.get("name").and_then(Json::as_str) != Some("fft"));
        }
        let err = compare(&current, &baseline, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("fft"), "{err}");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate(&Json::Null).is_err());
        assert!(validate(&Json::obj([("schema", Json::str("other/9"))])).is_err());
        let no_kernels = Json::obj([("schema", Json::str(SCHEMA))]);
        assert!(validate(&no_kernels).is_err());
    }

    #[test]
    fn next_bench_path_skips_existing_files() {
        let dir = std::env::temp_dir().join(format!("mbb-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(next_bench_path(&dir).ends_with("BENCH_0.json"));
        std::fs::write(dir.join("BENCH_0.json"), "{}").unwrap();
        assert!(next_bench_path(&dir).ends_with("BENCH_1.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
