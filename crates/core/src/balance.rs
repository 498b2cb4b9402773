//! The balance performance model (§2, Figures 1 and 2).
//!
//! *Program balance* is the bytes of data transfer a program demands per
//! floating-point operation, on every channel of the memory hierarchy;
//! *machine balance* is the bytes the machine can supply per peak flop.
//! Dividing demand by supply gives the per-channel pressure ratios of
//! Figure 2, whose maximum bounds attainable CPU utilisation from above:
//! a program demanding 8.4 bytes/flop of memory traffic on a machine
//! supplying 0.8 can keep the CPU busy at most 9.5% of the time,
//! *regardless of latency tolerance*.
//!
//! Program balance here is measured exactly as the paper did on the R10K —
//! from event counts — except the counters are the `mbb-memsim` simulator
//! fed by the `mbb-ir` interpreter (or by an address-only native kernel
//! such as the FFT).  Every such measurement runs through [`simulate`].

use std::cell::Cell;

use mbb_ir::interp::{InterpError, Interpreter, LayoutOpts};
use mbb_ir::program::Program;
use mbb_memsim::hierarchy::{Hierarchy, TrafficReport};
use mbb_memsim::machine::MachineModel;
use mbb_memsim::timing::{predict, Prediction};

/// Measured program balance on a specific machine's cache geometry.
#[derive(Clone, Debug)]
pub struct ProgramBalance {
    /// Workload name.
    pub name: String,
    /// Bytes per flop on each channel (same indexing as
    /// [`MachineModel::bandwidth_mbs`]: registers↔L1 first, memory last).
    pub bytes_per_flop: Vec<f64>,
    /// Total flops executed.
    pub flops: u64,
    /// The underlying traffic report.
    pub report: TrafficReport,
}

impl ProgramBalance {
    /// The balance of `flops` flops that moved `report`'s traffic.
    pub fn new(name: &str, report: TrafficReport, flops: u64) -> ProgramBalance {
        let f = flops.max(1) as f64;
        ProgramBalance {
            name: name.into(),
            bytes_per_flop: report.channel_bytes.iter().map(|&b| b as f64 / f).collect(),
            flops,
            report,
        }
    }

    /// Balance of the memory channel (the last row the paper tabulates).
    pub fn memory(&self) -> f64 {
        *self.bytes_per_flop.last().unwrap_or(&0.0)
    }
}

/// Demand/supply ratios (Figure 2) and the utilisation bound they imply.
#[derive(Clone, Debug)]
pub struct BalanceRatios {
    /// Per-channel demand ÷ supply.
    pub ratios: Vec<f64>,
    /// The largest ratio — the binding constraint.
    pub max_ratio: f64,
    /// Upper bound on CPU utilisation: `1 / max(1, max_ratio)`.
    pub cpu_utilization_bound: f64,
}

/// Computes Figure-2 ratios from a measured program balance and a machine.
pub fn ratios(balance: &ProgramBalance, machine: &MachineModel) -> BalanceRatios {
    let supply = machine.balance();
    let ratios: Vec<f64> = balance
        .bytes_per_flop
        .iter()
        .zip(&supply)
        .map(|(&d, &s)| if s > 0.0 { d / s } else { f64::INFINITY })
        .collect();
    let max_ratio = ratios.iter().copied().fold(0.0, f64::max);
    BalanceRatios { ratios, max_ratio, cpu_utilization_bound: 1.0 / max_ratio.max(1.0) }
}

/// Measures the balance of an IR program by interpretation against the
/// machine's simulated hierarchy (including the final writeback flush).
///
/// Balance is a function of event counts alone, so the program runs
/// [`Interpreter::trace_only`]: the same trace, flops and errors as a value
/// run, without array storage or value arithmetic.
///
/// ```
/// use mbb_ir::builder::*;
/// use mbb_memsim::machine::MachineModel;
///
/// // `sum += a[i]` over an out-of-cache array demands 8 bytes per flop
/// // on every channel.
/// let n = 1 << 20;
/// let mut b = ProgramBuilder::new("sum");
/// let a = b.array_in("a", &[n]);
/// let s = b.scalar_printed("sum", 0.0);
/// let i = b.var("i");
/// b.nest("k", &[(i, 0, n as i64 - 1)], vec![accumulate(s, ld(a.at([v(i)])))]);
///
/// let m = MachineModel::origin2000();
/// let bal = mbb_core::balance::measure_program_balance(&b.finish(), &m).unwrap();
/// assert!((bal.memory() - 8.0).abs() < 0.2);
/// // Demand is 10× the Origin's 0.8 B/flop supply: CPU ≤ ~10%.
/// let r = mbb_core::balance::ratios(&bal, &m);
/// assert!(r.cpu_utilization_bound < 0.11);
/// ```
pub fn measure_program_balance(
    prog: &Program,
    machine: &MachineModel,
) -> Result<ProgramBalance, InterpError> {
    measure_program_balance_with_layout(prog, machine, LayoutOpts::default())
}

thread_local! {
    /// The hierarchy this thread's last measurement ran on, kept for the
    /// next one: a search scores each candidate with one, and a reset
    /// costs the sets the last run filled where a build costs every set
    /// of the machine.
    static SPARE: Cell<Option<Hierarchy>> = const { Cell::new(None) };
}

/// Simulates one run on `machine`'s memory hierarchy: `run` drives the
/// hierarchy, then the dirty lines drain under a `"flush"` span and the
/// traffic is reported.  Every program balance, the FFT row of Figure 1
/// and `trace-stats` are measured here; `run` opens its own span (the
/// interpreter's is `"interp"`, whose nest spans plus the sibling
/// `"flush"` partition the traffic exactly, see `crate::profile`).
///
/// Runs on this thread's spare hierarchy, reset, when it has `machine`'s
/// geometry ([`Hierarchy::has_geometry_of`]), and on a fresh one
/// otherwise; a reset hierarchy simulates exactly what a fresh one does.
/// The hierarchy becomes the spare again once the run is measured, so a
/// panic or an error from `run` only loses the spare.
pub fn simulate<T, E>(
    machine: &MachineModel,
    run: impl FnOnce(&mut Hierarchy) -> Result<T, E>,
) -> Result<(T, TrafficReport), E> {
    let mut h = match SPARE.take() {
        Some(mut h) if h.has_geometry_of(machine) => {
            h.reset();
            h
        }
        _ => machine.hierarchy(),
    };
    let out = run(&mut h)?;
    {
        let _s = mbb_obs::span!("flush");
        h.flush();
    }
    let report = h.report();
    SPARE.set(Some(h));
    Ok((out, report))
}

/// As [`measure_program_balance`], with an explicit array layout (used by
/// the conflict-sensitivity experiments).
pub fn measure_program_balance_with_layout(
    prog: &Program,
    machine: &MachineModel,
    layout: LayoutOpts,
) -> Result<ProgramBalance, InterpError> {
    let (run, report) = simulate(machine, |h| {
        let _s = mbb_obs::span!("interp");
        Interpreter::trace_only(prog, layout).run(h)
    })?;
    Ok(ProgramBalance::new(&prog.name, report, run.stats.flops))
}

/// Predicted execution of an IR program on a machine: simulate the traffic,
/// then apply the bottleneck timing model.
pub fn time_program(prog: &Program, machine: &MachineModel) -> Result<Prediction, InterpError> {
    let b = measure_program_balance(prog, machine)?;
    Ok(predict(machine, &b.report, b.flops))
}

/// The paper's *measured* machine balance row: register bandwidth from the
/// hardware specification, cache bandwidth from (simulated) CacheBench,
/// memory bandwidth from (simulated) STREAM — all divided by peak Mflop/s.
pub fn measured_machine_balance(machine: &MachineModel) -> Vec<f64> {
    let mut out = Vec::with_capacity(machine.bandwidth_mbs.len());
    // Register channel: specification.
    out.push(machine.bandwidth_mbs[0] / machine.peak_mflops);
    // Intermediate cache channels: CacheBench plateaus.
    let sweep = mbb_memsim::cachebench::per_level_bandwidth(machine);
    for point in sweep.iter().take(machine.caches.len()).skip(1) {
        out.push(point.mbs / machine.peak_mflops);
    }
    // Memory channel: STREAM channel rate.
    let stream = mbb_memsim::stream::run_default(machine);
    out.push(stream.sustainable_channel_mbs() / machine.peak_mflops);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_ir::builder::*;

    /// The §2.1 read-only loop: `sum += a[i]`.
    fn read_loop(n: usize) -> Program {
        let mut b = ProgramBuilder::new("read");
        let a = b.array_in("a", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let i = b.var("i");
        b.nest("r", &[(i, 0, n as i64 - 1)], vec![accumulate(s, ld(a.at([v(i)])))]);
        b.finish()
    }

    /// The §2.1 update loop: `a[i] = a[i] + 0.4`.
    fn update_loop(n: usize) -> Program {
        let mut b = ProgramBuilder::new("update");
        let a = b.array_out("a", &[n]);
        let i = b.var("i");
        b.nest(
            "w",
            &[(i, 0, n as i64 - 1)],
            vec![assign(a.at([v(i)]), ld(a.at([v(i)])) + lit(0.4))],
        );
        b.finish()
    }

    #[test]
    fn read_loop_balance_is_eight_bytes_per_flop() {
        // One 8-byte load and one flop per iteration, everywhere in the
        // hierarchy (stride-one, out of cache).
        let m = MachineModel::origin2000();
        let n = 1 << 20; // 8 MB, exceeds the 4 MB L2
        let b = measure_program_balance(&read_loop(n), &m).unwrap();
        assert_eq!(b.flops, n as u64);
        for (k, &bpf) in b.bytes_per_flop.iter().enumerate() {
            assert!((bpf - 8.0).abs() < 0.2, "channel {k}: {bpf}");
        }
    }

    #[test]
    fn update_loop_demands_twice_the_memory_bandwidth() {
        let m = MachineModel::origin2000();
        let n = 1 << 20;
        let read = measure_program_balance(&read_loop(n), &m).unwrap();
        let update = measure_program_balance(&update_loop(n), &m).unwrap();
        // Per flop: read loop moves 8 B on the memory channel, the update
        // loop 16 B (fetch + writeback).
        let ratio = update.memory() / read.memory();
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn ratios_and_utilization_bound() {
        let m = MachineModel::origin2000();
        let n = 1 << 20;
        let b = measure_program_balance(&read_loop(n), &m).unwrap();
        let r = ratios(&b, &m);
        // Memory: 8 B/flop demand vs 0.8 supply → ratio 10, ≤10% CPU.
        assert!((r.ratios[2] - 10.0).abs() < 0.3, "{:?}", r.ratios);
        assert!(r.max_ratio >= r.ratios[2] - 1e-9);
        assert!((r.cpu_utilization_bound - 1.0 / r.max_ratio).abs() < 1e-12);
    }

    #[test]
    fn timing_matches_section_2_1() {
        // Paper §2.1 (Origin2000, N = 2 000 000): read loop 0.054 s, update
        // loop 0.104 s — the update loop takes ~2× because it consumes
        // twice the memory bandwidth.
        let m = MachineModel::origin2000();
        let n = 2_000_000;
        let t_read = time_program(&read_loop(n), &m).unwrap().time_s;
        let t_update = time_program(&update_loop(n), &m).unwrap().time_s;
        assert!((t_read - 0.054).abs() < 0.003, "read {t_read}");
        assert!((t_update - 0.104).abs() < 0.006, "update {t_update}");
        let ratio = t_update / t_read;
        assert!((ratio - 2.0).abs() < 0.12, "ratio {ratio}");
    }

    #[test]
    fn native_kernel_balance() {
        // An address-only kernel: one run of `n` reads, one flop each.
        use mbb_ir::trace::{AccessKind, AccessSink, RunRef};
        let m = MachineModel::origin2000();
        let n = 1 << 18;
        let a = mbb_memsim::arena::Arena::new().alloc_f64(n);
        let sum = [RunRef { base: a, stride: 8, size: 8, kind: AccessKind::Read }];
        let Ok((flops, report)) = simulate(&m, |h| {
            h.access_runs(&sum, n as u64);
            Ok::<_, std::convert::Infallible>(n as u64)
        });
        let b = ProgramBalance::new("native_sum", report, flops);
        assert!((b.bytes_per_flop[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn measured_machine_balance_close_to_spec() {
        let m = MachineModel::origin2000();
        let measured = measured_machine_balance(&m);
        let spec = m.balance();
        assert_eq!(measured.len(), spec.len());
        // Register row is the spec by construction; memory row within 10%.
        assert!((measured[0] - spec[0]).abs() < 1e-9);
        let mem_err = (measured[2] - spec[2]).abs() / spec[2];
        assert!(mem_err < 0.1, "measured {} vs spec {}", measured[2], spec[2]);
    }
}
