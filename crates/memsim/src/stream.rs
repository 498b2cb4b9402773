//! STREAM (McCalpin) on the simulator.
//!
//! The paper measures each machine's sustainable memory bandwidth with
//! STREAM [ref 8] and uses it as the supply side of the memory channel.
//! This module runs the four STREAM kernels — COPY, SCALE, ADD, TRIAD —
//! against a [`MachineModel`]'s simulated hierarchy and timing model.
//!
//! Two rates are reported per kernel:
//!
//! * the **program rate** — STREAM's own convention: only the bytes the
//!   program logically moves (2 or 3 arrays × N × 8) over the elapsed
//!   time.  Write-allocate fetches make this land *below* the channel's
//!   peak, exactly as on real hardware;
//! * the **channel rate** — all bytes crossing the memory channel over the
//!   time, which reaches the configured peak when the kernel saturates it.
//!   The machine balance in Figure 1 is stated in channel terms.

use mbb_ir::runs::emit_runs;
use mbb_ir::trace::{AccessKind, RunRef};

use crate::arena::Arena;
use crate::machine::MachineModel;
use crate::timing::{effective_bandwidth_mbs, predict};

/// Rates achieved by one STREAM kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelRate {
    /// STREAM-convention rate (program bytes / time), MB/s.
    pub program_mbs: f64,
    /// Channel rate (all memory-channel bytes / time), MB/s.
    pub channel_mbs: f64,
    /// Predicted kernel time in seconds.
    pub time_s: f64,
}

/// Results of the four STREAM kernels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamResult {
    /// `c[i] = a[i]`.
    pub copy: KernelRate,
    /// `b[i] = s · c[i]`.
    pub scale: KernelRate,
    /// `c[i] = a[i] + b[i]`.
    pub add: KernelRate,
    /// `a[i] = b[i] + s · c[i]`.
    pub triad: KernelRate,
}

impl StreamResult {
    /// The best program-convention rate across kernels — what a STREAM run
    /// would report as the machine's sustainable bandwidth.
    pub fn sustainable_program_mbs(&self) -> f64 {
        [self.copy, self.scale, self.add, self.triad]
            .iter()
            .map(|k| k.program_mbs)
            .fold(0.0, f64::max)
    }

    /// The best channel rate across kernels — the measured supply used for
    /// machine balance.
    pub fn sustainable_channel_mbs(&self) -> f64 {
        [self.copy, self.scale, self.add, self.triad]
            .iter()
            .map(|k| k.channel_mbs)
            .fold(0.0, f64::max)
    }
}

/// Runs STREAM with `n` elements per array (must comfortably exceed the
/// last-level cache; [`run_default`] picks 4× its capacity).
///
/// Rates come from event counts alone, so the kernels move no values: each
/// one is a single run bundle over the arrays' [`Arena`] addresses, the
/// access stream of its loop `for i in 0..n` in the loop's order.  The
/// arrays are laid out back to back, unpadded.  At [`run_default`]'s size
/// on the Origin2000 they sit 16 MB apart, so ADD and TRIAD map all three
/// of their streams into one set of the 2-way L1 and miss it on every
/// access, as unpadded STREAM does on a real 2-way L1.
pub fn run(machine: &MachineModel, n: usize) -> StreamResult {
    let mut arena = Arena::new();
    let (a, b, c) = (arena.alloc_f64(n), arena.alloc_f64(n), arena.alloc_f64(n));
    let read = |base| RunRef { base, stride: 8, size: 8, kind: AccessKind::Read };
    let write = |base| RunRef { base, stride: 8, size: 8, kind: AccessKind::Write };
    let n64 = n as u64;
    let kernel = |refs: &[RunRef], flops: u64| -> KernelRate {
        let mut h = machine.hierarchy();
        emit_runs(&mut h, refs, n64);
        h.flush();
        let report = h.report();
        let p = predict(machine, &report, flops);
        // STREAM's convention counts the bytes the program names: 8 per
        // reference per iteration.
        let program_bytes = 8 * n64 * refs.len() as u64;
        KernelRate {
            program_mbs: effective_bandwidth_mbs(program_bytes, p.time_s),
            channel_mbs: effective_bandwidth_mbs(report.mem_bytes(), p.time_s),
            time_s: p.time_s,
        }
    };
    StreamResult {
        // c[i] = a[i]
        copy: kernel(&[read(a), write(c)], 0),
        // b[i] = s · c[i]
        scale: kernel(&[read(c), write(b)], n64),
        // c[i] = a[i] + b[i]
        add: kernel(&[read(a), read(b), write(c)], n64),
        // a[i] = b[i] + s · c[i]
        triad: kernel(&[read(b), read(c), write(a)], 2 * n64),
    }
}

/// Runs STREAM with arrays sized at 4× the last-level cache.
pub fn run_default(machine: &MachineModel) -> StreamResult {
    let llc = machine.caches.last().map(|c| c.size).unwrap_or(1 << 20);
    run(machine, (4 * llc / 8) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_saturates_its_memory_channel() {
        let m = MachineModel::origin2000();
        let r = run(&m, 256 * 1024); // 2 MB arrays: > L1, and the three
                                     // arrays together far exceed the 4 MB L2
        let ch = r.sustainable_channel_mbs();
        assert!(
            (ch - m.memory_bandwidth_mbs()).abs() / m.memory_bandwidth_mbs() < 0.05,
            "channel rate {ch} should approach the 312 MB/s supply"
        );
        // Program-convention rate sits below the channel rate because of
        // write-allocate fetches.
        assert!(r.sustainable_program_mbs() < ch);
        assert!(r.sustainable_program_mbs() > 0.5 * ch);
    }

    #[test]
    fn copy_program_rate_is_two_thirds_of_channel() {
        // COPY logically moves 2 bytes per 3 bytes of channel traffic
        // (read a + fetch-for-write c + write-back c).
        let m = MachineModel::origin2000();
        let r = run(&m, 256 * 1024);
        let ratio = r.copy.program_mbs / r.copy.channel_mbs;
        assert!((ratio - 2.0 / 3.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn exemplar_pays_exposed_latency() {
        let m = MachineModel::exemplar();
        let r = run_default(&m);
        // With 20 ns exposed per miss the channel rate must sit visibly
        // below the 640 MB/s peak.
        let ch = r.sustainable_channel_mbs();
        assert!(ch < 0.95 * m.memory_bandwidth_mbs(), "channel rate {ch}");
        assert!(ch > 0.5 * m.memory_bandwidth_mbs());
    }
}
