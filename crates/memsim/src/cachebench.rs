//! CacheBench (Mucci & London) on the simulator.
//!
//! The paper measures each machine's *cache* bandwidth with CacheBench and
//! uses it for the register↔L1 and L1↔L2 rows of the machine balance.
//! This port sweeps a read-modify-write kernel over working-set sizes; a
//! working set that fits in level *k* but not level *k−1* saturates the
//! channel *into* level *k*, so the measured plateau per region is the
//! per-channel supply.

use mbb_ir::runs::emit_runs;
use mbb_ir::trace::{AccessKind, RunRef};

use crate::arena::Arena;
use crate::machine::MachineModel;
use crate::timing::{effective_bandwidth_mbs, predict};

/// Measured bandwidth at one working-set size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Working-set size in bytes.
    pub bytes: u64,
    /// Effective register-channel bandwidth in MB/s (reads+writes issued by
    /// the kernel over the predicted time).
    pub mbs: f64,
}

/// Runs the read-modify-write sweep over `sizes` (bytes per working set),
/// with `passes` passes over each working set (the first pass warms the
/// caches; more passes amortise it away).
///
/// Each pass `a[i] = a[i] + 1` is one run bundle over the working set's
/// [`Arena`] address — a read and a write of the same cell per iteration.
/// The bandwidth comes from event counts alone, so no values are kept.
pub fn sweep(machine: &MachineModel, sizes: &[u64], passes: usize) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|&bytes| {
            let n = (bytes / 8).max(1);
            let a = Arena::new().alloc_f64(n as usize);
            let refs = [
                RunRef { base: a, stride: 8, size: 8, kind: AccessKind::Read },
                RunRef { base: a, stride: 8, size: 8, kind: AccessKind::Write },
            ];
            let mut h = machine.hierarchy();
            for _ in 0..passes {
                emit_runs(&mut h, &refs, n);
            }
            let report = h.report();
            let p = predict(machine, &report, passes as u64 * n);
            SweepPoint { bytes, mbs: effective_bandwidth_mbs(report.reg_bytes(), p.time_s) }
        })
        .collect()
}

/// Measures the bandwidth supply of each cache channel: for cache level
/// `k`, a working set half the size of level `k` (and at least twice the
/// size of level `k−1`) is swept, and the register-channel rate is
/// reported.  The last entry uses a working set of 4× the last level —
/// the memory channel — and is the cross-check against STREAM.
pub fn per_level_bandwidth(machine: &MachineModel) -> Vec<SweepPoint> {
    let mut sizes = Vec::new();
    for (k, c) in machine.caches.iter().enumerate() {
        let mut s = c.size / 2;
        if k > 0 {
            s = s.max(machine.caches[k - 1].size * 2);
        }
        sizes.push(s);
    }
    if let Some(last) = machine.caches.last() {
        sizes.push(last.size * 4);
    }
    sweep(machine, &sizes, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_cache_sweep_saturates_register_channel() {
        let m = MachineModel::origin2000();
        // 16 KB fits the 32 KB L1: after the warm pass everything hits.
        let pts = sweep(&m, &[16 * 1024], 8);
        let mbs = pts[0].mbs;
        assert!(
            (mbs - m.bandwidth_mbs[0]).abs() / m.bandwidth_mbs[0] < 0.1,
            "expected ≈{} MB/s, got {mbs}",
            m.bandwidth_mbs[0]
        );
    }

    #[test]
    fn bandwidth_drops_when_working_set_spills_to_memory() {
        // On the Origin model the register and L1↔L2 channels have equal
        // bandwidth (Figure 1's machine row: 4 / 4 / 0.8 bytes per flop), so
        // stride-one traffic measures the same plateau for L1- and
        // L2-resident sets; only the memory-resident point collapses.
        let m = MachineModel::origin2000();
        let pts = sweep(&m, &[16 * 1024, 1024 * 1024, 16 * 1024 * 1024], 4);
        assert!((pts[0].mbs - pts[1].mbs).abs() / pts[0].mbs < 0.15, "L1 ≈ L2 plateau");
        assert!(pts[2].mbs < 0.5 * pts[1].mbs, "memory-resident collapses");
    }

    #[test]
    fn per_level_covers_all_channels() {
        let m = MachineModel::origin2000();
        let pts = per_level_bandwidth(&m);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].mbs >= pts[1].mbs * 0.85);
        assert!(pts[1].mbs > pts[2].mbs, "memory point is the smallest");
    }
}
