//! Machine models: the supply side of the balance equation.
//!
//! A [`MachineModel`] bundles what the paper takes from hardware
//! specifications — peak flop rate and per-channel bandwidths — with the
//! cache geometry the trace simulation needs.  Two 1999-vintage machines
//! from the paper are provided, plus a configurable synthetic machine for
//! the §2.3 scaling study ("future systems will have even worse balance").
//!
//! Numbers are taken from the paper and from published processor data:
//!
//! * **SGI Origin2000 / MIPS R10000 @195 MHz** — peak 390 Mflop/s (one
//!   fused multiply-add per cycle); 32 KB 2-way L1 with 32 B lines; 4 MB
//!   2-way unified L2 with 128 B lines; machine balance 4 / 4 / 0.8
//!   bytes per flop (Figure 1, last row), i.e. 1560 / 1560 / 312 MB/s.
//!   The paper quotes "300 MB/s" sustainable memory bandwidth.
//! * **HP/Convex Exemplar / PA-8000 @180 MHz** — peak 720 Mflop/s (two
//!   FMA units); a single *direct-mapped* 1 MB off-chip data cache with
//!   32 B lines (no L2) — the direct mapping is what the paper blames for
//!   the `3w6r` outlier in Figure 3; measured STREAM-class bandwidth in the
//!   417–551 MB/s range, modelled as a 640 MB/s channel with ~20 ns of
//!   exposed miss latency (PA-8000 had no hardware prefetch).

use crate::cache::CacheConfig;

/// A TLB: translation entries, page size, and the exposed cost of a miss.
///
/// The R10000 refills its 64-entry TLB in *software*, so a strided sweep
/// that touches a new page per access (NAS/SP's z-direction solve) pays a
/// large per-access penalty no prefetcher hides — the reason some SP
/// subroutines fall below full bandwidth utilisation in §2.3.
#[derive(Clone, Copy, Debug)]
pub struct TlbConfig {
    /// Number of fully-associative entries.
    pub entries: usize,
    /// Page size in bytes.
    pub page: u64,
    /// Exposed latency per TLB miss, in seconds.
    pub miss_latency_s: f64,
}

/// A machine: peak compute rate, cache geometry, channel bandwidths and
/// exposed latencies.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Human-readable name.
    pub name: String,
    /// Peak floating-point rate in Mflop/s (10⁶ flop/s).
    pub peak_mflops: f64,
    /// Address-translation model, if any.
    pub tlb: Option<TlbConfig>,
    /// Cache levels, L1 first.
    pub caches: Vec<CacheConfig>,
    /// Peak bandwidth in MB/s (10⁶ byte/s) of each channel:
    /// `bandwidths[0]` is registers↔L1, `bandwidths[i]` is level *i−1* ↔
    /// level *i*, and the last entry is last-level↔memory.  Length is
    /// `caches.len() + 1`.
    pub bandwidth_mbs: Vec<f64>,
    /// Exposed (non-overlapped) latency per miss at each cache level, in
    /// seconds.  Zero models perfect latency tolerance (prefetch); the
    /// paper's thesis is that even then bandwidth limits performance.
    pub exposed_latency_s: Vec<f64>,
}

impl MachineModel {
    /// SGI Origin2000 node (MIPS R10000 @ 195 MHz), the paper's primary
    /// platform.
    pub fn origin2000() -> Self {
        MachineModel {
            name: "Origin2000 (R10K)".into(),
            peak_mflops: 390.0,
            // 64-entry software-refilled TLB, 16 KB pages, ~200 ns per
            // refill (the handler runs tens of instructions at 195 MHz).
            tlb: Some(TlbConfig { entries: 64, page: 16 * 1024, miss_latency_s: 200e-9 }),
            caches: vec![
                CacheConfig::write_back("L1", 32 * 1024, 32, 2).with_page_shuffle(16 * 1024),
                CacheConfig::write_back("L2", 4 * 1024 * 1024, 128, 2).with_page_shuffle(16 * 1024),
            ],
            bandwidth_mbs: vec![1560.0, 1560.0, 312.0],
            // R10K + MIPSpro software prefetching hide most miss latency;
            // ~20 ns per L2 miss remains exposed (TLB refill, DRAM page
            // misses), which is what keeps strided sweeps below the
            // roofline on the real machine.
            exposed_latency_s: vec![0.0, 20e-9],
        }
    }

    /// HP/Convex Exemplar node (PA-8000 @ 180 MHz): a single direct-mapped
    /// 1 MB data cache and no hardware prefetch.
    pub fn exemplar() -> Self {
        MachineModel {
            name: "Exemplar (PA-8000)".into(),
            peak_mflops: 720.0,
            // PA-8000: 96-entry TLB, hardware-walked — cheaper misses.
            tlb: Some(TlbConfig { entries: 96, page: 4 * 1024, miss_latency_s: 120e-9 }),
            // 64 KB pages (HP-UX variable page sizes assign large pages to
            // big arrays): 16 cache colours.  Six hot streams then almost
            // always have a same-colour pair that thrashes the
            // direct-mapped cache — the paper's suspected cause of the
            // `3w6r` outlier — while two or three streams rarely collide.
            caches: vec![
                CacheConfig::write_back("L1", 1024 * 1024, 32, 1).with_page_shuffle(64 * 1024)
            ],
            bandwidth_mbs: vec![2880.0, 640.0],
            exposed_latency_s: vec![20e-9],
        }
    }

    /// A synthetic machine with an R10K-class core and a configurable
    /// memory bandwidth, for the §2.3 scaling study ("a machine must have
    /// 1.02 GB/s to 3.15 GB/s of memory bandwidth").
    pub fn custom_memory_bandwidth(mem_mbs: f64) -> Self {
        let mut m = Self::origin2000();
        m.name = format!("R10K-class core, {mem_mbs:.0} MB/s memory");
        *m.bandwidth_mbs.last_mut().expect("memory channel") = mem_mbs;
        m
    }

    /// The same machine with every cache capacity divided by `factor`
    /// (geometry and bandwidths otherwise unchanged).
    ///
    /// Balance is a ratio of traffic to flops, so a workload sized relative
    /// to the scaled caches reproduces the out-of-cache regime of a
    /// `factor×` larger workload on the full machine at `factor³`⁻ish less
    /// simulation cost — the methodology used for the matrix-multiply,
    /// NAS/SP and Sweep3D rows of Figure 1 (see EXPERIMENTS.md).
    ///
    /// # Panics
    /// Panics where [`MachineModel::try_scaled`] returns an error.
    pub fn scaled(&self, factor: u64) -> Self {
        self.try_scaled(factor).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`MachineModel::scaled`], refusing a zero factor and one that
    /// would make a cache smaller than one line per way.
    pub fn try_scaled(&self, factor: u64) -> Result<Self, String> {
        if factor == 0 {
            return Err("cache scale factor must be at least 1".into());
        }
        let mut m = self.clone();
        m.name = format!("{} (caches ÷{factor})", self.name);
        if let Some(t) = &mut m.tlb {
            t.page = (t.page / factor).max(64).next_power_of_two();
            t.miss_latency_s /= factor as f64;
        }
        for c in &mut m.caches {
            c.size /= factor;
            if c.size < c.line * u64::from(c.assoc) {
                return Err(format!("cache {} too small after scaling by {factor}", c.name));
            }
            // Page-granular index shuffling must scale with capacity, or
            // the scaled cache has too few colours and random collisions
            // dominate.
            if let Some(p) = c.page_shuffle {
                c.page_shuffle = Some((p / factor).max(c.line).next_power_of_two());
            }
        }
        Ok(m)
    }

    /// As [`MachineModel::scaled`], with one factor per cache level —
    /// useful when inner levels should shrink less, keeping the *relative*
    /// sizes of per-iteration working structures (a matrix column, a face
    /// plane) to their cache level faithful.
    ///
    /// # Panics
    /// Panics on factor-count mismatch or a cache shrunk below one line
    /// per way.
    pub fn scaled_levels(&self, factors: &[u64]) -> Self {
        assert_eq!(factors.len(), self.caches.len(), "one factor per cache level");
        let mut m = self.clone();
        m.name = format!("{} (caches ÷{factors:?})", self.name);
        if let Some(t) = &mut m.tlb {
            let f = *factors.last().expect("at least one level");
            t.page = (t.page / f).max(64).next_power_of_two();
            t.miss_latency_s /= f as f64;
        }
        for (c, &factor) in m.caches.iter_mut().zip(factors) {
            c.size /= factor;
            assert!(
                c.size >= c.line * u64::from(c.assoc),
                "cache {} too small after scaling",
                c.name
            );
            if let Some(p) = c.page_shuffle {
                c.page_shuffle = Some((p / factor).max(c.line).next_power_of_two());
            }
        }
        m
    }

    /// Machine balance: bytes the machine can transfer per peak flop on
    /// each channel (Figure 1, last row).
    pub fn balance(&self) -> Vec<f64> {
        self.bandwidth_mbs.iter().map(|bw| bw / self.peak_mflops).collect()
    }

    /// The memory channel's bandwidth in MB/s.
    pub fn memory_bandwidth_mbs(&self) -> f64 {
        *self.bandwidth_mbs.last().expect("memory channel")
    }

    /// Builds a fresh (cold) hierarchy with this machine's cache geometry
    /// and TLB.
    pub fn hierarchy(&self) -> crate::hierarchy::Hierarchy {
        let h = crate::hierarchy::Hierarchy::new(self.caches.clone());
        match self.tlb {
            Some(t) => h.with_tlb(t.entries, t.page),
            None => h,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_balance_matches_figure_1() {
        let m = MachineModel::origin2000();
        let b = m.balance();
        assert_eq!(b.len(), 3);
        assert!((b[0] - 4.0).abs() < 1e-9);
        assert!((b[1] - 4.0).abs() < 1e-9);
        assert!((b[2] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn exemplar_is_single_level_direct_mapped() {
        let m = MachineModel::exemplar();
        assert_eq!(m.caches.len(), 1);
        assert_eq!(m.caches[0].assoc, 1);
        assert_eq!(m.bandwidth_mbs.len(), 2);
    }

    #[test]
    fn custom_memory_bandwidth_only_changes_memory() {
        let m = MachineModel::custom_memory_bandwidth(1020.0);
        assert_eq!(m.memory_bandwidth_mbs(), 1020.0);
        assert_eq!(m.bandwidth_mbs[0], 1560.0);
        assert_eq!(m.peak_mflops, 390.0);
    }

    #[test]
    fn try_scaled_refuses_zero_and_caches_below_one_line_per_way() {
        let m = MachineModel::origin2000();
        assert!(m.try_scaled(0).is_err());
        // L1 is 32 KB of 2-way 32 B lines: 512 is the largest factor that
        // keeps one line per way.
        assert_eq!(m.try_scaled(512).unwrap().caches[0].size, 64);
        let e = m.try_scaled(513).unwrap_err();
        assert!(e.contains("cache L1 too small"), "{e}");
        assert!(m.try_scaled(u64::MAX).is_err());
    }

    #[test]
    fn hierarchy_matches_geometry() {
        let m = MachineModel::origin2000();
        let h = m.hierarchy();
        assert_eq!(h.depth(), 2);
    }
}
