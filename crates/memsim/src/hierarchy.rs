//! A multi-level memory hierarchy fed by an access trace.
//!
//! The hierarchy is a chain of [`Cache`] levels in front of an infinite
//! memory.  It implements [`AccessSink`], so an `mbb-ir` interpreter (or a
//! traced native kernel) can stream accesses straight into it.  What comes
//! out is the paper's raw material: bytes moved on every channel —
//! registers↔L1, L1↔L2, …, last-level↔memory — from which program balance
//! is a division away.

use mbb_ir::trace::{Access, AccessKind, AccessSink, RunRef};

use crate::cache::{Cache, CacheConfig, LevelStats, LineOutcome, WritePolicy};
use crate::machine::MachineModel;

/// Bytes and events observed on every channel of one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficReport {
    /// Bytes entering each level: index 0 is register↔L1 traffic, index `i`
    /// is the traffic between level `i-1` and level `i`, and the last entry
    /// is the traffic between the last cache level and memory.
    pub channel_bytes: Vec<u64>,
    /// Counters per cache level.
    pub level_stats: Vec<LevelStats>,
    /// Bytes read from memory (fetches reaching memory).
    pub mem_read_bytes: u64,
    /// Bytes written to memory (writebacks and write-throughs reaching
    /// memory).
    pub mem_write_bytes: u64,
    /// Demand accesses that missed the TLB (0 when no TLB is modelled).
    pub tlb_misses: u64,
}

impl TrafficReport {
    /// Traffic on the memory channel (reads + writes), the denominator
    /// resource of the paper's bottleneck argument.
    pub fn mem_bytes(&self) -> u64 {
        *self.channel_bytes.last().unwrap_or(&0)
    }

    /// Traffic on the register channel.
    pub fn reg_bytes(&self) -> u64 {
        *self.channel_bytes.first().unwrap_or(&0)
    }

    /// Misses at each cache level (for the exposed-latency timing term).
    pub fn misses(&self) -> Vec<u64> {
        self.level_stats.iter().map(|s| s.misses()).collect()
    }
}

/// A fully-associative LRU TLB over pages (small entry counts: a linear
/// scan with move-to-front is faster than hashing here).
#[derive(Clone, Debug)]
struct TlbSim {
    /// `log2(page size)` — pages are asserted to be powers of two.
    page_shift: u32,
    /// Entries in MRU-first order.
    entries: Vec<u64>,
    capacity: usize,
    misses: u64,
}

impl TlbSim {
    /// Pure residency check: is the page containing `addr` mapped?  No
    /// state or counter change either way.
    #[inline]
    fn probe(&self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        self.entries.contains(&page)
    }

    /// MRU touch of a page known to be resident (hit-path state transition
    /// of [`TlbSim::access`], which has no counters to update).
    #[inline]
    fn touch(&mut self, addr: u64) {
        let page = addr >> self.page_shift;
        if self.entries.first() == Some(&page) {
            return;
        }
        let pos = self.entries.iter().position(|&p| p == page).expect("touched page resident");
        self.entries[..=pos].rotate_right(1);
    }

    #[inline]
    fn access(&mut self, addr: u64) {
        let page = addr >> self.page_shift;
        // MRU-first short-circuit: stride-1 sweeps hit the front entry for
        // thousands of consecutive accesses, and moving position 0 to the
        // front is a no-op anyway.
        if self.entries.first() == Some(&page) {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            self.entries[..=pos].rotate_right(1);
            return;
        }
        self.misses += 1;
        mbb_obs::tick_tlb_miss();
        if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, page);
    }
}

/// A chain of caches in front of memory, consuming an access trace.
///
/// ```
/// use mbb_ir::trace::{Access, AccessSink};
/// use mbb_memsim::cache::CacheConfig;
/// use mbb_memsim::hierarchy::Hierarchy;
///
/// let mut h = Hierarchy::new(vec![CacheConfig::write_back("L1", 1024, 32, 2)]);
/// for k in 0..64u64 {
///     h.access(Access::read(k * 8, 8)); // one 512-byte stream
/// }
/// let report = h.report();
/// assert_eq!(report.reg_bytes(), 512);
/// assert_eq!(report.mem_bytes(), 512); // 16 cold line fetches × 32 B
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    levels: Vec<Cache>,
    entry_bytes: Vec<u64>,
    mem_read_bytes: u64,
    mem_write_bytes: u64,
    tlb: Option<TlbSim>,
}

impl Hierarchy {
    /// Builds a hierarchy from level configurations, outermost (L1) first.
    pub fn new(configs: Vec<CacheConfig>) -> Self {
        let n = configs.len();
        Hierarchy {
            levels: configs.into_iter().map(Cache::new).collect(),
            entry_bytes: vec![0; n + 1],
            mem_read_bytes: 0,
            mem_write_bytes: 0,
            tlb: None,
        }
    }

    /// Adds a fully-associative LRU TLB with `entries` translations over
    /// `page`-byte pages.  Demand accesses look it up; misses are counted
    /// in [`TrafficReport::tlb_misses`] and priced by the timing model.
    pub fn with_tlb(mut self, entries: usize, page: u64) -> Self {
        assert!(entries > 0 && page.is_power_of_two());
        self.tlb = Some(TlbSim {
            page_shift: page.trailing_zeros(),
            entries: Vec::with_capacity(entries),
            capacity: entries,
            misses: 0,
        });
        self
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// True when this hierarchy has `machine`'s cache levels and TLB
    /// geometry, so that once [reset](Hierarchy::reset) it simulates
    /// exactly what [`MachineModel::hierarchy`] would build.  Compares the
    /// configurations themselves: two machines of one name may differ.
    pub fn has_geometry_of(&self, machine: &MachineModel) -> bool {
        let tlb_matches = match (&self.tlb, machine.tlb) {
            (None, None) => true,
            (Some(t), Some(m)) => t.capacity == m.entries && (1u64 << t.page_shift) == m.page,
            _ => false,
        };
        tlb_matches && self.levels.iter().map(Cache::config).eq(&machine.caches)
    }

    /// Clears cache contents and counters: afterwards the hierarchy
    /// simulates exactly what a fresh one of its geometry would.  Each
    /// level pays for the sets it filled since the last reset, and never
    /// more than building it anew ([`Cache::reset`]).
    pub fn reset(&mut self) {
        for c in &mut self.levels {
            c.reset();
        }
        self.entry_bytes.iter_mut().for_each(|b| *b = 0);
        self.mem_read_bytes = 0;
        self.mem_write_bytes = 0;
        if let Some(t) = &mut self.tlb {
            t.entries.clear();
            t.misses = 0;
        }
    }

    /// Writes every dirty line back to memory (through intervening levels),
    /// as quiescing the machine eventually would.  Programs that end with
    /// freshly written data (STREAM, the §2.1 write loop) owe these bytes
    /// to the memory channel; without a flush they would be invisible.
    pub fn flush(&mut self) {
        for level in 0..self.levels.len() {
            let line = self.levels[level].line_size();
            for victim in self.levels[level].drain_dirty() {
                mbb_obs::tick_writeback(level);
                self.do_access(level + 1, victim, line, true, true);
            }
        }
    }

    /// Extracts the traffic report of everything streamed so far.
    pub fn report(&self) -> TrafficReport {
        TrafficReport {
            channel_bytes: self.entry_bytes.clone(),
            level_stats: self.levels.iter().map(|c| c.stats).collect(),
            mem_read_bytes: self.mem_read_bytes,
            mem_write_bytes: self.mem_write_bytes,
            tlb_misses: self.tlb.as_ref().map(|t| t.misses).unwrap_or(0),
        }
    }

    /// Services one demand access: TLB, then the level walk — with a fast
    /// path for the overwhelmingly common case of a single-line access,
    /// which skips the line-splitting walk and goes straight to one L1 set
    /// lookup.  A hit touches that one set and returns; a miss has already
    /// paid its (only) lookup and proceeds to the consequences.
    #[inline]
    fn access_one(&mut self, a: Access) {
        if let Some(t) = &mut self.tlb {
            t.access(a.addr);
        }
        let size = u64::from(a.size);
        let is_write = a.kind == AccessKind::Write;
        if !self.levels.is_empty() && self.levels[0].covers_one_line(a.addr, size) {
            self.entry_bytes[0] += size;
            mbb_obs::tick_channel_bytes(0, size);
            let line = self.levels[0].line_size();
            let line_base = a.addr & !(line - 1);
            let covers_line = a.addr == line_base && size == line;
            let outcome = self.levels[0].access_line(a.addr, is_write, covers_line);
            self.after_line(0, a.addr, size, line, line_base, outcome);
            return;
        }
        self.do_access(0, a.addr, size, is_write, false);
    }

    /// Acts on one [`LineOutcome`]: nothing on a hit; writeback, fetch and
    /// prefetch fills on a miss; store forwarding on a write-through.
    /// `a`/`seg_size` are the segment serviced, `line_base` its line.
    #[inline]
    fn after_line(
        &mut self,
        level: usize,
        a: u64,
        seg_size: u64,
        line: u64,
        line_base: u64,
        outcome: LineOutcome,
    ) {
        match outcome {
            LineOutcome::Hit => {}
            LineOutcome::Miss { writeback_of, fetched } => {
                mbb_obs::tick_miss(level);
                if let Some(victim) = writeback_of {
                    mbb_obs::tick_writeback(level);
                    self.do_access(level + 1, victim, line, true, true);
                }
                if fetched {
                    self.do_access(level + 1, line_base, line, false, false);
                }
                // Next-line prefetch: install sequential lines; their
                // fills consume downstream bandwidth like any fetch.
                let depth = self.levels[level].config().prefetch_next;
                for k in 1..=u64::from(depth) {
                    // No lines exist past the top of the address space.
                    let Some(target) = line_base.checked_add(k * line) else { break };
                    if let Some(victim) = self.levels[level].prefetch_line(target) {
                        if let Some(v) = victim {
                            mbb_obs::tick_writeback(level);
                            self.do_access(level + 1, v, line, true, true);
                        }
                        self.do_access(level + 1, target, line, false, false);
                    }
                }
            }
            LineOutcome::WroteThrough { hit } => {
                if !hit {
                    mbb_obs::tick_miss(level);
                }
                // Forward the store itself; no allocation here.
                self.do_access(level + 1, a, seg_size, true, false);
            }
        }
    }

    fn do_access(&mut self, level: usize, addr: u64, size: u64, is_write: bool, full_line: bool) {
        self.entry_bytes[level] += size;
        mbb_obs::tick_channel_bytes(level, size);
        if level == self.levels.len() {
            // Memory: infinite, just account.
            if is_write {
                self.mem_write_bytes += size;
                mbb_obs::tick_mem_write(size);
            } else {
                self.mem_read_bytes += size;
                mbb_obs::tick_mem_read(size);
            }
            return;
        }
        let line = self.levels[level].line_size();
        // Split the access at line boundaries (rare for aligned f64 cells,
        // but kept general).  Line sizes are powers of two, so rounding
        // down is a mask.
        // Saturate at the top of the address space: an access that would
        // wrap is truncated there (and `checked_add` below keeps the last
        // line's segment from wrapping `seg_end` back to zero).
        let mut a = addr;
        let end = addr.saturating_add(size);
        while a < end {
            let line_base = a & !(line - 1);
            let seg_end = line_base.checked_add(line).map_or(end, |next| next.min(end));
            let seg_size = seg_end - a;
            let covers_line = full_line || (a == line_base && seg_size == line);
            let outcome = self.levels[level].access_line(a, is_write, covers_line);
            self.after_line(level, a, seg_size, line, line_base, outcome);
            a = seg_end;
        }
    }

    /// True when every ref of a run bundle qualifies for the symbolic
    /// window walk.  Any violation sends the whole bundle down the exact
    /// element-by-element path instead (same results, element speed).
    ///
    /// The conditions, each load-bearing for exactness:
    /// - a cache level exists (the walk reasons in L1 lines);
    /// - when a TLB is modelled, its page covers at least one L1 line, so
    ///   a window that stays in one line also stays in one page;
    /// - no write ref meets a write-through L1: a write-through hit
    ///   forwards bytes below, which a hit-only touch cannot express;
    /// - no access in the run wraps the 64-bit address space (the window
    ///   algebra is monotone in the address);
    /// - no access ever straddles an L1 line.  Offsets visited by a
    ///   stride-`s` run all lie in one residue class mod `g = gcd(s mod L,
    ///   L)`, whose worst case is `L − g + (o₀ mod g)`; the access fits
    ///   every line iff `(o₀ mod g) + size ≤ g` (constant-offset runs need
    ///   only `o₀ + size ≤ L`).
    fn run_fast_eligible(&self, refs: &[RunRef], count: u64) -> bool {
        if self.levels.is_empty() {
            return false;
        }
        let l = self.levels[0].line_size();
        if let Some(t) = &self.tlb {
            if (1u64 << t.page_shift) < l {
                return false;
            }
        }
        let write_through = self.levels[0].config().policy == WritePolicy::WriteThrough;
        for r in refs {
            let size = u64::from(r.size);
            if size == 0 || size > l {
                return false;
            }
            if r.kind == AccessKind::Write && write_through {
                return false;
            }
            let first = r.base as i128;
            let last = first + r.stride as i128 * (count - 1) as i128;
            let (lo, hi) = if first <= last { (first, last) } else { (last, first) };
            if lo < 0 || hi + size as i128 > u64::MAX as i128 + 1 {
                return false;
            }
            let sm = r.stride.rem_euclid(l as i64) as u64;
            let o0 = r.base & (l - 1);
            let fits = if sm == 0 {
                o0 + size <= l
            } else {
                let g = gcd(sm, l);
                (o0 % g) + size <= g
            };
            if !fits {
                return false;
            }
        }
        true
    }

    /// Services a run bundle: the symbolic window walk when eligible, the
    /// exact element walk otherwise.
    ///
    /// The window walk partitions `0..count` into maximal *windows* —
    /// iteration spans in which no ref's line address changes.  Within a
    /// window every iteration performs the identical touch cycle over the
    /// same lines and pages, and a touch cycle is idempotent on MRU state:
    /// one application reaches the fixed point (each line ordered by its
    /// last touch in the cycle), repeats are no-ops.  So when every line
    /// and page of the window is resident, the walk applies the cycle
    /// *once* and bulk-adds `window × per-iteration` hit counters — no
    /// per-element work at all.  Pure-hit windows evict and install
    /// nothing, so residency observed at the window head holds throughout.
    ///
    /// The residency check is two-phase: first a pure probe of every
    /// distinct line (and its page), then — only if all are resident — the
    /// state application.  A failed probe therefore leaves *no* partial
    /// state, and only the window's head iteration is replayed through
    /// [`Hierarchy::access_one`], which handles misses, evictions,
    /// prefetches and TLB fills exactly as the scalar engine would.  The
    /// rest of the window is an ordinary window starting one iteration
    /// later, so it is probed again: an out-of-cache stream misses only
    /// at the head of each line and bulk-walks the remainder.  Only when
    /// that second probe also misses (a conflict thrash, where the head's
    /// own fills evicted a line the window needs) is the rest replayed
    /// element by element, since probing every iteration would not pay.
    fn run_walk(&mut self, refs: &[RunRef], count: u64) {
        if refs.is_empty() || count == 0 {
            return;
        }
        if !self.run_fast_eligible(refs, count) {
            for k in 0..count {
                for r in refs {
                    self.access_one(r.at(k));
                }
            }
            return;
        }

        let line_sz = self.levels[0].line_size();
        let lmask = line_sz - 1;
        let line_shift = line_sz.trailing_zeros();

        // Refs that provably share a line at *every* iteration collapse
        // into one probe.  A ref joins a group iff it has the group's
        // stride and sits at a non-negative offset `d` from the leader
        // with `max_off + d + size ≤ L` (`max_off` being the leader's
        // worst-case line offset over all iterations) — then it lives in
        // the leader's line at every k.  Refs not grouped together may
        // still alias a line at *some* iterations; that is harmless: the
        // touch cycle below orders groups by last member position, so an
        // aliased line's final MRU position is set by whichever group
        // touches it last, exactly as in the scalar cycle.
        struct Group {
            base: u64,
            stride: i64,
            is_write: bool,
            /// Last member's position in access order (touch-cycle order).
            last: usize,
            max_off: u64,
            /// Leader address at the current window head.
            cur_addr: u64,
            /// Cached L1 coordinates of the current line: valid while the
            /// line address is unchanged and only pure-hit windows have
            /// run since the probe (those install and evict nothing, and
            /// MRU touches permute the order vector, not the ways).
            line: u64,
            set_idx: u32,
            way: u8,
            cache_ok: bool,
            /// Current TLB page, and whether it is known resident with the
            /// window touch cycle already applied (see `tlb_cycle_ok`).
            page: u64,
            tlb_ok: bool,
            /// Cached shuffled frame of the current L1 index page.  The
            /// frame is a pure function of the page number, so this cache
            /// never invalidates — it is refreshed only when the line
            /// crosses into another shuffle page.
            ipage: u64,
            iframe: u64,
            frame_ok: bool,
        }
        let mut groups: Vec<Group> = Vec::new();
        for (j, r) in refs.iter().enumerate() {
            let size = u64::from(r.size);
            let joined = groups.iter_mut().any(|g| {
                let d = r.base.wrapping_sub(g.base);
                if g.stride == r.stride && r.base >= g.base && g.max_off + d + size <= line_sz {
                    g.is_write |= r.kind == AccessKind::Write;
                    g.last = j;
                    true
                } else {
                    false
                }
            });
            if !joined {
                let sm = r.stride.rem_euclid(line_sz as i64) as u64;
                let o0 = r.base & lmask;
                let max_off = if sm == 0 {
                    o0
                } else {
                    let g = gcd(sm, line_sz);
                    line_sz - g + (o0 % g)
                };
                groups.push(Group {
                    base: r.base,
                    stride: r.stride,
                    is_write: r.kind == AccessKind::Write,
                    last: j,
                    max_off,
                    cur_addr: 0,
                    line: 0,
                    set_idx: 0,
                    way: 0,
                    cache_ok: false,
                    page: 0,
                    tlb_ok: false,
                    ipage: 0,
                    iframe: 0,
                    frame_ok: false,
                });
            }
        }
        groups.sort_by_key(|g| g.last);

        let total_reads = refs.iter().filter(|r| r.kind == AccessKind::Read).count() as u64;
        let total_writes = refs.len() as u64 - total_reads;
        let bytes_per_iter: u64 = refs.iter().map(|r| u64::from(r.size)).sum();

        let page_shift = self.tlb.as_ref().map(|t| t.page_shift);
        let shuffle_shift = self.levels[0].shuffle_lines_shift();
        // True while the TLB's MRU order sits at the fixed point of the
        // current touch cycle: every group's page unchanged since the
        // cycle was last applied, and no scalar replay in between.  The
        // cycle is idempotent (each page ends ordered by its last touch),
        // so re-applying it would be a no-op — skip it entirely.
        let mut tlb_cycle_ok = false;

        let mut bulk_iters: u64 = 0;
        // True when the window starting at `k` is the rest of a window
        // whose head iteration was just replayed after a failed probe.
        let mut after_head = false;
        let mut k: u64 = 0;
        while k < count {
            let remaining = count - k;
            // Window = the largest span in which no group leaves its line.
            let mut w = remaining;
            for g in groups.iter_mut() {
                let addr = g.base.wrapping_add(g.stride.wrapping_mul(k as i64) as u64);
                g.cur_addr = addr;
                let la = addr >> line_shift;
                if g.cache_ok && la != g.line {
                    g.cache_ok = false;
                }
                g.line = la;
                if let Some(ps) = page_shift {
                    let page = addr >> ps;
                    if !g.tlb_ok || page != g.page {
                        g.page = page;
                        g.tlb_ok = false;
                        tlb_cycle_ok = false;
                    }
                }
                let delta = match g.stride {
                    0 => remaining,
                    s if s > 0 => {
                        let o = addr & lmask;
                        (line_sz - o).div_ceil(s as u64)
                    }
                    s => {
                        let o = addr & lmask;
                        o / s.unsigned_abs() + 1
                    }
                };
                w = w.min(delta);
            }

            // Phase 1: pure probes — no state change on any outcome.  A
            // page already probed keeps its residency across pure-hit
            // windows (those install and evict nothing), so only groups
            // whose page changed probe the TLB again.
            let mut all_hit = true;
            for g in groups.iter_mut() {
                if !g.tlb_ok {
                    if let Some(t) = &self.tlb {
                        if !t.probe(g.cur_addr) {
                            all_hit = false;
                            break;
                        }
                    }
                }
                if g.cache_ok {
                    continue;
                }
                // The shuffled frame is a pure function of the index page,
                // so the hash is paid once per page, not once per line.
                let index_addr = match shuffle_shift {
                    None => g.line,
                    Some(shift) => {
                        let ipage = g.line >> shift;
                        if !g.frame_ok || ipage != g.ipage {
                            g.ipage = ipage;
                            g.iframe = self.levels[0].frame_of_page(ipage);
                            g.frame_ok = true;
                        }
                        g.iframe.wrapping_add(g.line & ((1u64 << shift) - 1))
                    }
                };
                match self.levels[0].probe_indexed(index_addr, g.line) {
                    Some((set_idx, way)) => {
                        g.set_idx = set_idx;
                        g.way = way;
                        g.cache_ok = true;
                    }
                    None => {
                        all_hit = false;
                        break;
                    }
                }
            }

            if all_hit {
                // Phase 2: one touch cycle, in last-member order — the
                // fixed point of the window's per-iteration cycle.  The
                // TLB half is skipped while already at its fixed point.
                if !tlb_cycle_ok {
                    if let Some(t) = &mut self.tlb {
                        for g in groups.iter_mut() {
                            t.touch(g.cur_addr);
                            g.tlb_ok = true;
                        }
                    }
                    tlb_cycle_ok = true;
                }
                for g in groups.iter() {
                    self.levels[0].apply_touch(g.set_idx, g.way, g.is_write);
                }
                bulk_iters += w;
                after_head = false;
            } else {
                // Exact replay of the head iteration, or of the whole rest
                // of a window whose head already missed; it may evict and
                // install (including TLB fills), so every cached
                // coordinate is stale after it.
                let head_only = !after_head;
                after_head = head_only && w > 1;
                if head_only {
                    w = 1;
                }
                for i in k..k + w {
                    for r in refs {
                        self.access_one(r.at(i));
                    }
                }
                for g in groups.iter_mut() {
                    g.cache_ok = false;
                    g.tlb_ok = false;
                }
                tlb_cycle_ok = false;
            }
            k += w;
        }

        if bulk_iters > 0 {
            let stats = &mut self.levels[0].stats;
            stats.read_hits = stats.read_hits.wrapping_add(bulk_iters.wrapping_mul(total_reads));
            stats.write_hits = stats.write_hits.wrapping_add(bulk_iters.wrapping_mul(total_writes));
            let bytes = bulk_iters.wrapping_mul(bytes_per_iter);
            self.entry_bytes[0] += bytes;
            mbb_obs::tick_channel_bytes(0, bytes);
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl AccessSink for Hierarchy {
    fn access(&mut self, a: Access) {
        mbb_obs::tick_accesses(1);
        self.access_one(a);
    }

    fn access_runs(&mut self, refs: &[RunRef], count: u64) {
        mbb_obs::tick_accesses(count.wrapping_mul(refs.len() as u64));
        self.run_walk(refs, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_ir::trace::Access;

    fn two_level() -> Hierarchy {
        Hierarchy::new(vec![
            CacheConfig::write_back("L1", 256, 32, 2),
            CacheConfig::write_back("L2", 1024, 64, 2),
        ])
    }

    #[test]
    fn stride_one_read_traffic() {
        let mut h = two_level();
        // 64 sequential f64 reads = 512 B: 16 L1 lines, 8 L2 lines.
        for k in 0..64u64 {
            h.access(Access::read(k * 8, 8));
        }
        let r = h.report();
        assert_eq!(r.reg_bytes(), 512);
        assert_eq!(r.channel_bytes[1], 16 * 32); // L1 fetches
        assert_eq!(r.channel_bytes[2], 8 * 64); // L2 fetches
        assert_eq!(r.mem_read_bytes, 512);
        assert_eq!(r.mem_write_bytes, 0);
        assert_eq!(r.level_stats[0].read_misses, 16);
        assert_eq!(r.level_stats[0].read_hits, 48);
        assert_eq!(r.level_stats[1].read_misses, 8);
    }

    #[test]
    fn read_modify_write_doubles_memory_traffic() {
        // The §2.1 example: `a[i] = a[i] + c` moves each byte twice
        // (fetch + eventual writeback) while `sum += a[i]` moves it once.
        let n_bytes = 4096u64; // larger than both caches
        let mut h = two_level();
        for k in 0..n_bytes / 8 {
            h.access(Access::read(k * 8, 8));
            h.access(Access::write(k * 8, 8));
        }
        // Flush dirty lines by streaming a disjoint read range through.
        for k in 0..n_bytes / 8 {
            h.access(Access::read(1 << 20 | (k * 8), 8));
        }
        let r = h.report();
        assert_eq!(r.mem_read_bytes, 2 * n_bytes); // both ranges fetched
        assert_eq!(r.mem_write_bytes, n_bytes); // first range written back
    }

    #[test]
    fn writeback_propagates_full_line_without_fetch() {
        let mut h = two_level();
        // Dirty one L1 line, then evict it via conflicting reads.
        h.access(Access::write(0, 8));
        // L1: 256 B / 32 B / 2-way = 4 sets; line 0 conflicts with lines 4, 8.
        h.access(Access::read(4 * 32, 8));
        h.access(Access::read(8 * 32, 8));
        let r = h.report();
        assert_eq!(r.level_stats[0].writebacks, 1);
        // The L2 received the 32 B writeback as a write; it must not have
        // triggered a memory fetch (full-line write allocate).
        assert_eq!(r.mem_write_bytes, 0, "writeback absorbed by L2");
    }

    #[test]
    fn channel_invariant_fetch_plus_writeback() {
        let mut h = two_level();
        for k in 0..512u64 {
            h.access(Access::write(k * 8, 8));
            h.access(Access::read((k * 8 + 2048) % 8192, 8));
        }
        let r = h.report();
        let l1 = &r.level_stats[0];
        assert_eq!(
            r.channel_bytes[1],
            (l1.fetches + l1.writebacks) * 32,
            "L1↔L2 bytes = (fetches + writebacks) × line"
        );
        let l2 = &r.level_stats[1];
        assert_eq!(r.channel_bytes[2], (l2.fetches + l2.writebacks) * 64);
        assert_eq!(r.mem_bytes(), r.mem_read_bytes + r.mem_write_bytes);
    }

    #[test]
    fn single_level_direct_mapped_hierarchy() {
        // Exemplar-like: one direct-mapped level.
        let mut h = Hierarchy::new(vec![CacheConfig::write_back("L1", 256, 32, 1)]);
        for k in 0..32u64 {
            h.access(Access::read(k * 8, 8));
        }
        let r = h.report();
        assert_eq!(r.channel_bytes.len(), 2);
        assert_eq!(r.reg_bytes(), 256);
        assert_eq!(r.channel_bytes[1], 8 * 32);
    }

    #[test]
    fn reset_zeroes_report() {
        let mut h = two_level();
        h.access(Access::read(0, 8));
        h.reset();
        let r = h.report();
        assert_eq!(r.reg_bytes(), 0);
        assert_eq!(r.mem_bytes(), 0);
    }

    #[test]
    fn straddling_access_splits() {
        let mut h = two_level();
        // 8-byte access straddling a 32-byte boundary touches two lines.
        h.access(Access::read(28, 8));
        let r = h.report();
        assert_eq!(r.level_stats[0].read_misses, 2);
    }

    #[test]
    fn access_ticks_the_odometer_once_per_event() {
        let before = crate::events::so_far();
        let mut h = two_level();
        for k in 0..100u64 {
            h.access(Access::read(k * 8, 8));
        }
        assert_eq!(crate::events::so_far() - before, 100);
    }
}

#[cfg(test)]
mod run_tests {
    use super::*;
    use mbb_ir::trace::{Access, RunRef};

    /// Feeds the same run bundle through the symbolic walk and through the
    /// scalar expansion into twin hierarchies; reports must be identical.
    fn assert_runs_match(mk: impl Fn() -> Hierarchy, refs: &[RunRef], count: u64) {
        let mut fast = mk();
        fast.access_runs(refs, count);
        let mut scalar = mk();
        for k in 0..count {
            for r in refs {
                scalar.access(r.at(k));
            }
        }
        assert_eq!(fast.report(), scalar.report());
        // And after a full flush (drains dirty lines both sides).
        fast.flush();
        scalar.flush();
        assert_eq!(fast.report(), scalar.report());
    }

    fn two_level() -> Hierarchy {
        Hierarchy::new(vec![
            CacheConfig::write_back("L1", 256, 32, 2),
            CacheConfig::write_back("L2", 1024, 64, 2),
        ])
    }

    fn rr(base: u64, stride: i64, kind: AccessKind) -> RunRef {
        RunRef { base, stride, size: 8, kind }
    }

    #[test]
    fn streaming_triad_matches_scalar() {
        let refs = [
            rr(0, 8, AccessKind::Read),
            rr(8192, 8, AccessKind::Read),
            rr(16384, 8, AccessKind::Write),
        ];
        assert_runs_match(two_level, &refs, 512);
    }

    #[test]
    fn resident_rerun_is_hit_dominated_and_exact() {
        // Second pass over a 128-byte footprint: everything resident.
        let refs = [rr(0, 8, AccessKind::Read), rr(64, 8, AccessKind::Write)];
        let mut fast = two_level();
        fast.access_runs(&refs, 8);
        fast.access_runs(&refs, 8);
        let mut scalar = two_level();
        for _ in 0..2 {
            for k in 0..8 {
                for r in &refs {
                    scalar.access(r.at(k));
                }
            }
        }
        assert_eq!(fast.report(), scalar.report());
        assert!(fast.report().level_stats[0].read_hits > 0);
    }

    #[test]
    fn negative_and_zero_strides_match() {
        let refs = [
            rr(4096, -8, AccessKind::Read),
            rr(120, 0, AccessKind::Read), // loop-invariant cell
            rr(8192, -24, AccessKind::Write),
        ];
        assert_runs_match(two_level, &refs, 300);
    }

    #[test]
    fn shared_line_groups_match() {
        // Adjacent same-line refs (interleaved re/im pairs) collapse into
        // one probe group; an aliasing read of the same cells rides along.
        let refs = [
            rr(0, 16, AccessKind::Read),
            rr(8, 16, AccessKind::Read),
            rr(1024, 16, AccessKind::Write),
            rr(1032, 16, AccessKind::Write),
            rr(0, 16, AccessKind::Write), // aliases group 0, different group order
        ];
        assert_runs_match(two_level, &refs, 256);
    }

    #[test]
    fn straddling_ref_falls_back_exactly() {
        // A misaligned 8-byte stride-12 ref straddles lines: whole bundle
        // takes the element walk, still byte-identical.
        let refs = [rr(0, 8, AccessKind::Read), rr(28, 12, AccessKind::Write)];
        assert_runs_match(two_level, &refs, 200);
    }

    #[test]
    fn write_through_l1_falls_back_exactly() {
        let mk = || {
            Hierarchy::new(vec![
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
            ])
        };
        let refs = [rr(0, 8, AccessKind::Read), rr(512, 8, AccessKind::Write)];
        assert_runs_match(mk, &refs, 256);
        // Read-only bundles stay on the fast path under write-through.
        assert_runs_match(mk, &[rr(0, 8, AccessKind::Read)], 256);
    }

    #[test]
    fn tlb_and_page_shuffle_match() {
        let mk = || {
            Hierarchy::new(vec![
                CacheConfig::write_back("L1", 512, 32, 2).with_page_shuffle(256),
                CacheConfig::write_back("L2", 4096, 128, 2),
            ])
            .with_tlb(4, 1024)
        };
        let refs = [
            rr(0, 8, AccessKind::Read),
            rr(1 << 16, 8, AccessKind::Write),
            rr(1 << 20, 40, AccessKind::Read),
        ];
        assert_runs_match(mk, &refs, 600);
    }

    #[test]
    fn prefetching_level_matches() {
        let mk =
            || Hierarchy::new(vec![CacheConfig::write_back("L1", 256, 32, 2).with_prefetch(1)]);
        let refs = [rr(0, 8, AccessKind::Read), rr(4096, 64, AccessKind::Write)];
        assert_runs_match(mk, &refs, 400);
    }

    #[test]
    fn direct_mapped_conflict_stream_matches() {
        // Two streams one cache-size apart thrash a direct-mapped L1;
        // the interleaved order is what makes them conflict, so this
        // guards the walk's order preservation.
        let mk = || Hierarchy::new(vec![CacheConfig::write_back("L1", 256, 32, 1)]);
        let refs = [rr(0, 8, AccessKind::Read), rr(256, 8, AccessKind::Read)];
        assert_runs_match(mk, &refs, 128);
    }

    #[test]
    fn odd_set_count_matches() {
        let mk = || Hierarchy::new(vec![CacheConfig::write_back("odd", 96, 32, 1)]);
        let refs = [rr(0, 8, AccessKind::Read), rr(96, 8, AccessKind::Write)];
        assert_runs_match(mk, &refs, 120);
    }

    #[test]
    fn three_streams_thrashing_one_two_way_set_match() {
        // STREAM add/triad's shape: three streams a multiple of the way
        // size apart share every set of a 2-way L1, so each access evicts
        // a line the next one needs.  The head replay's own fills make the
        // second probe miss too, and the rest of the window is replayed.
        let refs = [
            rr(0, 8, AccessKind::Read),
            rr(4096, 8, AccessKind::Read),
            rr(8192, 8, AccessKind::Write),
        ];
        assert_runs_match(two_level, &refs, 256);
        let mut h = two_level();
        h.access_runs(&refs, 256);
        let l1 = h.report().level_stats[0];
        assert_eq!(l1.misses(), 3 * 256, "every access misses the thrashed L1");
    }

    #[test]
    fn prefetch_on_a_head_miss_fills_the_windows_next_line() {
        // The second stream runs one line ahead of the first: the head
        // miss on the first stream's line prefetches the second's, so the
        // second probe hits and the rest of the window bulk-walks.
        let mk =
            || Hierarchy::new(vec![CacheConfig::write_back("L1", 256, 32, 2).with_prefetch(1)]);
        let refs = [rr(0, 8, AccessKind::Read), rr(32, 8, AccessKind::Write)];
        assert_runs_match(mk, &refs, 200);
    }

    #[test]
    fn tlb_smaller_than_the_windows_pages_matches() {
        // Three pages per window against a 2-entry TLB: the head replay's
        // TLB fills evict a page the window needs, so every probe misses.
        let mk = || {
            Hierarchy::new(vec![
                CacheConfig::write_back("L1", 4096, 32, 2),
                CacheConfig::write_back("L2", 16384, 64, 2),
            ])
            .with_tlb(2, 256)
        };
        let refs = [
            rr(0, 8, AccessKind::Read),
            rr(1024, 8, AccessKind::Read),
            rr(2048, 8, AccessKind::Write),
        ];
        assert_runs_match(mk, &refs, 128);
        let mut h = mk();
        h.access_runs(&refs, 128);
        assert_eq!(h.report().tlb_misses, 3 * 128, "every access misses the TLB");
    }

    #[test]
    fn run_walk_ticks_the_odometer_once_per_event() {
        let before = crate::events::so_far();
        let mut h = two_level();
        h.access_runs(
            &[
                RunRef { base: 0, stride: 8, size: 8, kind: AccessKind::Read },
                RunRef { base: 4096, stride: 8, size: 8, kind: AccessKind::Write },
            ],
            64,
        );
        assert_eq!(crate::events::so_far() - before, 128);
    }

    #[test]
    fn empty_and_zero_size_runs_match() {
        assert_runs_match(two_level, &[], 100);
        assert_runs_match(two_level, &[rr(0, 8, AccessKind::Read)], 0);
        // Zero-size accesses take the element walk (TLB-only traffic).
        let refs = [RunRef { base: 0, stride: 8, size: 0, kind: AccessKind::Read }];
        assert_runs_match(|| two_level().with_tlb(4, 256), &refs, 50);
    }

    /// Accesses touching the last line of the 64-bit address space must
    /// terminate (they are truncated at the top, never wrapped back to
    /// address zero), and a negative-stride run that wraps below zero
    /// produces exactly such addresses — the fallback must survive them.
    /// Regression: `do_access`'s segment split once wrapped `seg_end` to
    /// zero here and restarted the walk from the bottom of memory.
    #[test]
    fn top_of_address_space_terminates_and_matches() {
        let mut h = two_level();
        // Straddles the top: 4 bytes exist, 4 would wrap.
        h.access(Access { addr: u64::MAX - 3, size: 8, kind: AccessKind::Read });
        h.access(Access { addr: u64::MAX, size: 8, kind: AccessKind::Write });
        std::hint::black_box(h.report());

        // base 0, stride −40: iteration 1 lands at 0xFFFF_FFFF_FFFF_FFD8.
        let refs = [RunRef { base: 0, stride: -40, size: 1, kind: AccessKind::Read }];
        assert_runs_match(two_level, &refs, 200);
        assert_runs_match(|| two_level().with_tlb(4, 256), &refs, 200);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use mbb_ir::trace::Access;

    #[test]
    fn next_line_prefetch_halves_demand_misses_on_streams() {
        let base = CacheConfig::write_back("L1", 256, 32, 2);
        let run = |cfg: CacheConfig| {
            let mut h = Hierarchy::new(vec![cfg]);
            for k in 0..512u64 {
                h.access(Access::read(k * 8, 8));
            }
            h.report()
        };
        let plain = run(base.clone());
        let pf = run(base.with_prefetch(1));
        // Same bytes fetched either way (sequential stream: every prefetch
        // is useful)…
        assert_eq!(plain.mem_read_bytes, pf.mem_read_bytes);
        // …but roughly half the *demand* misses remain: latency tolerated,
        // bandwidth unchanged — §1 of the paper in two counters.
        assert!(pf.level_stats[0].misses() * 2 <= plain.level_stats[0].misses() + 2);
        assert!(pf.level_stats[0].prefetches > 0);
    }

    #[test]
    fn useless_prefetches_waste_bandwidth() {
        // Stride-two-line reads: every prefetched line is skipped over, so
        // prefetching doubles memory traffic without helping.
        let base = CacheConfig::write_back("L1", 256, 32, 2);
        let run = |cfg: CacheConfig| {
            let mut h = Hierarchy::new(vec![cfg]);
            for k in 0..128u64 {
                h.access(Access::read(k * 64, 8)); // one access per 2 lines
            }
            h.report()
        };
        let plain = run(base.clone());
        let pf = run(base.with_prefetch(1));
        assert!(
            pf.mem_read_bytes >= 2 * plain.mem_read_bytes - 64,
            "prefetch {} vs plain {}",
            pf.mem_read_bytes,
            plain.mem_read_bytes
        );
        assert_eq!(pf.level_stats[0].misses(), plain.level_stats[0].misses());
    }

    #[test]
    fn prefetch_evictions_write_back_dirty_victims() {
        // A dirty line evicted by a prefetch must still reach memory.
        let cfg = CacheConfig::write_back("L1", 64, 32, 1).with_prefetch(1); // 2 sets
        let mut h = Hierarchy::new(vec![cfg]);
        h.access(Access::write(0, 8)); // line 0 dirty (set 0); prefetches line 1 (set 1)
        h.access(Access::read(128, 8)); // line 4 (set 0): evicts dirty line 0; prefetch line 5
        let r = h.report();
        assert!(r.mem_write_bytes >= 32, "{}", r.mem_write_bytes);
    }
}

#[cfg(test)]
mod tlb_tests {
    use super::*;
    use mbb_ir::trace::Access;

    fn with_tlb() -> Hierarchy {
        Hierarchy::new(vec![CacheConfig::write_back("L1", 4096, 32, 2)]).with_tlb(4, 256)
    }

    #[test]
    fn sequential_accesses_miss_once_per_page() {
        let mut h = with_tlb();
        for k in 0..128u64 {
            h.access(Access::read(k * 8, 8)); // 1 KB = 4 pages of 256 B
        }
        assert_eq!(h.report().tlb_misses, 4);
    }

    #[test]
    fn reuse_within_capacity_hits() {
        let mut h = with_tlb();
        for _ in 0..10 {
            for page in 0..4u64 {
                h.access(Access::read(page * 256, 8));
            }
        }
        assert_eq!(h.report().tlb_misses, 4, "4 pages fit the 4 entries");
    }

    #[test]
    fn thrash_beyond_capacity() {
        let mut h = with_tlb();
        // 5 pages round-robin through a 4-entry LRU: every access misses.
        for _ in 0..10 {
            for page in 0..5u64 {
                h.access(Access::read(page * 256, 8));
            }
        }
        assert_eq!(h.report().tlb_misses, 50);
    }

    #[test]
    fn no_tlb_reports_zero() {
        let mut h = Hierarchy::new(vec![CacheConfig::write_back("L1", 4096, 32, 2)]);
        h.access(Access::read(0, 8));
        assert_eq!(h.report().tlb_misses, 0);
    }

    #[test]
    fn reset_clears_tlb() {
        let mut h = with_tlb();
        h.access(Access::read(0, 8));
        h.reset();
        assert_eq!(h.report().tlb_misses, 0);
        h.access(Access::read(0, 8));
        assert_eq!(h.report().tlb_misses, 1, "cold again after reset");
    }
}
