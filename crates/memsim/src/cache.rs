//! A single set-associative cache level with LRU replacement.
//!
//! The simulator is *trace-exact*: every hit, miss and writeback is the one
//! a real cache with the same geometry would take on the same address
//! stream.  Event counts — not timing — are produced here; the timing model
//! lives in [`crate::timing`].

/// Write-handling policy of a cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WritePolicy {
    /// Write-back, write-allocate: stores dirty the line; dirty evictions
    /// cost a writeback to the next level.  Both the R10K's caches and the
    /// PA-8000's data cache are write-back, which is why the paper's store
    /// elimination pays off: a removed store removes a whole-line writeback.
    WriteBack,
    /// Write-through, no-allocate: every store is forwarded to the next
    /// level immediately; store misses do not allocate.
    WriteThrough,
}

/// Geometry and policy of one cache level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Diagnostic name ("L1", "L2", …).
    pub name: String,
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (1 = direct-mapped).
    pub assoc: u32,
    /// Write policy.
    pub policy: WritePolicy,
    /// Next-line prefetch depth: on a demand miss, the hierarchy also
    /// fetches this many sequential lines (0 = no prefetching).  Models
    /// the latency-tolerance techniques of §1 — which, as the paper says,
    /// trade *bandwidth* for latency: useless prefetches consume the
    /// memory channel.
    pub prefetch_next: u32,
    /// Physical-indexing emulation: when set, the set index is computed
    /// from a deterministic per-page shuffle of the address at this page
    /// granularity.  This models an OS that places pages randomly in
    /// physical memory (IRIX on the Origin2000), which breaks the
    /// pathological set conflicts that contiguous same-size arrays would
    /// otherwise produce.  `None` models strict page colouring (HP-UX on
    /// the Exemplar), where virtual-address conflicts hit the cache
    /// directly — the source of the paper's `3w6r` outlier in Figure 3.
    pub page_shuffle: Option<u64>,
}

impl CacheConfig {
    /// A write-back, write-allocate cache with virtual (unshuffled)
    /// indexing.
    pub fn write_back(name: &str, size: u64, line: u64, assoc: u32) -> Self {
        CacheConfig {
            name: name.into(),
            size,
            line,
            assoc,
            policy: WritePolicy::WriteBack,
            prefetch_next: 0,
            page_shuffle: None,
        }
    }

    /// The same cache with next-line prefetching of the given depth.
    pub fn with_prefetch(mut self, depth: u32) -> Self {
        self.prefetch_next = depth;
        self
    }

    /// The same cache with per-page index shuffling at `page` bytes.
    pub fn with_page_shuffle(mut self, page: u64) -> Self {
        assert!(page.is_power_of_two() && page >= self.line);
        self.page_shuffle = Some(page);
        self
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.size / self.line / u64::from(self.assoc)).max(1)
    }
}

/// Event counters for one cache level.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LevelStats {
    /// Load hits.
    pub read_hits: u64,
    /// Load misses.
    pub read_misses: u64,
    /// Store hits.
    pub write_hits: u64,
    /// Store misses.
    pub write_misses: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
    /// Lines fetched from the next level.
    pub fetches: u64,
    /// Lines installed by the prefetcher (also counted in `fetches`).
    pub prefetches: u64,
}

impl LevelStats {
    /// All misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// All accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Miss ratio (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    dirty: bool,
    valid: bool,
}

impl Line {
    const INVALID: Line = Line { tag: 0, dirty: false, valid: false };
}

/// What a single-line access did, as seen by the next level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LineOutcome {
    /// The line was present.
    Hit,
    /// The line was fetched; optionally a dirty victim was evicted.
    Miss {
        /// Byte address of the written-back victim line, if any.
        writeback_of: Option<u64>,
        /// Whether a fetch from the next level was needed (full-line writes
        /// in a write-back cache allocate without fetching).
        fetched: bool,
    },
    /// Write-through store forwarded below (never allocates on miss).
    WroteThrough {
        /// Whether the store hit in this level.
        hit: bool,
    },
}

/// The lines and LRU orders of every set of one level, flat and set-major:
/// way `w` of set `s` sits at index `s * ways + w` of both arrays.  A level
/// is two allocations however many sets it has — building and dropping a
/// cold hierarchy costs a few allocations and a fill, not one allocation
/// per set.
#[derive(Clone, Debug)]
struct SetStore {
    ways: usize,
    lines: Vec<Line>,
    /// Per-set LRU order: `lru[s * ways]` is set `s`'s MRU way index.
    lru: Vec<u8>,
}

/// `WAY_ORDER[..ways]` is the LRU order of an empty set: way 0 in front,
/// the last way first to be evicted.
const WAY_ORDER: [u8; 256] = {
    let mut order = [0; 256];
    let mut w = 0;
    while w < 256 {
        order[w] = w as u8;
        w += 1;
    }
    order
};

impl SetStore {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(
            ways <= WAY_ORDER.len(),
            "associativity must fit the u8 LRU order (at most 256 ways)"
        );
        SetStore {
            ways,
            lines: vec![Line::INVALID; sets * ways],
            lru: WAY_ORDER[..ways].repeat(sets),
        }
    }

    #[inline]
    fn lines_of(&self, set: usize) -> &[Line] {
        let base = set * self.ways;
        &self.lines[base..base + self.ways]
    }

    #[inline]
    fn set_mut(&mut self, set: usize) -> (&mut [Line], &mut [u8]) {
        let base = set * self.ways;
        (&mut self.lines[base..base + self.ways], &mut self.lru[base..base + self.ways])
    }

    /// Set `set` back to the state [`SetStore::new`] builds.
    fn reset_set(&mut self, set: usize) {
        let base = set * self.ways;
        self.lines[base..base + self.ways].fill(Line::INVALID);
        self.lru[base..base + self.ways].copy_from_slice(&WAY_ORDER[..self.ways]);
    }

    /// Every set back to the state [`SetStore::new`] builds, at the cost
    /// of a build: one fill and one doubling copy, as `repeat` makes.
    fn reset_all(&mut self) {
        self.lines.fill(Line::INVALID);
        self.lru[..self.ways].copy_from_slice(&WAY_ORDER[..self.ways]);
        let mut done = self.ways;
        while done < self.lru.len() {
            let n = done.min(self.lru.len() - done);
            self.lru.copy_within(..n, done);
            done += n;
        }
    }
}

/// The sets of one level that received a line since the last reset, so a
/// reset restores only those.  A set's first install is found in O(1): in
/// a set that holds no line the LRU victim is the last way and is
/// invalid, and no line is invalidated between resets, so no later
/// install in the set sees both.  Only the miss and prefetch install
/// paths record; a hit needs a line, so its set is already recorded.
///
/// Past `limit` sets the record stops: restoring that many sets one by
/// one would cost more than restoring the whole level, which is what the
/// reset then does.
#[derive(Clone, Debug)]
struct TouchedSets {
    sets: Vec<u32>,
    /// At most this many sets are recorded (about an eighth of the level).
    limit: usize,
    /// More than `limit` sets received a line.
    overflowed: bool,
}

impl TouchedSets {
    fn new(sets: usize) -> Self {
        TouchedSets { sets: Vec::new(), limit: sets.div_ceil(8), overflowed: false }
    }

    /// Records an install into set `set` of `ways` ways at its LRU victim,
    /// way `victim_way`, which held `victim`.
    #[inline]
    fn note_install(&mut self, set: usize, ways: usize, victim_way: usize, victim: Line) {
        // Once a level is warm every victim is valid, so this first test
        // is the one predictable branch a miss pays.
        if victim.valid || victim_way != ways - 1 || self.overflowed {
            return;
        }
        if self.sets.len() == self.limit {
            self.overflowed = true;
        } else {
            self.sets.push(set as u32);
        }
    }
}

/// An index of one level's dirty lines: one bit per line in storage order
/// (`set * ways + way`), set exactly while that line's `dirty` flag is.
/// A drain visits the set bits in increasing order — the set-major,
/// way-minor order of a scan — reading one bit per line at most instead
/// of every line.  The lines keep their own flag, so the access paths test
/// dirtiness in the line they already hold and touch the index only when
/// a line turns dirty or a dirty one leaves.
///
/// The bitmap is allocated at the level's first dirtying, so building a
/// cold hierarchy allocates nothing for it, and a level that is never
/// written never allocates it at all.
#[derive(Clone, Debug)]
struct DirtyLines {
    bits: Vec<u64>,
    /// Lines in the level (the bitmap's length in bits once allocated).
    lines: usize,
    /// Set bits.
    count: usize,
}

impl DirtyLines {
    fn new(lines: usize) -> Self {
        DirtyLines { bits: Vec::new(), lines, count: 0 }
    }

    /// Records that clean line `i` became dirty.
    #[inline]
    fn mark(&mut self, i: usize) {
        if self.bits.is_empty() {
            self.bits = vec![0; self.lines.div_ceil(64)];
        }
        self.bits[i / 64] |= 1 << (i % 64);
        self.count += 1;
    }

    /// Records that dirty line `i` was replaced.
    #[inline]
    fn unmark(&mut self, i: usize) {
        self.bits[i / 64] &= !(1 << (i % 64));
        self.count -= 1;
    }

    /// Clears every bit, calling `f` with each dirty line's index in
    /// increasing order.  Stops scanning after the last dirty line.
    fn drain(&mut self, mut f: impl FnMut(usize)) {
        let mut left = self.count;
        for (w, word) in self.bits.iter_mut().enumerate() {
            if left == 0 {
                break;
            }
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
                left -= 1;
            }
        }
        self.count = 0;
    }

    fn clear(&mut self) {
        // A drained bitmap is already all zeros.
        if self.count > 0 {
            self.bits.fill(0);
            self.count = 0;
        }
    }
}

/// One cache level.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: SetStore,
    dirty: DirtyLines,
    touched: TouchedSets,
    /// Event counters.
    pub stats: LevelStats,
    // Geometry precomputed at construction so the per-access path is all
    // shifts and masks (64-bit divides by runtime values dominate the
    // profile otherwise).
    /// `log2(line)`: `addr >> line_shift` is the line address.
    line_shift: u32,
    /// `sets − 1` when the set count is a power of two (the mask fast
    /// case); `None` falls back to `% sets` for odd geometries.
    set_mask: Option<u64>,
    /// Set count, for the modulo fallback.
    set_count: u64,
    /// `log2(lines per shuffle page)` when page shuffling is on (page and
    /// line are both powers of two, so this is exact).
    shuffle_shift: Option<u32>,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    /// Panics unless the line size is a power of two and the associativity
    /// is between 1 and 256 (way indices must fit the `u8` LRU entries).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.assoc >= 1, "associativity must be at least 1");
        let sets = cfg.sets() as usize;
        let ways = cfg.assoc as usize;
        let shuffle_shift = cfg.page_shuffle.map(|page| {
            assert!(
                page.is_power_of_two() && page >= cfg.line,
                "shuffle page must be a power of two covering at least one line"
            );
            (page / cfg.line).trailing_zeros()
        });
        Cache {
            sets: SetStore::new(sets, ways),
            dirty: DirtyLines::new(sets * ways),
            touched: TouchedSets::new(sets),
            stats: LevelStats::default(),
            line_shift: cfg.line.trailing_zeros(),
            set_mask: (cfg.sets().is_power_of_two()).then(|| cfg.sets() - 1),
            set_count: cfg.sets(),
            shuffle_shift,
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Resets contents and counters: afterwards the cache equals
    /// [`Cache::new`] of its configuration.  Costs the sets that received
    /// a line since the last reset, and never more than a build.
    pub fn reset(&mut self) {
        if self.touched.overflowed {
            self.sets.reset_all();
        } else {
            for &set in &self.touched.sets {
                self.sets.reset_set(set as usize);
            }
        }
        self.touched.sets.clear();
        self.touched.overflowed = false;
        self.dirty.clear();
        self.stats = LevelStats::default();
    }

    /// The shuffled frame base (in line-address units, page-aligned) of a
    /// shuffle page.  Deterministic SplitMix64 of the page number stands
    /// in for the OS's random physical page placement.  A pure function of
    /// `page_num`, so callers walking a run may cache it per page and skip
    /// the hash for every line inside ([`Cache::probe_indexed`]).
    #[inline]
    pub(crate) fn frame_of_page(&self, page_num: u64) -> u64 {
        let shift = self.shuffle_shift.expect("frame_of_page needs a shuffled index");
        mbb_obs::splitmix64(page_num) << shift
    }

    /// Shuffle granularity as `log2(lines per page)` (`None` = identity
    /// index mapping).
    #[inline]
    pub(crate) fn shuffle_lines_shift(&self) -> Option<u32> {
        self.shuffle_shift
    }

    /// Set index for a (possibly shuffled) index address.
    #[inline]
    fn index_of(&self, index_addr: u64) -> usize {
        let set = match self.set_mask {
            Some(mask) => index_addr & mask,
            None => index_addr % self.set_count,
        };
        set as usize
    }

    #[inline]
    fn set_and_tag(&self, line_addr: u64) -> (usize, u64) {
        let index_addr = match self.shuffle_shift {
            None => line_addr,
            Some(shift) => {
                // Lines per page is a power of two, so the original divide
                // / modulo / multiply are exactly these shifts and masks.
                let offset = line_addr & ((1u64 << shift) - 1);
                self.frame_of_page(line_addr >> shift).wrapping_add(offset)
            }
        };
        // The tag is the full (virtual) line address, so identity is exact
        // regardless of the index mapping.
        (self.index_of(index_addr), line_addr)
    }

    #[inline]
    fn touch_mru(lru: &mut [u8], way: u8) {
        // MRU already in front is the steady state of every hot loop; the
        // rotate over `[..=0]` it would perform is a no-op, so skip it.
        if lru[0] == way {
            return;
        }
        let pos = lru.iter().position(|&w| w == way).expect("way in LRU order");
        lru[..=pos].rotate_right(1);
    }

    /// True when the `size`-byte access at `addr` stays inside one line
    /// (the fast-path precondition — straddlers take the split loop).
    #[inline]
    pub(crate) fn covers_one_line(&self, addr: u64, size: u64) -> bool {
        // `checked_add`: an access wrapping past the top of the address
        // space never fits one line — it takes the splitting slow path,
        // which truncates at the boundary.
        size != 0
            && addr
                .checked_add(size - 1)
                .is_some_and(|last| (addr >> self.line_shift) == (last >> self.line_shift))
    }

    /// Accesses one whole line containing `addr`.
    ///
    /// `is_write` marks stores; `full_line_write` marks stores known to
    /// overwrite the entire line (arriving writebacks from an upper level),
    /// which allocate without fetching.
    #[inline]
    pub fn access_line(&mut self, addr: u64, is_write: bool, full_line_write: bool) -> LineOutcome {
        let line_addr = addr >> self.line_shift;
        let (set_idx, tag) = self.set_and_tag(line_addr);
        let base = set_idx * self.sets.ways;
        let (set, order) = self.sets.set_mut(set_idx);

        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            if is_write {
                match self.cfg.policy {
                    WritePolicy::WriteBack => {
                        if !set[way].dirty {
                            set[way].dirty = true;
                            self.dirty.mark(base + way);
                        }
                        self.stats.write_hits += 1;
                    }
                    WritePolicy::WriteThrough => {
                        self.stats.write_hits += 1;
                        Self::touch_mru(order, way as u8);
                        return LineOutcome::WroteThrough { hit: true };
                    }
                }
            } else {
                self.stats.read_hits += 1;
            }
            Self::touch_mru(order, way as u8);
            return LineOutcome::Hit;
        }

        // Miss.
        if is_write {
            self.stats.write_misses += 1;
            if self.cfg.policy == WritePolicy::WriteThrough {
                return LineOutcome::WroteThrough { hit: false };
            }
        } else {
            self.stats.read_misses += 1;
        }

        // Evict the LRU way.
        let victim_way = *order.last().expect("non-empty set") as usize;
        let victim = set[victim_way];
        self.touched.note_install(set_idx, set.len(), victim_way, victim);
        let writeback_of = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            Some(victim.tag << self.line_shift)
        } else {
            None
        };
        let fetched = !(is_write && full_line_write);
        if fetched {
            self.stats.fetches += 1;
        }
        set[victim_way] = Line { tag, dirty: is_write, valid: true };
        // The slot keeps its index bit when a dirty line gives way to a
        // dirty one.
        match (victim.dirty, is_write) {
            (false, true) => self.dirty.mark(base + victim_way),
            (true, false) => self.dirty.unmark(base + victim_way),
            _ => {}
        }
        Self::touch_mru(order, victim_way as u8);
        LineOutcome::Miss { writeback_of, fetched }
    }

    /// Pure residency probe for the run fast path: returns the `(set, way)`
    /// of `line_addr`'s line when resident, with **no** state or counter
    /// change either way.  A resident line's way is stable for as long as
    /// no install happens in its set ([`Cache::touch_mru`] permutes the LRU
    /// order vector, not the line array), so the caller may cache the
    /// coordinates across pure-hit windows and feed them back to
    /// [`Cache::apply_touch`].
    ///
    /// `index_addr` is precomputed by the caller: it must equal
    /// `frame_of_page(line_addr >> shift) + (line_addr & mask)` under a
    /// shuffled mapping, or `line_addr` under the identity one.  Lets the
    /// run walk pay the page hash once per shuffle page instead of once
    /// per line.
    #[inline]
    pub(crate) fn probe_indexed(&self, index_addr: u64, line_addr: u64) -> Option<(u32, u8)> {
        let set_idx = self.index_of(index_addr);
        self.sets
            .lines_of(set_idx)
            .iter()
            .position(|l| l.valid && l.tag == line_addr)
            .map(|way| (set_idx as u32, way as u8))
    }

    /// Applies the state transition of a hit — dirty bit on writes, MRU
    /// touch — to coordinates previously returned by [`Cache::probe`],
    /// without updating counters (the run walk bulk-adds those per window).
    ///
    /// Callers must not use this for writes to a write-through level: a
    /// write-through hit also forwards bytes below, which a silent touch
    /// cannot express.  The run walk excludes that configuration up front.
    #[inline]
    pub(crate) fn apply_touch(&mut self, set_idx: u32, way: u8, is_write: bool) {
        // Read touches, the common case, slice only the LRU order.
        let ways = self.sets.ways;
        let base = set_idx as usize * ways;
        if is_write {
            debug_assert_eq!(self.cfg.policy, WritePolicy::WriteBack);
            let i = base + way as usize;
            if !self.sets.lines[i].dirty {
                self.sets.lines[i].dirty = true;
                self.dirty.mark(i);
            }
        }
        Self::touch_mru(&mut self.sets.lru[base..base + ways], way);
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.cfg.line
    }

    /// Installs the line containing `addr` if absent (a prefetch): returns
    /// `None` when already present, otherwise the optional dirty victim's
    /// address.  Counted as a fetch + prefetch, never as a demand miss.
    pub fn prefetch_line(&mut self, addr: u64) -> Option<Option<u64>> {
        let line_addr = addr >> self.line_shift;
        let (set_idx, tag) = self.set_and_tag(line_addr);
        let base = set_idx * self.sets.ways;
        let (set, order) = self.sets.set_mut(set_idx);
        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            Self::touch_mru(order, way as u8);
            return None;
        }
        let victim_way = *order.last().expect("non-empty set") as usize;
        let victim = set[victim_way];
        self.touched.note_install(set_idx, set.len(), victim_way, victim);
        let writeback_of = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            Some(victim.tag << self.line_shift)
        } else {
            None
        };
        self.stats.fetches += 1;
        self.stats.prefetches += 1;
        set[victim_way] = Line { tag, dirty: false, valid: true };
        if victim.dirty {
            self.dirty.unmark(base + victim_way);
        }
        Self::touch_mru(order, victim_way as u8);
        Some(writeback_of)
    }

    /// Marks every dirty line clean and returns their byte addresses —
    /// the writebacks a full flush performs, in set-major, way-minor
    /// order (the order a flush forwards them to the next level).  Counted
    /// in [`LevelStats::writebacks`].  Costs the dirty lines, not the
    /// level's size: the dirty bitmap names them in storage order.
    ///
    /// The stored tag is already the full line address (identity is exact
    /// regardless of the index mapping — see `Cache::set_and_tag`), so a
    /// drained victim's address is `tag << line_shift`, exactly as for
    /// [`Cache::access_line`] eviction writebacks.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.dirty.count);
        let (lines, shift) = (&mut self.sets.lines, self.line_shift);
        self.dirty.drain(|i| {
            lines[i].dirty = false;
            out.push(lines[i].tag << shift);
        });
        self.stats.writebacks += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 32 B, 2-way: 2 sets.
        Cache::new(CacheConfig::write_back("t", 128, 32, 2))
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 2);
        assert_eq!(c.line_size(), 32);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(matches!(c.access_line(0, false, false), LineOutcome::Miss { .. }));
        assert_eq!(c.access_line(8, false, false), LineOutcome::Hit);
        assert_eq!(c.stats.read_misses, 1);
        assert_eq!(c.stats.read_hits, 1);
        assert_eq!(c.stats.fetches, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with even line index (2 sets): lines 0, 2, 4 map
        // to set 0.  Fill both ways, then touch line 0 so line 2 is LRU.
        c.access_line(0, false, false); // line 0
        c.access_line(64, false, false); // line 2
        c.access_line(0, false, false); // line 0 → MRU
                                        // Line 4 evicts line 2 (LRU), not line 0.
        c.access_line(128, false, false);
        assert_eq!(c.access_line(0, false, false), LineOutcome::Hit);
        assert!(matches!(c.access_line(64, false, false), LineOutcome::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_writes_back_victim_address() {
        let mut c = tiny();
        c.access_line(0, true, false); // line 0, dirty
        c.access_line(64, false, false); // line 2, same set
                                         // Line 4 evicts line 0 (LRU, dirty).
        match c.access_line(128, false, false) {
            LineOutcome::Miss { writeback_of: Some(a), fetched: true } => assert_eq!(a, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access_line(0, false, false);
        c.access_line(64, false, false);
        match c.access_line(128, false, false) {
            LineOutcome::Miss { writeback_of: None, .. } => {}
            other => panic!("expected clean eviction, got {other:?}"),
        }
        assert_eq!(c.stats.writebacks, 0);
    }

    #[test]
    fn full_line_write_allocates_without_fetch() {
        let mut c = tiny();
        match c.access_line(0, true, true) {
            LineOutcome::Miss { fetched: false, .. } => {}
            other => panic!("expected no-fetch allocate, got {other:?}"),
        }
        assert_eq!(c.stats.fetches, 0);
        // And the line is now present and dirty.
        assert_eq!(c.access_line(0, false, false), LineOutcome::Hit);
    }

    #[test]
    fn write_through_never_allocates() {
        let mut c = Cache::new(CacheConfig {
            name: "wt".into(),
            size: 128,
            line: 32,
            assoc: 2,
            policy: WritePolicy::WriteThrough,
            prefetch_next: 0,
            page_shuffle: None,
        });
        assert_eq!(c.access_line(0, true, false), LineOutcome::WroteThrough { hit: false });
        // Still not present.
        assert!(matches!(c.access_line(0, false, false), LineOutcome::Miss { .. }));
        // Write hit after the read allocated it.
        assert_eq!(c.access_line(0, true, false), LineOutcome::WroteThrough { hit: true });
        assert_eq!(c.stats.write_hits, 1);
        assert_eq!(c.stats.write_misses, 1);
        assert_eq!(c.stats.writebacks, 0);
    }

    #[test]
    fn direct_mapped_conflicts() {
        // Direct-mapped, 4 sets of 32 B.  Lines 0 and 4 conflict.
        let mut c = Cache::new(CacheConfig::write_back("dm", 128, 32, 1));
        c.access_line(0, false, false);
        c.access_line(128, false, false); // line 4 → evicts line 0
        assert!(matches!(c.access_line(0, false, false), LineOutcome::Miss { .. }));
        assert_eq!(c.stats.read_misses, 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access_line(0, true, false);
        c.reset();
        assert_eq!(c.stats, LevelStats::default());
        assert!(matches!(c.access_line(0, false, false), LineOutcome::Miss { .. }));
    }

    /// What a cache holds, for comparing a reset cache with a fresh one.
    fn contents(c: &Cache) -> String {
        let dirty = c.dirty.bits.iter().filter(|&&w| w != 0).count() + c.dirty.count;
        format!("{:?} {:?} dirty {dirty}", c.sets, c.stats)
    }

    #[test]
    fn reset_restores_the_touched_sets_or_the_whole_level() {
        // 64 sets of 2 ways: up to 8 first installs are recorded.
        let cfg = CacheConfig::write_back("l", 4096, 32, 2);
        let fresh = contents(&Cache::new(cfg.clone()));
        let mut c = Cache::new(cfg);
        // Three sets, one of them filled only by the prefetcher; the
        // second install into set 0 is not a first install.
        c.access_line(0, true, false);
        c.access_line(64 * 32, false, false);
        c.access_line(5 * 32, false, false);
        c.prefetch_line(9 * 32);
        assert_eq!(c.touched.sets, [0, 5, 9]);
        assert!(!c.touched.overflowed);
        c.reset();
        assert_eq!(contents(&c), fresh);
        // Every set, some dirty: the record overflows, and the reset
        // restores the whole level.
        for line in 0..128u64 {
            c.access_line(line * 32, line % 3 == 0, false);
        }
        assert!(c.touched.overflowed);
        c.reset();
        assert_eq!(contents(&c), fresh);
        assert!(c.touched.sets.is_empty() && !c.touched.overflowed);
    }

    #[test]
    fn non_power_of_two_set_count_uses_modulo_fallback() {
        // 96 B / 32 B / direct-mapped = 3 sets: lines 0 and 3 share set 0.
        let mut c = Cache::new(CacheConfig::write_back("odd", 96, 32, 1));
        assert_eq!(c.config().sets(), 3);
        c.access_line(0, false, false);
        assert!(matches!(c.access_line(3 * 32, false, false), LineOutcome::Miss { .. }));
        assert!(matches!(c.access_line(0, false, false), LineOutcome::Miss { .. }), "evicted");
        // Line 1 maps to set 1: cold miss, then a hit — and it leaves the
        // set-0 resident (line 0) undisturbed.
        assert!(matches!(c.access_line(32, false, false), LineOutcome::Miss { .. }));
        assert_eq!(c.access_line(32, false, false), LineOutcome::Hit);
        assert_eq!(c.access_line(0, false, false), LineOutcome::Hit, "set 0 undisturbed");
    }

    #[test]
    fn covers_one_line_boundaries() {
        let c = tiny();
        assert!(c.covers_one_line(0, 8));
        assert!(c.covers_one_line(24, 8), "exactly reaches the line end");
        assert!(!c.covers_one_line(28, 8), "straddles into the next line");
        assert!(c.covers_one_line(32, 32), "whole aligned line");
        assert!(!c.covers_one_line(0, 0), "zero-size accesses take the slow path");
    }

    #[test]
    fn shuffled_indexing_matches_the_divide_formula() {
        // The shift/mask rewrite of the SplitMix64 page shuffle must place
        // every line exactly where the original divide/modulo/multiply
        // formula did.
        fn reference_set(line_addr: u64, page: u64, line: u64, sets: u64) -> u64 {
            let lines_per_page = page / line;
            let page_num = line_addr / lines_per_page;
            let offset = line_addr % lines_per_page;
            mbb_obs::splitmix64(page_num).wrapping_mul(lines_per_page).wrapping_add(offset) % sets
        }
        for (size, line, assoc, page) in
            [(32 * 1024, 32, 2, 16 * 1024), (1024 * 1024, 32, 1, 64 * 1024), (4096, 128, 2, 4096)]
        {
            let cfg = CacheConfig::write_back("s", size, line, assoc).with_page_shuffle(page);
            let sets = cfg.sets();
            let c = Cache::new(cfg);
            for k in 0..10_000u64 {
                let line_addr = k.wrapping_mul(0x9E37_79B9).wrapping_add(k >> 3);
                let (set_idx, tag) = c.set_and_tag(line_addr);
                assert_eq!(set_idx as u64, reference_set(line_addr, page, line, sets));
                assert_eq!(tag, line_addr, "tag stays the full line address");
            }
        }
    }

    #[test]
    fn page_frames_match_known_answers() {
        // Frames recorded before the mixer moved to `mbb_obs`: 32 B lines
        // in 16 KiB pages, so a frame is the draw shifted by 9.
        let c =
            Cache::new(CacheConfig::write_back("s", 32 * 1024, 32, 2).with_page_shuffle(16 * 1024));
        let known = [
            (0, 0x4150_72f6_3b9b_5e00),
            (1, 0x145b_d912_04b9_8200),
            (2, 0xb06b_bc39_2ead_9c00),
            (0x1234_5678, 0xe3b8_73a3_20d6_de00),
            (u64::MAX, 0xb2e2_ee36_ca58_4000),
        ];
        for (page, frame) in known {
            assert_eq!(c.frame_of_page(page), frame, "page {page:#x}");
        }
    }

    /// Dirties a set of lines, drains, and checks the drained addresses are
    /// exactly the dirtied lines' addresses (the regression the old
    /// `(tag * sets + set_idx) * line` reconstruction failed for any
    /// geometry where the identity mapping and the index mapping differ).
    fn drain_matches_dirtied(cfg: CacheConfig, line_addrs: &[u64]) {
        let line = cfg.line;
        let mut c = Cache::new(cfg);
        let mut expect: Vec<u64> = Vec::new();
        for &la in line_addrs {
            match c.access_line(la * line, true, true) {
                LineOutcome::Miss { writeback_of, .. } => {
                    // A dirty victim evicted on the way in is no longer
                    // resident, so it must not reappear in the drain.
                    if let Some(v) = writeback_of {
                        expect.retain(|&a| a != v);
                    }
                }
                LineOutcome::Hit => {}
                other => panic!("unexpected {other:?}"),
            }
            if !expect.contains(&(la * line)) {
                expect.push(la * line);
            }
        }
        let mut drained = c.drain_dirty();
        drained.sort_unstable();
        expect.sort_unstable();
        assert_eq!(drained, expect);
        // Everything is clean now: a second drain is empty.
        assert!(c.drain_dirty().is_empty());
    }

    #[test]
    fn drain_dirty_returns_the_dirtied_addresses_page_shuffled() {
        // Shuffled indexing scatters lines across sets, but tags stay the
        // full line address — drained addresses must match what was written.
        let cfg = CacheConfig::write_back("sh", 4096, 32, 2).with_page_shuffle(256);
        let addrs: Vec<u64> = (0..40u64).map(|k| k.wrapping_mul(0x9E37_79B9) % 512).collect();
        drain_matches_dirtied(cfg, &addrs);
    }

    #[test]
    fn drain_dirty_returns_the_dirtied_addresses_non_pow2_sets() {
        // 3 sets (96 B / 32 B, direct-mapped): the modulo index fallback.
        drain_matches_dirtied(CacheConfig::write_back("odd", 96, 32, 1), &[0, 1, 2, 3, 7, 11]);
    }

    #[test]
    fn drain_dirty_matches_eviction_writeback_addresses() {
        // The same dirty line, written back two ways — by eviction and by
        // drain — must report the same victim address.
        let cfg = CacheConfig::write_back("t", 128, 32, 2).with_page_shuffle(64);
        let mut by_evict = Cache::new(cfg.clone());
        by_evict.access_line(5 * 32, true, true);
        // Evict line 5 by filling its set with conflicting lines.
        let mut evicted = None;
        for k in 0..64u64 {
            if k == 5 {
                continue;
            }
            if let LineOutcome::Miss { writeback_of: Some(a), .. } =
                by_evict.access_line(k * 32, false, false)
            {
                evicted = Some(a);
                break;
            }
        }
        let mut by_drain = Cache::new(cfg);
        by_drain.access_line(5 * 32, true, true);
        assert_eq!(by_drain.drain_dirty(), vec![5 * 32]);
        assert_eq!(evicted.expect("line 5 evicted"), 5 * 32);
    }

    #[test]
    fn probe_and_apply_touch_mirror_hit_state_without_counters() {
        let mut c = tiny();
        // `tiny()` has no shuffled index, so the index address is the line
        // address itself (here: line 0 for both byte 0 and byte 8).
        assert_eq!(c.probe_indexed(0, 0), None, "cold probe misses and mutates nothing");
        assert!(matches!(c.access_line(0, false, false), LineOutcome::Miss { .. }));
        let stats_before = c.stats;
        let (set, way) = c.probe_indexed(0, 0).expect("resident after the fill");
        // An applied write touch dirties the line and refreshes MRU, silently.
        c.apply_touch(set, way, true);
        assert_eq!(c.stats, stats_before, "probe + touch leave counters untouched");
        // The dirty bit really stuck: evicting line 0 writes it back.
        c.access_line(64, false, false);
        match c.access_line(128, false, false) {
            LineOutcome::Miss { writeback_of: Some(a), .. } => assert_eq!(a, 0),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
    }

    #[test]
    fn stats_ratios() {
        let mut s = LevelStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        s.read_hits = 3;
        s.read_misses = 1;
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.miss_ratio(), 0.25);
    }
}
