//! Reference-model property test for the cache's set storage.
//!
//! `Cache` keeps every set's lines and LRU order in flat, set-major arrays.
//! The runs-vs-scalar oracle cannot see a bug in that storage, because both
//! engines drive the same `Cache`.  This file keeps the per-set nested-`Vec`
//! cache the flat layout replaced, as an independent reference: the same
//! LRU algorithm and counters, with the page shuffle written as the
//! original divide / modulo / multiply formula.  Random line streams —
//! reads, writes, full-line writes, prefetches, resets and drains — must
//! produce the same [`LineOutcome`] sequence, the same prefetch victims,
//! the same drain order and the same [`LevelStats`] after every step.
//!
//! A reset restores only the sets filled since the last one, or the whole
//! level once more than an eighth of its sets were filled.  Half of the
//! streams reset every fourth step, so their resets follow a few installs
//! and take the first branch; the others reset about every 64 steps and
//! mostly take the second.

use mbb_memsim::cache::{Cache, CacheConfig, LevelStats, LineOutcome, WritePolicy};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    dirty: bool,
    valid: bool,
}

/// One set-associative LRU level stored as one `Vec` of lines and one
/// `Vec` of LRU order per set.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    /// Per-set LRU order: `lru[s][0]` is the MRU way index.
    lru: Vec<Vec<u8>>,
    stats: LevelStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        let ways = cfg.assoc as usize;
        RefCache {
            sets: vec![vec![Line { tag: 0, dirty: false, valid: false }; ways]; sets],
            // `(0..ways)` rather than `0..ways as u8`: the latter is empty
            // at 256 ways.
            lru: vec![(0..ways).map(|w| w as u8).collect(); sets],
            stats: LevelStats::default(),
            cfg,
        }
    }

    fn reset(&mut self) {
        for set in &mut self.sets {
            for l in set {
                l.valid = false;
                l.dirty = false;
            }
        }
        for order in &mut self.lru {
            for (k, w) in order.iter_mut().enumerate() {
                *w = k as u8;
            }
        }
        self.stats = LevelStats::default();
    }

    fn set_of(&self, line_addr: u64) -> usize {
        let sets = self.cfg.sets();
        let index_addr = match self.cfg.page_shuffle {
            None => line_addr,
            Some(page) => {
                let lines_per_page = page / self.cfg.line;
                let page_num = line_addr / lines_per_page;
                let offset = line_addr % lines_per_page;
                mbb_obs::splitmix64(page_num).wrapping_mul(lines_per_page).wrapping_add(offset)
            }
        };
        (index_addr % sets) as usize
    }

    fn touch_mru(lru: &mut [u8], way: u8) {
        let pos = lru.iter().position(|&w| w == way).expect("way in LRU order");
        lru[..=pos].rotate_right(1);
    }

    /// Evicts set `s`'s LRU way for `tag`, returning the dirty victim's
    /// byte address, if any.
    fn install(&mut self, s: usize, tag: u64, dirty: bool) -> Option<u64> {
        let victim_way = *self.lru[s].last().expect("non-empty set") as usize;
        let victim = self.sets[s][victim_way];
        let writeback_of = (victim.valid && victim.dirty).then(|| {
            self.stats.writebacks += 1;
            victim.tag * self.cfg.line
        });
        self.sets[s][victim_way] = Line { tag, dirty, valid: true };
        Self::touch_mru(&mut self.lru[s], victim_way as u8);
        writeback_of
    }

    fn access_line(&mut self, addr: u64, is_write: bool, full_line_write: bool) -> LineOutcome {
        let tag = addr / self.cfg.line;
        let s = self.set_of(tag);
        if let Some(way) = self.sets[s].iter().position(|l| l.valid && l.tag == tag) {
            if is_write {
                self.stats.write_hits += 1;
                if self.cfg.policy == WritePolicy::WriteThrough {
                    Self::touch_mru(&mut self.lru[s], way as u8);
                    return LineOutcome::WroteThrough { hit: true };
                }
                self.sets[s][way].dirty = true;
            } else {
                self.stats.read_hits += 1;
            }
            Self::touch_mru(&mut self.lru[s], way as u8);
            return LineOutcome::Hit;
        }
        if is_write {
            self.stats.write_misses += 1;
            if self.cfg.policy == WritePolicy::WriteThrough {
                return LineOutcome::WroteThrough { hit: false };
            }
        } else {
            self.stats.read_misses += 1;
        }
        let fetched = !(is_write && full_line_write);
        if fetched {
            self.stats.fetches += 1;
        }
        let writeback_of = self.install(s, tag, is_write);
        LineOutcome::Miss { writeback_of, fetched }
    }

    fn prefetch_line(&mut self, addr: u64) -> Option<Option<u64>> {
        let tag = addr / self.cfg.line;
        let s = self.set_of(tag);
        if let Some(way) = self.sets[s].iter().position(|l| l.valid && l.tag == tag) {
            Self::touch_mru(&mut self.lru[s], way as u8);
            return None;
        }
        self.stats.fetches += 1;
        self.stats.prefetches += 1;
        Some(self.install(s, tag, false))
    }

    fn drain_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for l in set.iter_mut() {
                if l.valid && l.dirty {
                    l.dirty = false;
                    self.stats.writebacks += 1;
                    out.push(l.tag * self.cfg.line);
                }
            }
        }
        out
    }
}

/// Geometries covering 1-, 2- and 4-way sets, power-of-two and odd set
/// counts, write-through, and shuffled indexing.
fn geometry(k: usize) -> CacheConfig {
    let write_through = |size, line, assoc| CacheConfig {
        policy: WritePolicy::WriteThrough,
        ..CacheConfig::write_back("wt", size, line, assoc)
    };
    match k {
        // 4 sets, direct-mapped.
        0 => CacheConfig::write_back("dm", 128, 32, 1),
        // 3 sets, 2-way: the modulo index fallback.
        1 => CacheConfig::write_back("odd2", 192, 32, 2),
        // 5 sets, 4-way.
        2 => CacheConfig::write_back("odd4", 640, 32, 4),
        // 8 sets, 4-way, write-through.
        3 => write_through(1024, 32, 4),
        // 3 sets, direct-mapped, write-through.
        4 => write_through(96, 32, 1),
        // 64 sets, 2-way, 8 lines per shuffle page.
        5 => CacheConfig::write_back("sh2", 4096, 32, 2).with_page_shuffle(256),
        // 12 sets, direct-mapped, shuffled: odd count under the shuffle.
        6 => CacheConfig::write_back("sh1", 384, 32, 1).with_page_shuffle(64),
        // 4 sets of 4 × 64 B lines, one line per shuffle page.
        _ => CacheConfig::write_back("sh4", 1024, 64, 4).with_page_shuffle(64),
    }
}

const GEOMETRIES: usize = 8;

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u64),
    Write(u64),
    FullLineWrite(u64),
    Prefetch(u64),
    Reset,
    Drain,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Addresses span four times the largest geometry's capacity, so sets
    // fill, conflict and evict; a few sit at the top of the address space,
    // where tags are largest.
    let addr = prop_oneof![0u64..16384, 0u64..16384, 0u64..16384, (0u64..512).prop_map(|k| !k)];
    (0u32..64, addr).prop_map(|(kind, addr)| match kind {
        0..=24 => Op::Read(addr),
        25..=44 => Op::Write(addr),
        45..=52 => Op::FullLineWrite(addr),
        53..=61 => Op::Prefetch(addr),
        62 => Op::Drain,
        _ => Op::Reset,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_sets_match_the_nested_reference(
        k in 0usize..GEOMETRIES,
        ops in proptest::collection::vec(arb_op(), 1..400),
        dense_resets in any::<bool>(),
    ) {
        let cfg = geometry(k);
        let mut flat = Cache::new(cfg.clone());
        let mut reference = RefCache::new(cfg);
        for (step, &op) in ops.iter().enumerate() {
            let op = if dense_resets && step % 4 == 3 { Op::Reset } else { op };
            match op {
                Op::Read(a) => prop_assert_eq!(
                    flat.access_line(a, false, false),
                    reference.access_line(a, false, false),
                    "step {} {:?}", step, op
                ),
                Op::Write(a) => prop_assert_eq!(
                    flat.access_line(a, true, false),
                    reference.access_line(a, true, false),
                    "step {} {:?}", step, op
                ),
                Op::FullLineWrite(a) => prop_assert_eq!(
                    flat.access_line(a, true, true),
                    reference.access_line(a, true, true),
                    "step {} {:?}", step, op
                ),
                Op::Prefetch(a) => prop_assert_eq!(
                    flat.prefetch_line(a),
                    reference.prefetch_line(a),
                    "step {} {:?}", step, op
                ),
                Op::Drain => prop_assert_eq!(
                    flat.drain_dirty(),
                    reference.drain_dirty(),
                    "step {} {:?}", step, op
                ),
                Op::Reset => {
                    flat.reset();
                    reference.reset();
                }
            }
            prop_assert_eq!(flat.stats, reference.stats, "stats after step {} {:?}", step, op);
        }
        // The final drain covers every line still dirty, in storage order.
        prop_assert_eq!(flat.drain_dirty(), reference.drain_dirty());
        prop_assert_eq!(flat.stats, reference.stats);
    }
}

#[test]
fn long_stream_dirties_evicts_and_redirties_before_a_drain() {
    // Each round writes a footprint four times the largest geometry (every
    // dirty line is evicted by a later one), then re-dirties the first
    // stretch of lines, whose earlier dirty copies were evicted, with reads
    // and prefetches interleaved; only then does it drain.  A dirty record
    // that outlives its line, or misses a re-dirtying, changes the drain.
    for k in 0..GEOMETRIES {
        let cfg = geometry(k);
        let line = cfg.line;
        let mut flat = Cache::new(cfg.clone());
        let mut reference = RefCache::new(cfg);
        for round in 0..3u64 {
            for i in 0..2048u64 {
                let a = ((i * 7 + round) % 512) * line;
                let full = i % 5 == 0;
                assert_eq!(flat.access_line(a, true, full), reference.access_line(a, true, full));
                let b = (i * 13 % 640) * line;
                assert_eq!(
                    flat.access_line(b, false, false),
                    reference.access_line(b, false, false)
                );
                assert_eq!(flat.stats, reference.stats, "geometry {k} round {round} step {i}");
            }
            for i in 0..96u64 {
                let a = ((i * 7 + round) % 512) * line;
                assert_eq!(flat.access_line(a, true, false), reference.access_line(a, true, false));
                assert_eq!(flat.prefetch_line(a + line), reference.prefetch_line(a + line));
            }
            assert_eq!(flat.drain_dirty(), reference.drain_dirty(), "geometry {k} round {round}");
            assert_eq!(flat.stats, reference.stats);
        }
    }
}

#[test]
fn way_indices_up_to_255_fit_the_lru_order() {
    // 256 ways in one set: the last way index is 255, the largest `u8`.
    let mut c = Cache::new(CacheConfig::write_back("wide", 256 * 32, 32, 256));
    let mut reference = RefCache::new(CacheConfig::write_back("wide", 256 * 32, 32, 256));
    for k in 0..600u64 {
        let a = (k * 7919 % 300) * 32;
        assert_eq!(
            c.access_line(a, k % 3 == 0, false),
            reference.access_line(a, k % 3 == 0, false)
        );
    }
    assert_eq!(c.drain_dirty(), reference.drain_dirty());
    assert_eq!(c.stats, reference.stats);
}

#[test]
#[should_panic(expected = "at most 256 ways")]
fn more_ways_than_the_lru_order_can_name_are_refused() {
    Cache::new(CacheConfig::write_back("wider", 257 * 32, 32, 257));
}
