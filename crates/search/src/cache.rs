//! The shared candidate score cache.
//!
//! Scoring a candidate means interpreting it against the simulated
//! hierarchy — by far the dominant cost of a search — and candidates
//! recur massively: different searches over the same program, different
//! move orders reaching the same text, concurrent server requests.  This
//! cache is the shared [`mbb_core::cache::Cache`] (sharded, LRU-stamped,
//! single-flight so concurrent misses on one key compute once) holding
//! measured [`Score`]s, bounded by entry count.
//!
//! Keys are content addresses built by [`mbb_core::canon::cache_key`]
//! from `(kind, machine, canonical candidate program)` — the same
//! canonicalizer the server keys through, so the two layers can never
//! disagree about what "the same program" means.  Crucially the cache
//! always holds the *honest* measurement: scorer-level mutations (the
//! `swap-balance-channels` canary) distort scores after retrieval, so a
//! canary run can never poison the shared cache for honest searches in
//! the same process.

use std::sync::OnceLock;

use mbb_core::cache::Cache;
pub use mbb_core::cache::CacheStats;

/// One candidate's measured balance, as the search scores it.
#[derive(Clone, Debug, PartialEq)]
pub struct Score {
    /// Bytes per flop on each channel (register↔L1 first, memory last).
    pub bytes_per_flop: Vec<f64>,
    /// Bytes entering each channel.
    pub channel_bytes: Vec<u64>,
    /// Flops executed.
    pub flops: u64,
}

impl Score {
    /// The memory-channel balance (the search's primary objective).
    pub fn memory(&self) -> f64 {
        *self.bytes_per_flop.last().unwrap_or(&0.0)
    }
}

/// The process-wide or per-search score cache.
pub struct ScoreCache(Cache<Score>);

/// Capacity of the process-wide cache ([`ScoreCache::global`]): scores
/// are a few hundred bytes each, so 64Ki entries stay well under the
/// server's result-cache budget.
const GLOBAL_CAPACITY: usize = 64 * 1024;
const GLOBAL_SHARDS: usize = 8;

impl ScoreCache {
    /// A cache holding at most `capacity` scores, split evenly over
    /// `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> ScoreCache {
        ScoreCache(Cache::new(capacity as u64, shards, |_| 1))
    }

    /// The process-wide cache concurrent searches share (the server's
    /// `optimize-search` workers all score through this one).
    pub fn global() -> &'static ScoreCache {
        static GLOBAL: OnceLock<ScoreCache> = OnceLock::new();
        GLOBAL.get_or_init(|| ScoreCache::new(GLOBAL_CAPACITY, GLOBAL_SHARDS))
    }

    /// Looks `key` up, computing on a miss with single-flight dedup: one
    /// concurrent caller computes, the rest wait and reuse.  Returns the
    /// score and whether it was served from the cache.  Errors are
    /// propagated and never cached; a waiter re-checks its own deadline
    /// while parked, via `on_wait`.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        on_wait: impl FnMut() -> Result<(), E>,
        compute: impl FnOnce() -> Result<Score, E>,
    ) -> Result<(Score, bool), E> {
        self.0.get_or_compute(key, on_wait, compute)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}
