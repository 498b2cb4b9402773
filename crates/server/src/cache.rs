//! The content-addressed result cache.
//!
//! Keys are [`mbb_core::canon::cache_key`] hashes of `(request kind,
//! machine name, option flags, canonical program text)` — the canonical
//! text is the pretty-printer's stable rendering, so two requests that
//! differ only in formatting share an entry.  Values are the
//! compact-rendered `result` JSON, stored behind `Arc` so a hit hands back
//! the *same bytes* the miss produced — responses are bit-identical by
//! construction.
//!
//! Storage, single-flight and byte-budgeted LRU eviction are the shared
//! [`mbb_core::cache::Cache`]; this wrapper adds the byte weights, the
//! [`Site::CacheCompute`] fault site, and a deadline for callers that
//! join another request's in-flight compute.
//!
//! In a shard tier ([`cluster`](crate::cluster)) each node keeps its own
//! cache; coherence comes from routing, not replication — the
//! consistent-hash ring sends every key to one owning node, so the tier
//! as a whole fills one entry per unique key and serves the same bytes
//! from every member.

use std::sync::Arc;
use std::time::Instant;

use mbb_core::cache::Cache;
pub use mbb_core::cache::CacheStats;

use crate::error::{ErrorKind, ServeError};
use crate::faults::{self, Site};

/// Per-entry bookkeeping overhead charged against the byte budget (key,
/// stamps, map slot) — approximate, but it keeps a flood of tiny entries
/// from being "free".
const ENTRY_OVERHEAD: u64 = 64;

/// The cache. Its `misses` count one per leader compute, failed ones
/// included — the figure `mbb_serve_cache_misses_total` and
/// `cluster-stats` report.
pub struct ResultCache(Cache<Arc<String>>);

impl ResultCache {
    /// A cache bounded by `capacity_bytes` split over `shards` locks.
    /// Capacity 0 disables storage (every request computes) but keeps the
    /// counters, so a cacheless server still reports a 0% hit rate rather
    /// than lying.
    pub fn new(capacity_bytes: u64, shards: usize) -> ResultCache {
        ResultCache(Cache::new(capacity_bytes, shards, |v| v.len() as u64 + ENTRY_OVERHEAD))
    }

    /// Returns the cached value for `key`, or runs `compute` to fill it.
    /// The boolean is `true` on a hit (including waiting on another
    /// thread's in-flight compute). Errors are returned uncached.
    pub fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<String, ServeError>,
    ) -> Result<(Arc<String>, bool), ServeError> {
        self.get_or_compute_until(key, None, compute)
    }

    /// [`get_or_compute`](Self::get_or_compute) for a request with a wall
    /// deadline.  The deadline is not part of the key, so an identical
    /// request already computing may have a longer one (or none): a
    /// caller that joins it stops waiting at `deadline` with
    /// `deadline_exceeded`, leaving the compute to its leader.
    pub fn get_or_compute_until(
        &self,
        key: u64,
        deadline: Option<Instant>,
        compute: impl FnOnce() -> Result<String, ServeError>,
    ) -> Result<(Arc<String>, bool), ServeError> {
        self.0.get_or_compute(key, wait_until(deadline), || {
            if faults::fire(Site::CacheCompute) {
                return Err(ServeError::new(
                    ErrorKind::Internal,
                    "injected fault: cache compute failed",
                ));
            }
            compute().map(Arc::new)
        })
    }

    /// The cached value for `key`, counting nothing and stamping
    /// nothing: the event loop's look before it decides to answer.
    pub fn peek(&self, key: u64) -> Option<Arc<String>> {
        self.0.peek(key)
    }

    /// Counts one hit on `key`, whose value was read with
    /// [`peek`](Self::peek) and used.
    pub fn record_hit(&self, key: u64) {
        self.0.record_hit(key)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}

/// The `on_wait` hook of a caller with a wall deadline, for any
/// [`Cache`] the request path fills: once `deadline` passes, waiting for
/// an identical in-flight compute ends with `deadline_exceeded`.
pub(crate) fn wait_until(deadline: Option<Instant>) -> impl FnMut() -> Result<(), ServeError> {
    move || match deadline {
        Some(d) if Instant::now() >= d => Err(ServeError::new(
            ErrorKind::DeadlineExceeded,
            "deadline expired while waiting for an identical in-flight request",
        )),
        _ => Ok(()),
    }
}
