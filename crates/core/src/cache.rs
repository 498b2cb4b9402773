//! The one single-flight cache every content-addressed layer stores
//! through.
//!
//! Two layers cache by [`cache_key`](crate::canon::cache_key): the
//! server's result cache (rendered responses, bounded in bytes) and the
//! search crate's score cache (measured candidate balances, bounded in
//! entries).  Both are this type with a different weight function.
//!
//! * **Sharded.**  The key space is split over shards, each behind its own
//!   mutex, so unrelated keys never contend.
//! * **Single-flight.**  When several callers ask for the same uncomputed
//!   key at once, one (the leader) computes and the rest park on the
//!   key's in-flight marker, then read the fresh entry: the work runs
//!   once.  A parked caller re-runs its `on_wait` hook every 10 ms, so a
//!   caller with its own deadline can stop waiting on a leader that has
//!   none.
//! * **Failures are not cached.**  An error is returned to the leader
//!   alone; its waiters wake and the first of them leads a fresh compute.
//!   A leader that panics releases its key the same way while unwinding,
//!   so one bad compute never wedges the key.
//! * **Weighted LRU.**  Each shard holds at most `capacity / shards` of
//!   weight.  Every hit stamps its entry from a per-shard logical clock,
//!   and a stamp-ordered index beside the entries keeps the oldest stamp
//!   at its front, so storing past the budget evicts from the front in
//!   O(log n) per victim.  A value heavier than a whole shard is
//!   returned but never stored.
//! * **Peek, then count.**  [`Cache::peek`] reads a stored value without
//!   counting or stamping, for a caller that may still hand the lookup
//!   to someone else; [`Cache::record_hit`] counts and stamps it once
//!   the caller has used it.
//! * **Poison-tolerant.**  Critical sections never panic, so a poisoned
//!   lock carries no torn state and is recovered rather than propagated.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a parked caller waits between runs of its `on_wait` hook.
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// A point-in-time view of a cache's counters.  All are monotonic except
/// the `entries` and `weight` gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a stored entry, including callers that waited
    /// on another caller's compute.
    pub hits: u64,
    /// Computes started: one per leader, failed ones included.
    pub misses: u64,
    /// Entries evicted to stay within the weight budget.
    pub evictions: u64,
    /// Live entries.
    pub entries: u64,
    /// Weight charged against the budget.
    pub weight: u64,
}

struct Entry<V> {
    val: V,
    weight: u64,
    stamp: u64,
}

/// A key being computed right now; waiters park on the condvar.
#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

struct Shard<V> {
    entries: HashMap<u64, Entry<V>>,
    /// Every entry's key by its stamp: the front is the eviction victim.
    order: BTreeMap<u64, u64>,
    inflight: HashMap<u64, Arc<Flight>>,
    weight: u64,
    clock: u64,
    /// Eviction candidates examined, for the test that pins one per
    /// eviction.
    #[cfg(test)]
    examined: u64,
}

impl<V> Shard<V> {
    /// Stamps `key`'s entry as most recently used and returns it.
    fn stamp(&mut self, key: u64) -> Option<&Entry<V>> {
        let e = self.entries.get_mut(&key)?;
        self.clock += 1;
        self.order.remove(&e.stamp);
        e.stamp = self.clock;
        self.order.insert(self.clock, key);
        Some(e)
    }

    /// Removes the entry with the oldest stamp.
    fn evict_oldest(&mut self) -> Option<Entry<V>> {
        let (_, victim) = self.order.pop_first()?;
        #[cfg(test)]
        {
            self.examined += 1;
        }
        self.entries.remove(&victim)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded, weighted-LRU, single-flight cache from content-address
/// keys to values of type `V`.
pub struct Cache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_budget: u64,
    weigh: fn(&V) -> u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicU64,
    weight: AtomicU64,
}

/// Releases a leader's in-flight marker and wakes its waiters however the
/// compute ends: with a value, an error or a panic.
struct Landing<'a, V> {
    shard: &'a Mutex<Shard<V>>,
    key: u64,
    flight: Arc<Flight>,
}

impl<V> Drop for Landing<'_, V> {
    fn drop(&mut self) {
        lock(self.shard).inflight.remove(&self.key);
        *lock(&self.flight.done) = true;
        self.flight.cv.notify_all();
    }
}

impl<V: Clone> Cache<V> {
    /// A cache holding at most `capacity` of weight, split evenly over
    /// `shards` locks, where `weigh` gives each value's weight.  Capacity
    /// 0 stores nothing (every lookup computes) but keeps the counters.
    pub fn new(capacity: u64, shards: usize, weigh: fn(&V) -> u64) -> Cache<V> {
        let n = shards.max(1);
        Cache {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        order: BTreeMap::new(),
                        inflight: HashMap::new(),
                        weight: 0,
                        clock: 0,
                        #[cfg(test)]
                        examined: 0,
                    })
                })
                .collect(),
            shard_budget: capacity / n as u64,
            weigh,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            weight: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        // High bits pick the shard; low bits already vary per key.
        &self.shards[(key >> 32) as usize % self.shards.len()]
    }

    /// Returns the value for `key`, or runs `compute` to fill it.  The
    /// boolean is `true` on a hit, including a wait on another caller's
    /// compute.  Errors are returned uncached.  While parked on another
    /// caller's compute, `on_wait` runs every 10 ms; its error ends the
    /// wait and is returned.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        mut on_wait: impl FnMut() -> Result<(), E>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let shard = self.shard(key);
        loop {
            let flight = {
                let mut s = lock(shard);
                if let Some(val) = s.stamp(key).map(|e| e.val.clone()) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((val, true));
                }
                match s.inflight.get(&key) {
                    Some(f) => Arc::clone(f),
                    None => {
                        let flight = Arc::new(Flight::default());
                        s.inflight.insert(key, Arc::clone(&flight));
                        drop(s);
                        return self.lead(Landing { shard, key, flight }, compute);
                    }
                }
            };
            // Another caller is computing this key: wait for it, then loop
            // to read the entry, or to lead if it failed or stored nothing.
            let mut done = lock(&flight.done);
            while !*done {
                on_wait()?;
                done = flight
                    .cv
                    .wait_timeout(done, WAIT_SLICE)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }

    /// Leader path: compute outside the shard lock, then store.  Dropping
    /// `landing` on every exit releases the key and wakes the waiters.
    fn lead<E>(
        &self,
        landing: Landing<'_, V>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let val = compute()?;
        let weight = (self.weigh)(&val);
        // A value heavier than a whole shard can never fit; serve it
        // uncached rather than flushing everything else.
        if self.shard_budget > 0 && weight <= self.shard_budget {
            let mut s = lock(landing.shard);
            s.clock += 1;
            let stamp = s.clock;
            s.entries.insert(landing.key, Entry { val: val.clone(), weight, stamp });
            s.order.insert(stamp, landing.key);
            s.weight += weight;
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.weight.fetch_add(weight, Ordering::Relaxed);
            while s.weight > self.shard_budget {
                let Some(e) = s.evict_oldest() else { break };
                s.weight -= e.weight;
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.weight.fetch_sub(e.weight, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok((val, false))
    }

    /// The stored value for `key`, if any, without counting a hit or a
    /// miss and without stamping the entry.
    pub fn peek(&self, key: u64) -> Option<V> {
        lock(self.shard(key)).entries.get(&key).map(|e| e.val.clone())
    }

    /// Counts one hit on `key` and stamps its entry as most recently
    /// used, as a hit of [`get_or_compute`](Self::get_or_compute) does:
    /// for a caller that read the value with [`peek`](Self::peek) and has
    /// now used it.  A key evicted since the peek still counts.
    pub fn record_hit(&self, key: u64) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        lock(self.shard(key)).stamp(key);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            weight: self.weight.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Instant;

    /// Byte-weighted, like the server's result cache.
    fn cache(capacity: u64, shards: usize) -> Cache<Arc<String>> {
        Cache::new(capacity, shards, |s| s.len() as u64)
    }

    fn ok(s: &str) -> Result<Arc<String>, String> {
        Ok(Arc::new(s.to_string()))
    }

    fn no_wait() -> Result<(), String> {
        Ok(())
    }

    /// Looks `key` up, filling it with `payload`; returns whether it hit.
    fn hit(c: &Cache<Arc<String>>, key: u64, payload: &str) -> bool {
        c.get_or_compute(key, no_wait, || ok(payload)).unwrap().1
    }

    #[test]
    fn a_hit_returns_the_same_arc() {
        let c = cache(1 << 20, 4);
        let (a, hit_a) = c.get_or_compute(42, no_wait, || ok("payload")).unwrap();
        let (b, hit_b) = c.get_or_compute(42, no_wait, || panic!("must not recompute")).unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "a hit must share the miss's bytes");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.weight), (1, 1, 1, 7));
    }

    #[test]
    fn errors_are_not_cached() {
        let c = cache(1 << 20, 4);
        let e = c.get_or_compute(7, no_wait, || Err("boom".to_string())).unwrap_err();
        assert_eq!(e, "boom");
        assert!(!hit(&c, 7, "fine"), "a failed compute must not satisfy later lookups");
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().misses, 2, "every leader compute counts, failed or not");
    }

    #[test]
    fn eviction_is_lru_under_the_weight_budget_and_hits_refresh_recency() {
        // One shard with room for two 100-byte values.
        let c = cache(250, 1);
        let payload = "x".repeat(100);
        hit(&c, 0, &payload);
        hit(&c, 1, &payload);
        assert!(hit(&c, 0, &payload), "refresh key 0");
        hit(&c, 2, &payload); // over budget: evicts 1, the least recent
        let s = c.stats();
        assert_eq!((s.entries, s.weight, s.evictions), (2, 200, 1), "{s:?}");
        assert!(hit(&c, 0, &payload), "the refreshed entry must survive");
        assert!(hit(&c, 2, &payload));
        assert!(!hit(&c, 1, &payload), "the stale entry must be the victim");
    }

    #[test]
    fn oversized_values_are_served_but_not_stored() {
        let c = cache(64, 1);
        let big = "y".repeat(1000);
        let (v, hit) = c.get_or_compute(5, no_wait, || ok(&big)).unwrap();
        assert!(!hit);
        assert_eq!(*v, big);
        assert_eq!((c.stats().entries, c.stats().weight), (0, 0));
    }

    #[test]
    fn zero_capacity_stores_nothing_but_still_counts() {
        let c = cache(0, 2);
        assert!(!hit(&c, 1, "a"));
        assert!(!hit(&c, 1, "a"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
    }

    #[test]
    fn eight_concurrent_misses_compute_once() {
        let c = Arc::new(cache(1 << 20, 4));
        let computes = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (c, computes) = (Arc::clone(&c), Arc::clone(&computes));
                std::thread::spawn(move || {
                    let (v, _) = c
                        .get_or_compute(99, no_wait, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(30));
                            ok("slow")
                        })
                        .unwrap();
                    assert_eq!(*v, "slow");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight violated");
        let s = c.stats();
        assert_eq!((s.misses, s.hits), (1, 7));
    }

    #[test]
    fn a_panicking_leader_frees_the_key() {
        let c = Arc::new(cache(1 << 20, 1));
        let gate = Arc::new(Barrier::new(2));
        let leader = {
            let (c, gate) = (Arc::clone(&c), Arc::clone(&gate));
            std::thread::spawn(move || {
                c.get_or_compute(11, no_wait, || -> Result<Arc<String>, String> {
                    gate.wait(); // the main thread now joins this flight
                    std::thread::sleep(Duration::from_millis(30));
                    panic!("compute exploded");
                })
            })
        };
        gate.wait();
        // This lookup parks on the doomed flight; when the leader panics
        // it must wake, lead a fresh compute, and succeed.
        let (v, _) = c.get_or_compute(11, no_wait, || ok("recovered")).unwrap();
        assert_eq!(*v, "recovered");
        assert!(leader.join().is_err(), "the panic must reach the leader's caller");
        assert!(hit(&c, 11, "unused"), "no stale flight remains");
    }

    #[test]
    fn an_on_wait_error_ends_the_wait() {
        let c = Arc::new(cache(1 << 20, 1));
        let (started, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let leader = {
            let (c, started, release) =
                (Arc::clone(&c), Arc::clone(&started), Arc::clone(&release));
            std::thread::spawn(move || {
                c.get_or_compute(3, no_wait, || {
                    started.wait();
                    release.wait(); // held until the waiter has given up
                    ok("late")
                })
            })
        };
        started.wait();
        let t = Instant::now();
        let mut polls = 0;
        let e = c
            .get_or_compute(
                3,
                || {
                    polls += 1;
                    if polls > 2 {
                        Err("gave up".to_string())
                    } else {
                        Ok(())
                    }
                },
                || panic!("a waiter must not compute"),
            )
            .unwrap_err();
        assert_eq!(e, "gave up");
        assert_eq!(polls, 3);
        assert!(t.elapsed() < Duration::from_secs(5));
        release.wait();
        assert_eq!(*leader.join().unwrap().unwrap().0, "late");
        assert_eq!(c.stats().hits, 0, "an abandoned wait is not a hit");
    }
}

/// The cache against a reference model: today's policy written as the
/// full-shard scan it once was, so the stamp-ordered index must pick the
/// same victims.
#[cfg(test)]
mod model {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// One shard of the scan cache: key → (value, weight, stamp).
    #[derive(Default)]
    struct ScanShard {
        entries: HashMap<u64, (String, u64, u64)>,
        weight: u64,
        clock: u64,
    }

    /// The reference: per-shard weighted LRU that evicts by scanning
    /// every entry for the oldest stamp.
    struct ScanCache {
        shards: Vec<ScanShard>,
        budget: u64,
        stats: CacheStats,
    }

    impl ScanCache {
        fn new(capacity: u64, shards: usize) -> ScanCache {
            ScanCache {
                shards: (0..shards).map(|_| ScanShard::default()).collect(),
                budget: capacity / shards as u64,
                stats: CacheStats::default(),
            }
        }

        fn shard(&mut self, key: u64) -> &mut ScanShard {
            let n = self.shards.len();
            &mut self.shards[(key >> 32) as usize % n]
        }

        fn stamp(&mut self, key: u64) -> Option<String> {
            let s = self.shard(key);
            s.clock += 1;
            let clock = s.clock;
            let e = s.entries.get_mut(&key)?;
            e.2 = clock;
            Some(e.0.clone())
        }

        /// `get_or_compute` with a compute that yields `fill` (or fails).
        fn lookup(&mut self, key: u64, fill: Option<String>) -> Result<(String, bool), ()> {
            if self.shard(key).entries.contains_key(&key) {
                self.stats.hits += 1;
                return Ok((self.stamp(key).expect("present"), true));
            }
            self.stats.misses += 1;
            let val = fill.ok_or(())?;
            let weight = val.len() as u64;
            let budget = self.budget;
            if budget > 0 && weight <= budget {
                let s = self.shard(key);
                s.clock += 1;
                let stamp = s.clock;
                s.entries.insert(key, (val.clone(), weight, stamp));
                s.weight += weight;
                self.stats.entries += 1;
                self.stats.weight += weight;
                loop {
                    let s = self.shard(key);
                    if s.weight <= budget {
                        break;
                    }
                    let victim = *s.entries.iter().min_by_key(|(_, e)| e.2).expect("over budget").0;
                    let (_, w, _) = s.entries.remove(&victim).expect("chosen from the map");
                    s.weight -= w;
                    self.stats.entries -= 1;
                    self.stats.weight -= w;
                    self.stats.evictions += 1;
                }
            }
            Ok((val, false))
        }

        fn peek(&mut self, key: u64) -> Option<String> {
            self.shard(key).entries.get(&key).map(|e| e.0.clone())
        }

        fn record_hit(&mut self, key: u64) {
            self.stats.hits += 1;
            if self.shard(key).entries.contains_key(&key) {
                self.stamp(key);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Fill, get, peek, record_hit and failed computes in any order,
        /// with random weights: the same answers, the same counters and
        /// the same surviving keys as the scan.
        #[test]
        fn the_indexed_cache_evicts_like_the_scan(
            capacity in 0u64..600,
            shards in 1usize..4,
            ops in vec((0u8..4, 0u64..3, 0u64..12, 1usize..160), 1..300),
        ) {
            let cache: Cache<String> = Cache::new(capacity, shards, |s| s.len() as u64);
            let mut model = ScanCache::new(capacity, shards);
            for &(op, hi, lo, len) in &ops {
                let key = (hi << 32) | lo;
                let fill = "v".repeat(len);
                match op {
                    0 => {
                        let got = cache.get_or_compute(key, || Ok::<(), ()>(()), || Ok(fill.clone()));
                        prop_assert_eq!(got, model.lookup(key, Some(fill)));
                    }
                    1 => {
                        let got = cache.get_or_compute(key, || Ok::<(), ()>(()), || Err(()));
                        prop_assert_eq!(got, model.lookup(key, None));
                    }
                    2 => prop_assert_eq!(cache.peek(key), model.peek(key)),
                    _ => {
                        cache.record_hit(key);
                        model.record_hit(key);
                    }
                }
                prop_assert_eq!(cache.stats(), model.stats);
            }
            for hi in 0..3u64 {
                for lo in 0..12u64 {
                    let key = (hi << 32) | lo;
                    prop_assert_eq!(cache.peek(key), model.peek(key), "key {:#x}", key);
                }
            }
        }
    }

    #[test]
    fn each_eviction_examines_one_candidate() {
        // One shard of 1,000 unit-weight entries, filled, then 500 more.
        let c: Cache<u64> = Cache::new(1_000, 1, |_| 1);
        for k in 0..1_500u64 {
            c.get_or_compute(k, || Ok::<(), ()>(()), || Ok(k)).unwrap();
        }
        let s = c.stats();
        assert_eq!((s.entries, s.evictions), (1_000, 500), "{s:?}");
        assert_eq!(lock(&c.shards[0]).examined, 500, "one candidate per eviction");
        // The 500 oldest went, in stamp order.
        assert_eq!(c.peek(499), None);
        assert_eq!(c.peek(500), Some(500));
    }
}
