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
//!   weight.  Every hit stamps its entry from a per-shard logical clock;
//!   storing past the budget evicts the oldest stamps.  A value heavier
//!   than a whole shard is returned but never stored.
//! * **Poison-tolerant.**  Critical sections never panic, so a poisoned
//!   lock carries no torn state and is recovered rather than propagated.

use std::collections::HashMap;
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
    inflight: HashMap<u64, Arc<Flight>>,
    weight: u64,
    clock: u64,
}

impl<V: Clone> Shard<V> {
    /// The stored value for `key`, stamped as most recently used.
    fn touch(&mut self, key: u64) -> Option<V> {
        let e = self.entries.get_mut(&key)?;
        self.clock += 1;
        e.stamp = self.clock;
        Some(e.val.clone())
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
                        inflight: HashMap::new(),
                        weight: 0,
                        clock: 0,
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
                if let Some(val) = s.touch(key) {
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
            s.weight += weight;
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.weight.fetch_add(weight, Ordering::Relaxed);
            while s.weight > self.shard_budget {
                let Some((&victim, _)) = s.entries.iter().min_by_key(|(_, e)| e.stamp) else {
                    break;
                };
                let e = s.entries.remove(&victim).expect("victim chosen from the map");
                s.weight -= e.weight;
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.weight.fetch_sub(e.weight, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok((val, false))
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
