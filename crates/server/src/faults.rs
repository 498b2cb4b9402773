//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] names a seed, a per-[`Site`] firing rate, and an
//! artificial delay.  [`install`]ing a plan arms every instrumented site
//! in the server, cache, and client: each time execution passes a site it
//! draws from a SplitMix64 stream keyed by `(seed, site, draw index)` and
//! fires when the draw lands under the site's rate.  The same plan
//! therefore produces the same fault schedule for the same sequence of
//! draws — a failing chaos seed replays exactly.
//!
//! With no plan installed, each site costs one relaxed atomic load —
//! cheap enough to leave in every build.
//!
//! Only one plan can be armed at a time, process-wide; [`install`]
//! returns a guard that disarms on drop.  Per-site draw and fire counters
//! let tests reconcile observed behaviour (e.g. the server's
//! `mbb_serve_panics_total`) against the injected schedule.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Named places where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Panic inside request handling (`server::respond`).
    HandlerPanic,
    /// Sleep before handling a request (`server::respond`).
    HandlerDelay,
    /// Fail a cache compute with an internal error (`cache::lead`).
    CacheCompute,
    /// Drop the connection instead of reading the next request
    /// (`server::event_loop`).
    ConnRead,
    /// Write only a prefix of the response, then drop the connection
    /// (`server::send`, the one write routine of workers and the event
    /// loop alike).
    ConnWriteShort,
    /// Fail a client connection attempt with a transient I/O error
    /// (`client::RetryClient`).
    ClientConnect,
    /// Stall a worker after it pops a connection but before it serves it
    /// (`server::worker`), so queued requests age toward their deadlines.
    WorkerStall,
}

impl Site {
    /// Every site, in counter order.
    pub const ALL: [Site; 7] = [
        Site::HandlerPanic,
        Site::HandlerDelay,
        Site::CacheCompute,
        Site::ConnRead,
        Site::ConnWriteShort,
        Site::ClientConnect,
        Site::WorkerStall,
    ];

    /// A stable display name for logs and replay output.
    pub fn name(self) -> &'static str {
        match self {
            Site::HandlerPanic => "handler-panic",
            Site::HandlerDelay => "handler-delay",
            Site::CacheCompute => "cache-compute",
            Site::ConnRead => "conn-read",
            Site::ConnWriteShort => "conn-write-short",
            Site::ClientConnect => "client-connect",
            Site::WorkerStall => "worker-stall",
        }
    }

    /// Index into [`Site::ALL`]-shaped arrays.
    pub fn index(self) -> usize {
        Site::ALL.iter().position(|&s| s == self).expect("site listed in ALL")
    }
}

/// A seeded fault schedule: per-site firing rates out of 1024 draws.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for the per-site decision streams.
    pub seed: u64,
    rates: [u16; Site::ALL.len()],
    delay: Duration,
}

impl FaultPlan {
    /// A plan with the given seed and every rate zero (no faults fire
    /// until rates are set).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rates: [0; Site::ALL.len()], delay: Duration::from_millis(2) }
    }

    /// Sets `site` to fire on `per_1024` of every 1024 draws (clamped).
    pub fn rate(mut self, site: Site, per_1024: u16) -> FaultPlan {
        self.rates[site.index()] = per_1024.min(1024);
        self
    }

    /// Sets the sleep used when [`Site::HandlerDelay`] fires.
    pub fn delay(mut self, d: Duration) -> FaultPlan {
        self.delay = d;
        self
    }
}

struct Active {
    plan: FaultPlan,
    draws: [AtomicU64; Site::ALL.len()],
    fired: [AtomicU64; Site::ALL.len()],
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<Active>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Active>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Disarms the installed plan when dropped.
pub struct FaultGuard {
    _private: (),
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *slot().lock().unwrap_or_else(|p| p.into_inner()) = None;
    }
}

/// Arms `plan` process-wide until the returned guard drops.
///
/// # Panics
///
/// Panics if a plan is already armed: overlapping plans would make the
/// draw streams nondeterministic, which defeats seed replay.
pub fn install(plan: FaultPlan) -> FaultGuard {
    let mut s = slot().lock().unwrap_or_else(|p| p.into_inner());
    assert!(s.is_none(), "a FaultPlan is already installed");
    *s = Some(Arc::new(Active { plan, draws: Default::default(), fired: Default::default() }));
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard { _private: () }
}

fn active() -> Option<Arc<Active>> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    slot().lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Draws at `site`; true when the installed plan says this pass faults.
/// Unarmed, this is one relaxed atomic load and returns false.
pub fn fire(site: Site) -> bool {
    let Some(a) = active() else { return false };
    let rate = a.plan.rates[site.index()];
    if rate == 0 {
        return false;
    }
    let draw = a.draws[site.index()].fetch_add(1, Ordering::Relaxed);
    let r = mbb_obs::splitmix64(a.plan.seed ^ ((site.index() as u64) << 56) ^ draw);
    let hit = (r % 1024) < rate as u64;
    if hit {
        a.fired[site.index()].fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// How many times `site` has fired under the installed plan (0 when no
/// plan is armed).
pub fn fired(site: Site) -> u64 {
    active().map(|a| a.fired[site.index()].load(Ordering::Relaxed)).unwrap_or(0)
}

/// The artificial delay to sleep when [`Site::HandlerDelay`] fires.
pub fn handler_delay() -> Option<Duration> {
    active().map(|a| a.plan.delay)
}

/// The panic payload used by [`Site::HandlerPanic`]; tests match on this
/// to tell injected panics from real ones.
pub const PANIC_PAYLOAD: &str = "injected fault: handler panic";

// The armed plan is process-global: unit tests anywhere in this crate
// that install one hold this lock for writing, and tests whose requests
// pass fault sites hold it for reading, so no request meets another
// test's plan.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire() {
        let _t = TEST_LOCK.write().unwrap_or_else(|p| p.into_inner());
        for site in Site::ALL {
            assert!(!fire(site));
            assert_eq!(fired(site), 0);
        }
        assert!(handler_delay().is_none());
    }

    #[test]
    fn schedules_are_deterministic_per_seed_and_counted() {
        let _t = TEST_LOCK.write().unwrap_or_else(|p| p.into_inner());
        let run = |seed| {
            let _g = install(
                FaultPlan::new(seed).rate(Site::HandlerPanic, 256).rate(Site::ConnRead, 64),
            );
            let pattern: Vec<bool> = (0..512).map(|_| fire(Site::HandlerPanic)).collect();
            let count = fired(Site::HandlerPanic);
            assert_eq!(count, pattern.iter().filter(|&&b| b).count() as u64);
            assert_eq!(fired(Site::ConnRead), 0, "independent streams");
            (pattern, count)
        };
        let (a, ca) = run(7);
        let (b, cb) = run(7);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(ca, cb);
        // Rate 256/1024 over 512 draws: expect roughly a quarter to fire.
        assert!(ca > 64 && ca < 192, "rate far off: {ca}");
        let (c, _) = run(8);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn guard_disarms_and_rates_clamp() {
        let _t = TEST_LOCK.write().unwrap_or_else(|p| p.into_inner());
        {
            let _g = install(FaultPlan::new(1).rate(Site::CacheCompute, 4096));
            assert!(fire(Site::CacheCompute), "clamped to always-fire");
        }
        assert!(!fire(Site::CacheCompute), "guard dropped, site disarmed");
    }
}
