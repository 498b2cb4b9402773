//! Overload control: priority classes, admission cost estimation, and the
//! brown-out state machine.
//!
//! The server rations CPU the way the paper's compiler rations bandwidth:
//! when demand exceeds capacity, the cheap, latency-sensitive traffic is
//! protected and the expensive tail is shed or shrunk *first*.  Three
//! cooperating mechanisms, applied in order on every request:
//!
//! 1. **Deadline-aware admission** — a request's tighten-only wall budget
//!    starts counting at *accept* time, so time spent waiting in the
//!    accept queue is charged against it.  A request whose deadline
//!    expired in the queue is answered `deadline_exceeded` without ever
//!    touching analysis, and one whose [`estimate_cost_ms`] cannot fit the
//!    remaining deadline is rejected up front instead of burning a worker
//!    to discover the same thing.
//! 2. **Priority classes + weighted shedding** — every request kind maps
//!    to a [`Class`]; each class holds a queue-fullness threshold
//!    ([`CLASS_WEIGHTS`]), so as the accept queue fills the lowest
//!    classes are shed first and `report` keeps flowing while
//!    `optimize-search` gets a structured `busy`.
//! 3. **Brown-out controller** — [`Brownout`] tracks EWMAs of queue
//!    fullness and per-request busy time and walks a small hysteresis
//!    ladder: level 1 drops profile splicing, level 2 clamps search
//!    width/depth, level 3 sheds the lowest class outright.  Every
//!    degraded response carries an explicit `degraded` marker and bypasses
//!    the result cache in both directions (the PR 5 profile rule), which
//!    is why the brown-out level is *not* part of the cache key: cached
//!    bytes are only ever produced and served undegraded.

use std::time::Duration;

use mbb_ir::program::Program;

use crate::protocol::Kind;

/// Priority class of a request kind, highest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Operability traffic: `health`, `metrics`, `machines`, `shutdown`.
    /// Never shed — an operator must be able to see a saturated server.
    Admin,
    /// Cheap analyses: `report`, `advise`, `trace-stats`.
    Report,
    /// The fixed optimisation pipeline: `optimize`.
    Optimize,
    /// Combinatorial search: `optimize-search` — the expensive tail, shed
    /// first.
    Search,
}

impl Class {
    /// Every class, highest priority first.
    pub const ALL: [Class; 4] = [Class::Admin, Class::Report, Class::Optimize, Class::Search];

    /// The class of a request kind.
    pub fn of(kind: Kind) -> Class {
        match kind {
            Kind::Health | Kind::Metrics | Kind::Machines | Kind::ClusterStats | Kind::Shutdown => {
                Class::Admin
            }
            Kind::Report | Kind::Advise | Kind::TraceStats => Class::Report,
            Kind::Optimize => Class::Optimize,
            Kind::OptimizeSearch => Class::Search,
        }
    }

    /// Stable label for metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Admin => "admin",
            Class::Report => "report",
            Class::Optimize => "optimize",
            Class::Search => "search",
        }
    }

    /// Index into [`Class::ALL`]-shaped counter arrays.
    pub fn index(self) -> usize {
        Class::ALL.iter().position(|&c| c == self).expect("class listed in ALL")
    }
}

/// Why a request (or connection) was refused service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// The accept queue was full; the connection was shed before its
    /// request was even read (class unknown).
    QueueFull,
    /// The queue crossed the class's fullness threshold.
    Saturation,
    /// Brown-out level 3 sheds the lowest class outright.
    Brownout,
    /// The request's deadline expired while it waited in the queue.
    Expired,
    /// The estimated cost cannot fit the remaining deadline.
    Admission,
}

impl Reason {
    /// Every reason, in counter order.
    pub const ALL: [Reason; 5] = [
        Reason::QueueFull,
        Reason::Saturation,
        Reason::Brownout,
        Reason::Expired,
        Reason::Admission,
    ];

    /// Stable label for metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            Reason::QueueFull => "queue-full",
            Reason::Saturation => "saturation",
            Reason::Brownout => "brownout",
            Reason::Expired => "expired",
            Reason::Admission => "admission",
        }
    }

    /// Index into [`Reason::ALL`]-shaped counter arrays.
    pub fn index(self) -> usize {
        Reason::ALL.iter().position(|&r| r == self).expect("reason listed in ALL")
    }
}

/// How the brown-out controller altered the handling of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeAction {
    /// Level ≥ 1: profile splicing disabled; the request is served as if
    /// `profile:false`.
    NoProfile,
    /// Level ≥ 2: `optimize-search` beam/steps clamped server-side to
    /// [`BROWNOUT_BEAM`]/[`BROWNOUT_STEPS`].
    SearchClamp,
}

impl DegradeAction {
    /// Every action, in counter order.
    pub const ALL: [DegradeAction; 2] = [DegradeAction::NoProfile, DegradeAction::SearchClamp];

    /// Stable label for metrics and the response envelope.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeAction::NoProfile => "no-profile",
            DegradeAction::SearchClamp => "search-clamp",
        }
    }

    /// Index into [`DegradeAction::ALL`]-shaped counter arrays.
    pub fn index(self) -> usize {
        DegradeAction::ALL.iter().position(|&a| a == self).expect("action listed in ALL")
    }
}

/// Per-class queue-fullness thresholds, percent of `queue_depth`: a class
/// is shed once the queue is *more* than this full.  Admin is never shed;
/// search gives way first.
pub const CLASS_WEIGHTS: [u8; Class::ALL.len()] = [100, 90, 60, 30];

/// Per-request busy time the brown-out controller treats as "at target"
/// (busy pressure 1024).
pub const BROWNOUT_TARGET: Duration = Duration::from_millis(250);

/// Beam width `optimize-search` is clamped to at brown-out level 2.
pub const BROWNOUT_BEAM: usize = 2;
/// Expansion steps `optimize-search` is clamped to at brown-out level 2.
pub const BROWNOUT_STEPS: usize = 2;

/// Conservative interpreter throughput for admission control, in
/// innermost-loop iterations per millisecond.  Deliberately an order of
/// magnitude below what the engines actually sustain: admission must only
/// reject requests that are *hopeless* within their deadline, never ones
/// that are merely tight (the budget machinery handles those precisely).
const EST_STEPS_PER_MS: u64 = 100_000;

/// Iterations assumed for a nest whose bounds are not compile-time
/// constant (triangular or variable bounds).
const EST_DYNAMIC_TRIPS: u64 = 1 << 16;

/// Rough per-kind multiplier over one interpreter pass: `optimize` runs
/// the pipeline plus before/after measurement; `optimize-search` explores
/// many candidates.
fn kind_passes(kind: Kind) -> u64 {
    match kind {
        Kind::Report | Kind::Advise | Kind::TraceStats => 2,
        Kind::Optimize => 8,
        Kind::OptimizeSearch => 32,
        Kind::Health | Kind::Machines | Kind::Metrics | Kind::ClusterStats | Kind::Shutdown => 0,
    }
}

/// Estimated cost of analysing `prog` under `kind`, in milliseconds.
/// Used by admission control to reject requests whose cost cannot fit the
/// remaining deadline; see `EST_STEPS_PER_MS` for the bias.
pub fn estimate_cost_ms(prog: &Program, kind: Kind) -> u64 {
    let steps: u64 = prog
        .nests
        .iter()
        .map(|n| n.const_trip_count().unwrap_or(EST_DYNAMIC_TRIPS))
        .fold(0u64, u64::saturating_add);
    steps.saturating_mul(kind_passes(kind)) / EST_STEPS_PER_MS
}

/// Brown-out controller tuning.  All pressures are fixed-point per-1024
/// fractions (1024 = queue full / busy time at target), so the state
/// machine is exactly reproducible — no floats, no clock.
#[derive(Clone, Copy, Debug)]
pub struct BrownoutConfig {
    /// EWMA weight of the newest observation, per-1024 (256 = ¼).
    pub alpha_1024: u64,
    /// Escalation thresholds: level k → k+1 once pressure ≥ `up[k]`.
    pub up: [u64; 3],
    /// De-escalation thresholds: level k+1 → k once pressure ≤ `down[k]`.
    /// Strictly below `up[k]` — the hysteresis band that stops flapping.
    pub down: [u64; 3],
    /// Consecutive qualifying observations before a transition fires.
    pub hold: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig { alpha_1024: 256, up: [384, 640, 896], down: [160, 384, 640], hold: 2 }
    }
}

/// Raw pressure inputs are capped here so one pathological observation
/// cannot pin the EWMA arbitrarily high.
const PRESSURE_CAP: u64 = 4096;

/// The brown-out state machine: a pure function of its observation
/// sequence (see [`BrownoutConfig`]), driven by the server once per
/// completed request and on idle acceptor ticks.
#[derive(Clone, Debug)]
pub struct Brownout {
    cfg: BrownoutConfig,
    queue_ewma: u64,
    busy_ewma: u64,
    level: u8,
    streak_up: u32,
    streak_down: u32,
}

impl Brownout {
    /// A controller at level 0 with zero pressure.
    pub fn new(cfg: BrownoutConfig) -> Brownout {
        Brownout { cfg, queue_ewma: 0, busy_ewma: 0, level: 0, streak_up: 0, streak_down: 0 }
    }

    /// A controller pinned to `level` with both EWMAs at `pressure`
    /// (tests drive transition properties from arbitrary states).
    pub fn with_state(cfg: BrownoutConfig, level: u8, pressure: u64) -> Brownout {
        Brownout {
            cfg,
            queue_ewma: pressure,
            busy_ewma: pressure,
            level: level.min(3),
            streak_up: 0,
            streak_down: 0,
        }
    }

    /// Current brown-out level, 0 (healthy) to 3 (saturated).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Smoothed queue fullness, per-1024.
    pub fn queue_ewma(&self) -> u64 {
        self.queue_ewma
    }

    /// Smoothed busy time relative to target, per-1024.
    pub fn busy_ewma(&self) -> u64 {
        self.busy_ewma
    }

    /// The pressure the ladder compares against thresholds: the worse of
    /// the two smoothed signals.
    pub fn pressure(&self) -> u64 {
        self.queue_ewma.max(self.busy_ewma)
    }

    /// Feeds one observation (both inputs per-1024; values above 1024
    /// mean "beyond target") and returns the possibly-updated level.
    ///
    /// The ladder moves one rung at a time, only after `hold` consecutive
    /// observations beyond a threshold, and the `down` thresholds sit
    /// strictly below the `up` ones — three separate guards against
    /// flapping between adjacent levels.
    pub fn observe(&mut self, queue_frac_1024: u64, busy_frac_1024: u64) -> u8 {
        let ewma = |prev: u64, x: u64, alpha: u64| {
            let x = x.min(PRESSURE_CAP);
            (prev * (1024 - alpha) + x * alpha) / 1024
        };
        let alpha = self.cfg.alpha_1024.clamp(1, 1024);
        self.queue_ewma = ewma(self.queue_ewma, queue_frac_1024, alpha);
        self.busy_ewma = ewma(self.busy_ewma, busy_frac_1024, alpha);
        let p = self.pressure();
        if self.level < 3 && p >= self.cfg.up[self.level as usize] {
            self.streak_down = 0;
            self.streak_up += 1;
            if self.streak_up >= self.cfg.hold.max(1) {
                self.level += 1;
                self.streak_up = 0;
            }
        } else if self.level > 0 && p <= self.cfg.down[self.level as usize - 1] {
            self.streak_up = 0;
            self.streak_down += 1;
            if self.streak_down >= self.cfg.hold.max(1) {
                self.level -= 1;
                self.streak_down = 0;
            }
        } else {
            self.streak_up = 0;
            self.streak_down = 0;
        }
        self.level
    }

    /// Health-kind status word for the current level.
    pub fn status(&self) -> &'static str {
        match self.level {
            0 => "ok",
            3 => "saturated",
            _ => "degraded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_every_kind_in_priority_order() {
        for kind in Kind::ALL {
            let c = Class::of(kind);
            assert_eq!(Class::ALL[c.index()], c);
        }
        assert_eq!(Class::of(Kind::Health), Class::Admin);
        assert_eq!(Class::of(Kind::Report), Class::Report);
        assert_eq!(Class::of(Kind::Optimize), Class::Optimize);
        assert_eq!(Class::of(Kind::OptimizeSearch), Class::Search);
        // Weights are monotone non-increasing with descending priority.
        let w = CLASS_WEIGHTS;
        assert!(w.windows(2).all(|p| p[0] >= p[1]), "{w:?}");
        assert_eq!(w[Class::Admin.index()], 100, "admin must never be shed");
    }

    #[test]
    fn reasons_have_stable_distinct_labels() {
        let mut names: Vec<&str> = Reason::ALL.iter().map(|r| r.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Reason::ALL.len());
        for r in Reason::ALL {
            assert_eq!(Reason::ALL[r.index()], r);
        }
    }

    #[test]
    fn cost_estimate_scales_with_trip_count_and_kind() {
        let small = crate::analysis::load(
            "array a[64]\nscalar s = 0  // printed\nfor i = 0, 63\n  s = (s + a[i])\nend for\n",
        )
        .unwrap();
        // 64 iterations: far below a millisecond under any kind.
        assert_eq!(estimate_cost_ms(&small, Kind::Report), 0);
        assert_eq!(estimate_cost_ms(&small, Kind::OptimizeSearch), 0);

        // ~2.6M innermost iterations (the chaos suite's HUGE program).
        let huge = crate::analysis::load(
            "array a[8]\nscalar s = 0  // printed\nfor i = 0, 327679\n  for j = 0, 7\n    s = (s + a[j])\n  end for\nend for\n",
        )
        .unwrap();
        let report = estimate_cost_ms(&huge, Kind::Report);
        let search = estimate_cost_ms(&huge, Kind::OptimizeSearch);
        assert!(report >= 10, "{report}");
        assert!(search > report, "search must cost more than report");
    }

    fn drive(b: &mut Brownout, x: u64, n: usize) -> u8 {
        let mut level = b.level();
        for _ in 0..n {
            level = b.observe(x, 0);
        }
        level
    }

    #[test]
    fn ladder_escalates_and_recovers_one_rung_at_a_time() {
        let mut b = Brownout::new(BrownoutConfig::default());
        assert_eq!(b.level(), 0);
        assert_eq!(b.status(), "ok");
        // Saturated input walks the ladder to 3 and no further.
        let mut seen = vec![0u8];
        for _ in 0..64 {
            let l = b.observe(1024, 1024);
            if *seen.last().unwrap() != l {
                seen.push(l);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3], "one rung at a time: {seen:?}");
        assert_eq!(b.status(), "saturated");
        // Sustained idle decays all the way back down.
        assert_eq!(drive(&mut b, 0, 256), 0);
        assert_eq!(b.status(), "ok");
        assert_eq!(b.pressure(), 0);
    }

    #[test]
    fn hold_debounces_single_spikes() {
        let cfg = BrownoutConfig { alpha_1024: 1024, hold: 3, ..BrownoutConfig::default() };
        let mut b = Brownout::new(cfg);
        // alpha 1024 makes the EWMA track the raw input exactly; a spike
        // shorter than `hold` must not escalate.
        b.observe(1024, 0);
        b.observe(1024, 0);
        assert_eq!(b.observe(0, 0), 0, "two-observation spike held");
        b.observe(1024, 0);
        b.observe(1024, 0);
        assert_eq!(b.observe(1024, 0), 1, "three in a row escalates");
    }

    #[test]
    fn busy_signal_alone_can_escalate() {
        let mut b = Brownout::new(BrownoutConfig::default());
        for _ in 0..32 {
            b.observe(0, 2048); // empty queue, requests far over target
        }
        assert!(b.level() >= 1, "busy-time EWMA must drive the ladder too");
        assert_eq!(b.queue_ewma(), 0);
        assert!(b.busy_ewma() > 1024);
    }
}
