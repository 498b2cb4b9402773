//! Lock-free service metrics with Prometheus text exposition.
//!
//! Everything is a plain atomic: request counters per kind, error counters
//! per [`ErrorKind`], queue/worker gauges, and a log-2-bucketed histogram
//! of per-request on-CPU time (the [`mbb_obs::Meter`] `busy()` reading,
//! so background load on the host does not inflate the latencies).
//! `render()` emits the Prometheus text exposition format the `metrics`
//! request returns — scrape-ready, no client library needed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cache::CacheStats;
use crate::error::ErrorKind;
use crate::overload::{Class, DegradeAction, Reason};
use crate::protocol::Kind;

/// Histogram buckets: powers of two from 2¹⁰ ns (≈1 µs) to 2³⁴ ns
/// (≈17 s), plus +Inf.  Analysis requests span microseconds (cache hits)
/// to seconds (large optimize runs), so log-2 spacing keeps every decade
/// resolvable in a fixed 25 buckets.
const BUCKET_LO: u32 = 10;
const BUCKET_HI: u32 = 34;
const BUCKETS: usize = (BUCKET_HI - BUCKET_LO + 1) as usize;

/// A log-2 latency histogram.
#[derive(Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    inf: AtomicU64,
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        for (k, c) in self.counts.iter().enumerate() {
            if ns <= 1u64 << (BUCKET_LO + k as u32) {
                c.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.inf.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// All service counters, shared by workers and the metrics endpoint.
#[derive(Default)]
pub struct Metrics {
    requests: [AtomicU64; Kind::ALL.len()],
    errors: [AtomicU64; ErrorKind::ALL.len()],
    /// Connections shed with a busy response before queueing.
    pub busy_total: AtomicU64,
    /// Connections accepted (including shed ones).
    pub connections_total: AtomicU64,
    /// Connections currently open on the event loop.
    pub connections_open: AtomicU64,
    /// Requests currently waiting in the dispatch queue.
    pub queue_depth: AtomicU64,
    /// Requests answered by this node's own pipeline (it owns the key, or
    /// no tier is configured, or the peer route fell back).
    pub route_local_total: AtomicU64,
    /// Requests relayed to the owning peer shard.
    pub route_forward_total: AtomicU64,
    /// Peer relays that failed (connect/IO error) and fell back to local
    /// computation.
    pub forward_errors_total: AtomicU64,
    /// Requests that arrived already `"fwd":true`-marked from a peer.
    pub forwarded_in_total: AtomicU64,
    /// Workers currently handling a connection.
    pub workers_busy: AtomicU64,
    /// Requests answered on the event-loop thread: plain cache hits that
    /// never reached a worker.
    pub loop_answers_total: AtomicU64,
    /// Handler panics caught and answered with a structured `internal`
    /// error.
    pub panics_total: AtomicU64,
    /// Worker loops restarted after a connection-level panic escaped the
    /// per-request isolation.
    pub worker_respawns_total: AtomicU64,
    /// Requests refused service, by priority class × shed reason
    /// (`mbb_serve_shed_total{class,reason}`).  Connection-level queue-full
    /// sheds land under the pseudo-class `unknown` — the request was never
    /// read.
    shed: [AtomicU64; Class::ALL.len() * Reason::ALL.len()],
    /// Connections shed at accept because the queue was full (class
    /// unknown at that point).
    shed_conn: AtomicU64,
    /// Current brown-out level (0–3), mirrored from the controller so the
    /// request path reads a relaxed atomic instead of taking its lock.
    pub brownout_level: AtomicU64,
    /// High-water brown-out level since start.  Load generators poll
    /// `health` for this after a storm: probes sent *during* the loaded
    /// window are exactly the ones most likely to be shed, so the peak
    /// must survive until someone can ask about it.
    pub brownout_level_max: AtomicU64,
    /// Requests served degraded, by brown-out action.
    degraded: [AtomicU64; DegradeAction::ALL.len()],
    /// Per-request on-CPU time.
    pub latency: Histogram,
    /// Wall-clock per analysis phase (span name → seconds sum, count),
    /// fed by profiled requests.  A `Mutex` rather than atomics: only
    /// profiled requests touch it, and those already paid for a full
    /// odometer collection.
    phase_seconds: Mutex<BTreeMap<String, (f64, u64)>>,
}

impl Metrics {
    /// Counts one request of `kind`.
    pub fn count_request(&self, kind: Kind) {
        self.requests[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one error response of `kind`.
    pub fn count_error(&self, kind: ErrorKind) {
        self.errors[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests over all kinds.
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Requests of one kind.
    pub fn requests_of(&self, kind: Kind) -> u64 {
        self.requests[kind.index()].load(Ordering::Relaxed)
    }

    /// Errors of one kind.
    pub fn errors_of(&self, kind: ErrorKind) -> u64 {
        self.errors[kind.index()].load(Ordering::Relaxed)
    }

    /// Counts one request refused service.
    pub fn count_shed(&self, class: Class, reason: Reason) {
        self.shed[class.index() * Reason::ALL.len() + reason.index()]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Sheds of one class × reason cell.
    pub fn shed_of(&self, class: Class, reason: Reason) -> u64 {
        self.shed[class.index() * Reason::ALL.len() + reason.index()].load(Ordering::Relaxed)
    }

    /// Counts one connection shed at accept (class unknown).
    pub fn count_shed_conn(&self) {
        self.shed_conn.fetch_add(1, Ordering::Relaxed);
    }

    /// Total sheds over all classes and reasons, connection-level included.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>()
            + self.shed_conn.load(Ordering::Relaxed)
    }

    /// Counts one request served degraded under `action`.
    pub fn count_degraded(&self, action: DegradeAction) {
        self.degraded[action.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Degraded servings of one action.
    pub fn degraded_of(&self, action: DegradeAction) -> u64 {
        self.degraded[action.index()].load(Ordering::Relaxed)
    }

    /// Records the phase timings of one profiled request.  Per-nest spans
    /// (`nest:<name>`) are skipped and the search's per-candidate spans
    /// (`score:<spec>`) fold into one `score` phase: nest names are
    /// client-controlled and specs differ per program, so either would
    /// make the label set unbounded.  The profile itself keeps both.
    pub fn record_phases(&self, profile: &mbb_obs::Profile) {
        let mut map = self.phase_seconds.lock().unwrap_or_else(|e| e.into_inner());
        for s in &profile.spans {
            if s.name.starts_with("nest:") {
                continue;
            }
            let phase = if s.name.starts_with("score:") { "score" } else { &s.name };
            let entry = map.entry(phase.to_string()).or_insert((0.0, 0));
            entry.0 += s.wall_ns as f64 / 1e9;
            entry.1 += 1;
        }
    }

    /// Cumulative seconds and observations for one span name (testing).
    pub fn phase_of(&self, span: &str) -> Option<(f64, u64)> {
        self.phase_seconds.lock().unwrap_or_else(|e| e.into_inner()).get(span).copied()
    }

    /// Renders the Prometheus text exposition (metric names documented in
    /// `EXPERIMENTS.md`).  The result cache's and the source memo's
    /// counters ride along so one scrape shows the whole service.
    pub fn render(&self, cache: CacheStats, memo: CacheStats) -> String {
        use std::fmt::Write as _;
        let mut o = String::with_capacity(2048);

        let _ = writeln!(o, "# HELP mbb_serve_requests_total Requests received, by kind.");
        let _ = writeln!(o, "# TYPE mbb_serve_requests_total counter");
        for kind in Kind::ALL {
            let _ = writeln!(
                o,
                "mbb_serve_requests_total{{kind=\"{}\"}} {}",
                kind.as_str(),
                self.requests_of(kind)
            );
        }

        let _ = writeln!(o, "# HELP mbb_serve_errors_total Error responses, by code.");
        let _ = writeln!(o, "# TYPE mbb_serve_errors_total counter");
        for kind in ErrorKind::ALL {
            let _ = writeln!(
                o,
                "mbb_serve_errors_total{{code=\"{}\"}} {}",
                kind.code(),
                self.errors_of(kind)
            );
        }

        let _ = writeln!(o, "# HELP mbb_serve_busy_total Connections shed with a busy response.");
        let _ = writeln!(o, "# TYPE mbb_serve_busy_total counter");
        let _ = writeln!(o, "mbb_serve_busy_total {}", self.busy_total.load(Ordering::Relaxed));

        let _ = writeln!(o, "# HELP mbb_serve_connections_total Connections accepted.");
        let _ = writeln!(o, "# TYPE mbb_serve_connections_total counter");
        let _ = writeln!(
            o,
            "mbb_serve_connections_total {}",
            self.connections_total.load(Ordering::Relaxed)
        );

        let _ = writeln!(o, "# HELP mbb_serve_cache_hits_total Result-cache hits.");
        let _ = writeln!(o, "# TYPE mbb_serve_cache_hits_total counter");
        let _ = writeln!(o, "mbb_serve_cache_hits_total {}", cache.hits);
        let _ = writeln!(o, "# HELP mbb_serve_cache_misses_total Result-cache misses.");
        let _ = writeln!(o, "# TYPE mbb_serve_cache_misses_total counter");
        let _ = writeln!(o, "mbb_serve_cache_misses_total {}", cache.misses);
        let _ = writeln!(o, "# HELP mbb_serve_cache_entries Live result-cache entries.");
        let _ = writeln!(o, "# TYPE mbb_serve_cache_entries gauge");
        let _ = writeln!(o, "mbb_serve_cache_entries {}", cache.entries);
        let _ = writeln!(o, "# HELP mbb_serve_cache_bytes Result-cache bytes in use.");
        let _ = writeln!(o, "# TYPE mbb_serve_cache_bytes gauge");
        let _ = writeln!(o, "mbb_serve_cache_bytes {}", cache.weight);
        let _ = writeln!(
            o,
            "# HELP mbb_serve_source_memo_hits_total Requests keyed from the source memo."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_source_memo_hits_total counter");
        let _ = writeln!(o, "mbb_serve_source_memo_hits_total {}", memo.hits);
        let _ = writeln!(
            o,
            "# HELP mbb_serve_source_memo_misses_total Requests parsed to fill the source memo."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_source_memo_misses_total counter");
        let _ = writeln!(o, "mbb_serve_source_memo_misses_total {}", memo.misses);
        let _ = writeln!(o, "# HELP mbb_serve_source_memo_entries Live source-memo entries.");
        let _ = writeln!(o, "# TYPE mbb_serve_source_memo_entries gauge");
        let _ = writeln!(o, "mbb_serve_source_memo_entries {}", memo.entries);

        let _ = writeln!(o, "# HELP mbb_serve_connections_open Connections currently open.");
        let _ = writeln!(o, "# TYPE mbb_serve_connections_open gauge");
        let _ = writeln!(
            o,
            "mbb_serve_connections_open {}",
            self.connections_open.load(Ordering::Relaxed)
        );

        let _ = writeln!(o, "# HELP mbb_serve_queue_depth Requests waiting for a worker.");
        let _ = writeln!(o, "# TYPE mbb_serve_queue_depth gauge");
        let _ = writeln!(o, "mbb_serve_queue_depth {}", self.queue_depth.load(Ordering::Relaxed));

        let _ = writeln!(o, "# HELP mbb_serve_workers_busy Workers handling a request.");
        let _ = writeln!(o, "# TYPE mbb_serve_workers_busy gauge");
        let _ = writeln!(o, "mbb_serve_workers_busy {}", self.workers_busy.load(Ordering::Relaxed));

        let _ = writeln!(
            o,
            "# HELP mbb_serve_loop_answers_total Requests answered on the event-loop thread."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_loop_answers_total counter");
        let _ = writeln!(
            o,
            "mbb_serve_loop_answers_total {}",
            self.loop_answers_total.load(Ordering::Relaxed)
        );

        let _ = writeln!(o, "# HELP mbb_serve_route_total Requests routed, by destination.");
        let _ = writeln!(o, "# TYPE mbb_serve_route_total counter");
        let _ = writeln!(
            o,
            "mbb_serve_route_total{{dest=\"local\"}} {}",
            self.route_local_total.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            o,
            "mbb_serve_route_total{{dest=\"forward\"}} {}",
            self.route_forward_total.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            o,
            "# HELP mbb_serve_forward_errors_total Peer relays that fell back to local."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_forward_errors_total counter");
        let _ = writeln!(
            o,
            "mbb_serve_forward_errors_total {}",
            self.forward_errors_total.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            o,
            "# HELP mbb_serve_forwarded_in_total Requests received pre-forwarded from a peer."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_forwarded_in_total counter");
        let _ = writeln!(
            o,
            "mbb_serve_forwarded_in_total {}",
            self.forwarded_in_total.load(Ordering::Relaxed)
        );

        let _ = writeln!(o, "# HELP mbb_serve_panics_total Handler panics caught per request.");
        let _ = writeln!(o, "# TYPE mbb_serve_panics_total counter");
        let _ = writeln!(o, "mbb_serve_panics_total {}", self.panics_total.load(Ordering::Relaxed));

        let _ = writeln!(
            o,
            "# HELP mbb_serve_worker_respawns_total Worker loops restarted after a panic."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_worker_respawns_total counter");
        let _ = writeln!(
            o,
            "mbb_serve_worker_respawns_total {}",
            self.worker_respawns_total.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            o,
            "# HELP mbb_serve_shed_total Requests refused service, by class and reason."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_shed_total counter");
        let _ = writeln!(
            o,
            "mbb_serve_shed_total{{class=\"unknown\",reason=\"queue-full\"}} {}",
            self.shed_conn.load(Ordering::Relaxed)
        );
        for class in Class::ALL {
            for reason in Reason::ALL {
                if reason == Reason::QueueFull {
                    continue; // connection-level only; class is unknown there
                }
                let _ = writeln!(
                    o,
                    "mbb_serve_shed_total{{class=\"{}\",reason=\"{}\"}} {}",
                    class.as_str(),
                    reason.as_str(),
                    self.shed_of(class, reason)
                );
            }
        }

        let _ = writeln!(o, "# HELP mbb_serve_brownout_level Current brown-out level (0-3).");
        let _ = writeln!(o, "# TYPE mbb_serve_brownout_level gauge");
        let _ =
            writeln!(o, "mbb_serve_brownout_level {}", self.brownout_level.load(Ordering::Relaxed));

        let _ = writeln!(
            o,
            "# HELP mbb_serve_brownout_level_max High-water brown-out level since start."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_brownout_level_max gauge");
        let _ = writeln!(
            o,
            "mbb_serve_brownout_level_max {}",
            self.brownout_level_max.load(Ordering::Relaxed)
        );

        let _ = writeln!(
            o,
            "# HELP mbb_serve_degraded_total Requests served degraded, by brown-out action."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_degraded_total counter");
        for action in DegradeAction::ALL {
            let _ = writeln!(
                o,
                "mbb_serve_degraded_total{{action=\"{}\"}} {}",
                action.as_str(),
                self.degraded_of(action)
            );
        }

        let _ = writeln!(
            o,
            "# HELP mbb_serve_request_cpu_seconds On-CPU time per request (log-2 buckets)."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_request_cpu_seconds histogram");
        let mut cumulative = 0u64;
        for (k, c) in self.latency.counts.iter().enumerate() {
            cumulative += c.load(Ordering::Relaxed);
            let le = (1u64 << (BUCKET_LO + k as u32)) as f64 / 1e9;
            let _ =
                writeln!(o, "mbb_serve_request_cpu_seconds_bucket{{le=\"{le:e}\"}} {cumulative}");
        }
        cumulative += self.latency.inf.load(Ordering::Relaxed);
        let _ = writeln!(o, "mbb_serve_request_cpu_seconds_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(
            o,
            "mbb_serve_request_cpu_seconds_sum {}",
            self.latency.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
        );
        let _ = writeln!(o, "mbb_serve_request_cpu_seconds_count {}", self.latency.count());

        let _ = writeln!(
            o,
            "# HELP mbb_serve_phase_seconds Wall-clock per analysis phase (profiled requests)."
        );
        let _ = writeln!(o, "# TYPE mbb_serve_phase_seconds summary");
        let phases = self.phase_seconds.lock().unwrap_or_else(|e| e.into_inner());
        for (name, (sum, count)) in phases.iter() {
            let _ = writeln!(o, "mbb_serve_phase_seconds_sum{{span=\"{name}\"}} {sum}");
            let _ = writeln!(o, "mbb_serve_phase_seconds_count{{span=\"{name}\"}} {count}");
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_complete() {
        let h = Histogram::default();
        h.observe(Duration::from_nanos(500)); // below first bucket edge
        h.observe(Duration::from_micros(100));
        h.observe(Duration::from_millis(10));
        h.observe(Duration::from_secs(100)); // beyond the last edge → +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.inf.load(Ordering::Relaxed), 1);
        let bucketed: u64 = h.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(bucketed, 3);
    }

    #[test]
    fn render_exposes_every_metric_family() {
        let m = Metrics::default();
        let memo = CacheStats { hits: 3, misses: 2, entries: 1, ..CacheStats::default() };
        m.count_request(Kind::Report);
        m.count_error(ErrorKind::Parse);
        m.count_shed(Class::Search, Reason::Saturation);
        m.count_shed_conn();
        m.count_degraded(DegradeAction::SearchClamp);
        m.brownout_level.store(2, Ordering::Relaxed);
        m.latency.observe(Duration::from_micros(3));
        let profile = mbb_obs::Profile {
            spans: vec![
                mbb_obs::SpanRecord {
                    name: "measure".into(),
                    parent: None,
                    depth: 0,
                    start_ns: 0,
                    wall_ns: 2_000_000_000,
                    cpu_ns: None,
                    delta: mbb_obs::Counters::default(),
                },
                mbb_obs::SpanRecord {
                    name: "nest:evil{label}".into(),
                    parent: Some(0),
                    depth: 1,
                    start_ns: 0,
                    wall_ns: 1,
                    cpu_ns: None,
                    delta: mbb_obs::Counters::default(),
                },
            ],
            wall_ns: 2_000_000_000,
            cpu_ns: None,
        };
        m.record_phases(&profile);
        let text = m.render(CacheStats::default(), memo);
        assert!(
            !text.contains("nest:evil"),
            "client-named nest spans must not become metric labels:\n{text}"
        );
        for family in [
            "mbb_serve_phase_seconds_sum{span=\"measure\"} 2",
            "mbb_serve_phase_seconds_count{span=\"measure\"} 1",
            "mbb_serve_requests_total{kind=\"report\"} 1",
            "mbb_serve_errors_total{code=\"parse\"} 1",
            "mbb_serve_busy_total 0",
            "mbb_serve_cache_hits_total 0",
            "mbb_serve_cache_misses_total 0",
            "mbb_serve_cache_entries 0",
            "mbb_serve_cache_bytes 0",
            "mbb_serve_source_memo_hits_total 3",
            "mbb_serve_source_memo_misses_total 2",
            "mbb_serve_source_memo_entries 1",
            "mbb_serve_queue_depth 0",
            "mbb_serve_workers_busy 0",
            "mbb_serve_loop_answers_total 0",
            "mbb_serve_connections_open 0",
            "mbb_serve_route_total{dest=\"local\"} 0",
            "mbb_serve_route_total{dest=\"forward\"} 0",
            "mbb_serve_forward_errors_total 0",
            "mbb_serve_forwarded_in_total 0",
            "mbb_serve_panics_total 0",
            "mbb_serve_worker_respawns_total 0",
            "mbb_serve_request_cpu_seconds_count 1",
            "mbb_serve_request_cpu_seconds_bucket{le=\"+Inf\"} 1",
            "mbb_serve_shed_total{class=\"unknown\",reason=\"queue-full\"} 1",
            "mbb_serve_shed_total{class=\"search\",reason=\"saturation\"} 1",
            "mbb_serve_shed_total{class=\"report\",reason=\"expired\"} 0",
            "mbb_serve_brownout_level 2",
            "mbb_serve_degraded_total{action=\"search-clamp\"} 1",
            "mbb_serve_degraded_total{action=\"no-profile\"} 0",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // Histogram buckets must be monotonically nondecreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("mbb_serve_request_cpu_seconds_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }
}
