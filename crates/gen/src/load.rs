//! Capacity-storm load generator for the `mbb-serve/1` protocol.
//!
//! Drives a running server through three phases and reports what the
//! overload machinery did about it as `mbb-load-capacity/1` JSON:
//!
//! 1. **calibrate** — a single quiet client measures unloaded report
//!    latency (p50/p99) as the baseline for the degradation bound;
//! 2. **storm** — `clients` keep-alive connections each fire a seeded
//!    mix of report / optimize / optimize-search requests as fast as the
//!    server answers them, while a health poller records every brown-out
//!    level the controller visits.  Saturation comes from *concurrent
//!    in-flight requests*: per-cache-line simulation makes even large
//!    generated programs CPU-cheap, and the event-driven server admits
//!    requests (not connections) into its queue — but each blocking
//!    storm client holds at most one request in flight, so driving more
//!    clients than `workers + queue_depth` still overflows the request
//!    queue and escalates the controller;
//! 3. **recover** — poll `health` until the controller is back at level
//!    0, then replay the warm-up report and check the cached bytes are
//!    identical to the pre-storm response.
//!
//! Everything is seeded: the program pool, the per-thread kind mix, and
//! the request order are pure functions of `LoadConfig::seed`, so a storm
//! that trips an assertion can be replayed exactly.
//!
//! [`run_tier`] points the same three phases at a shard tier: storm
//! clients round-robin over the member addresses, the health poller
//! tracks every reachable member, and recovery demands level 0 from all
//! members that still answer — so a node killed mid-storm (the nightly
//! cluster-storm lane does exactly that) fails its own probes without
//! masking whether the survivors drained.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mbb_obs::json::Json;
use mbb_server::client::{request, request_with_budget, Client};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::templates;

/// Schema tag on the emitted report.
pub const SCHEMA: &str = "mbb-load-capacity/1";

/// Storm shape.  Defaults are sized for a CI smoke run against a small
/// server (1–2 workers, shallow queue); the nightly passes bigger values.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Seed for the program pool and every per-thread request mix.
    pub seed: u64,
    /// Concurrent keep-alive storm connections.  Saturation requires
    /// `clients > workers + queue_depth` on the target server.
    pub clients: usize,
    /// Requests each storm client attempts before stopping.
    pub requests: usize,
    /// Wall bound on the storm phase, milliseconds.
    pub storm_ms: u64,
    /// Unloaded report requests measured during calibration.
    pub calibrate: usize,
    /// Per-request wall deadline carried in the envelope (0 = none); a
    /// nonzero value exercises admission and queue-age expiry under load.
    pub deadline_ms: u64,
    /// Recovery budget: how long to wait for brown-out level 0 after the
    /// storm stops, milliseconds.
    pub drain_ms: u64,
    /// Socket read/connect timeout, milliseconds.
    pub timeout_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            seed: 0xC0FFEE,
            clients: 8,
            requests: 200,
            storm_ms: 5_000,
            calibrate: 24,
            deadline_ms: 0,
            drain_ms: 30_000,
            timeout_ms: 10_000,
        }
    }
}

/// Per-class outcome counters plus latency samples.  `ok` includes
/// degraded responses; `degraded` counts the subset that carried the
/// explicit marker.  Every attempt lands in exactly one of
/// `ok`/`busy`/`deadline_exceeded`/`error`, so `sent` always equals their
/// sum — a storm with hung requests cannot produce a balanced report.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    pub sent: u64,
    pub ok: u64,
    pub busy: u64,
    pub deadline_exceeded: u64,
    pub degraded: u64,
    pub error: u64,
    lat_ms: Vec<f64>,
}

impl ClassStats {
    fn merge(&mut self, other: &ClassStats) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.busy += other.busy;
        self.deadline_exceeded += other.deadline_exceeded;
        self.degraded += other.degraded;
        self.error += other.error;
        self.lat_ms.extend_from_slice(&other.lat_ms);
    }

    /// Latency percentile over answered requests (nearest-rank on the
    /// sorted samples); 0 when nothing was measured.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        percentile(&self.lat_ms, p)
    }

    fn render(&self) -> Json {
        Json::obj([
            ("sent", Json::UInt(self.sent)),
            ("ok", Json::UInt(self.ok)),
            ("busy", Json::UInt(self.busy)),
            ("deadline_exceeded", Json::UInt(self.deadline_exceeded)),
            ("degraded", Json::UInt(self.degraded)),
            ("error", Json::UInt(self.error)),
            ("p50_ms", Json::num(self.percentile_ms(0.50))),
            ("p99_ms", Json::num(self.percentile_ms(0.99))),
        ])
    }
}

fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Everything one storm run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub seed: u64,
    pub clients: usize,
    pub requests: usize,
    /// Tier members stormed (1 for a single-node run).
    pub nodes: usize,
    pub unloaded: ClassStats,
    pub report: ClassStats,
    pub optimize: ClassStats,
    pub search: ClassStats,
    pub max_level: u64,
    pub levels_seen: Vec<u64>,
    pub recovered: bool,
    pub drain_ms: u64,
    pub cache_identical: bool,
    pub elapsed_ms: u64,
}

impl Report {
    /// The `mbb-load-capacity/1` document.
    pub fn render(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("seed", Json::UInt(self.seed)),
            ("clients", Json::UInt(self.clients as u64)),
            ("requests_per_client", Json::UInt(self.requests as u64)),
            ("nodes", Json::UInt(self.nodes as u64)),
            (
                "unloaded",
                Json::obj([
                    ("samples", Json::UInt(self.unloaded.ok)),
                    ("p50_ms", Json::num(self.unloaded.percentile_ms(0.50))),
                    ("p99_ms", Json::num(self.unloaded.percentile_ms(0.99))),
                ]),
            ),
            (
                "classes",
                Json::obj([
                    ("report", self.report.render()),
                    ("optimize", self.optimize.render()),
                    ("search", self.search.render()),
                ]),
            ),
            (
                "brownout",
                Json::obj([
                    ("max_level", Json::UInt(self.max_level)),
                    ("levels_seen", Json::arr(self.levels_seen.iter().map(|&l| Json::UInt(l)))),
                    ("recovered", Json::Bool(self.recovered)),
                    ("drain_ms", Json::UInt(self.drain_ms)),
                ]),
            ),
            ("cache_identical", Json::Bool(self.cache_identical)),
            ("elapsed_ms", Json::UInt(self.elapsed_ms)),
        ])
    }

    /// Graceful-degradation assertions for the CI storm lane.  Empty
    /// means the run passed; otherwise each string names one violated
    /// bound.
    pub fn check(&self) -> Vec<String> {
        let mut fails = Vec::new();
        if self.report.ok == 0 {
            fails.push("no report-class request succeeded during the storm".to_string());
        }
        let baseline = self.unloaded.percentile_ms(0.99);
        let bound = (baseline * 5.0).max(250.0);
        let p99 = self.report.percentile_ms(0.99);
        if p99 > bound {
            fails.push(format!(
                "report p99 {p99:.1}ms exceeds bound {bound:.1}ms (5x unloaded {baseline:.1}ms, floor 250ms)"
            ));
        }
        if self.max_level == 0 {
            fails.push("storm never escalated the brown-out controller".to_string());
        }
        if self.search.busy + self.search.degraded == 0 {
            fails.push("search class was neither shed nor clamped under load".to_string());
        }
        if !self.recovered {
            fails.push(format!(
                "controller did not return to level 0 within the {}ms drain budget",
                self.drain_ms
            ));
        }
        if !self.cache_identical {
            fails.push("post-storm cache replay differed from the pre-storm bytes".to_string());
        }
        fails
    }
}

/// The seeded program pool: one program per template family, small
/// extents so each request is protocol-bound rather than simulation-bound
/// (storm pressure comes from connection count, not program cost).
pub fn program_pool(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..4u8)
        .map(|family| {
            let mut p = templates::sample_params(&mut rng);
            p.family = family;
            p.n = p.n.min(64);
            p.k = p.k.min(3);
            mbb_ir::pretty::program(&templates::generate(p, 1))
        })
        .collect()
}

enum Outcome {
    Ok { degraded: bool },
    Busy,
    Deadline,
    Error,
}

fn classify(resp: &Result<Json, mbb_server::error::ServeError>) -> Outcome {
    match resp {
        Ok(json) => {
            if json.get("ok") == Some(&Json::Bool(true)) {
                Outcome::Ok { degraded: json.get("degraded").is_some() }
            } else {
                let code = json
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .unwrap_or("");
                match code {
                    "busy" => Outcome::Busy,
                    "deadline_exceeded" => Outcome::Deadline,
                    _ => Outcome::Error,
                }
            }
        }
        Err(_) => Outcome::Error,
    }
}

fn storm_request(cfg: &LoadConfig, pool: &[String], rng: &mut StdRng, i: usize) -> (Json, usize) {
    let program = &pool[rng.gen_range(0..pool.len())];
    // 6:2:2 report / optimize / optimize-search, matching the priority
    // ladder the shed policy is supposed to preserve.
    let (kind, class) = match rng.gen_range(0..10u32) {
        0..=5 => ("report", 0),
        6..=7 => ("optimize", 1),
        _ => ("optimize-search", 2),
    };
    let mut req = if cfg.deadline_ms > 0 {
        request_with_budget(kind, Some(program), "origin", 0, cfg.deadline_ms)
    } else {
        request(kind, Some(program), "origin")
    };
    // Every third report asks for a profile so brown-out level >= 1 has
    // something to drop (and mark degraded).
    if class == 0 && i.is_multiple_of(3) {
        if let Json::Obj(pairs) = &mut req {
            pairs.push(("profile".to_string(), Json::Bool(true)));
        }
    }
    (req, class)
}

fn sender(
    addr: SocketAddr,
    cfg: &LoadConfig,
    pool: &[String],
    thread_idx: u64,
    stop_at: Instant,
) -> [ClassStats; 3] {
    let timeout = Duration::from_millis(cfg.timeout_ms);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ thread_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut stats: [ClassStats; 3] = Default::default();
    let mut client: Option<Client> = None;
    for i in 0..cfg.requests {
        if Instant::now() >= stop_at {
            break;
        }
        let (req, class) = storm_request(cfg, pool, &mut rng, i);
        let s = &mut stats[class];
        s.sent += 1;
        let started = Instant::now();
        // Keep-alive with reconnect-on-drop: a shed or failed connection
        // counts against the class and the next iteration dials again.
        let resp = match &mut client {
            Some(c) => c.roundtrip(&req),
            None => match Client::connect(addr, timeout) {
                Ok(mut c) => {
                    let r = c.roundtrip(&req);
                    client = Some(c);
                    r
                }
                Err(e) => Err(mbb_server::error::ServeError::from(e)),
            },
        };
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        match classify(&resp) {
            Outcome::Ok { degraded } => {
                s.ok += 1;
                if degraded {
                    s.degraded += 1;
                }
                s.lat_ms.push(elapsed);
            }
            Outcome::Busy => s.busy += 1,
            Outcome::Deadline => s.deadline_exceeded += 1,
            Outcome::Error => {
                s.error += 1;
                client = None;
            }
        }
        if resp.is_err() {
            client = None;
        }
    }
    stats
}

/// One health poll: `(current level, high-water level since server
/// start)`.  The high-water field is what makes storm measurement
/// reliable — probes sent while the server is saturated are the ones
/// most likely to be shed, so the peak is read back after the fact.
fn health_level(c: &mut Client) -> Option<(u64, u64)> {
    let resp = c.roundtrip(&request("health", None, "")).ok()?;
    let result = resp.get("result")?;
    let level = match result.get("level")? {
        Json::UInt(l) => *l,
        _ => return None,
    };
    let max = match result.get("max_level") {
        Some(Json::UInt(m)) => *m,
        _ => level,
    };
    Some((level, max))
}

/// Runs calibrate → storm → recover against `addr` and returns the
/// report.  `Err` means the run could not even be driven (server
/// unreachable, warm-up failed) — distinct from a driven run whose
/// [`Report::check`] fails.
pub fn run(addr: SocketAddr, cfg: &LoadConfig) -> Result<Report, String> {
    run_tier(std::slice::from_ref(&addr), cfg)
}

/// Dials the first tier member that answers, in address order.
fn connect_any(addrs: &[SocketAddr], timeout: Duration) -> Result<Client, String> {
    let mut last = "no addresses".to_string();
    for &a in addrs {
        match Client::connect(a, timeout) {
            Ok(c) => return Ok(c),
            Err(e) => last = format!("connect {a}: {e}"),
        }
    }
    Err(last)
}

/// [`run`] over a shard tier: storm clients round-robin across `addrs`,
/// the health poller and the drain check track every member that still
/// answers, and the post-storm replay may land on any live member
/// (forwarding makes the bytes identical regardless).  A single address
/// degenerates to exactly the single-node run.
pub fn run_tier(addrs: &[SocketAddr], cfg: &LoadConfig) -> Result<Report, String> {
    if addrs.is_empty() {
        return Err("run_tier needs at least one address".to_string());
    }
    let started = Instant::now();
    let timeout = Duration::from_millis(cfg.timeout_ms);
    let pool = program_pool(cfg.seed);

    // Warm-up: prime the cache with the first pool program and keep its
    // bytes for the post-storm identity check.
    let mut cal = connect_any(addrs, timeout)?;
    let warm_req = request("report", Some(&pool[0]), "origin");
    let warm = cal.roundtrip(&warm_req).map_err(|e| format!("warm-up report: {e}"))?;
    if warm.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("warm-up report failed: {}", warm.render_compact()));
    }
    let warm_result = warm.get("result").cloned();

    // Calibrate: unloaded report latency over the whole pool (first pass
    // computes, later passes hit the cache — the storm mix sees the same
    // blend, so the baseline is honest).
    let mut report = Report {
        seed: cfg.seed,
        clients: cfg.clients,
        requests: cfg.requests,
        nodes: addrs.len(),
        drain_ms: cfg.drain_ms,
        ..Report::default()
    };
    for i in 0..cfg.calibrate {
        let req = request("report", Some(&pool[i % pool.len()]), "origin");
        let t = Instant::now();
        let resp = cal.roundtrip(&req);
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        report.unloaded.sent += 1;
        if let Outcome::Ok { .. } = classify(&resp) {
            report.unloaded.ok += 1;
            report.unloaded.lat_ms.push(elapsed);
        }
    }
    drop(cal);

    // Storm: `clients` keep-alive senders plus one health poller.
    let stop_at = Instant::now() + Duration::from_millis(cfg.storm_ms);
    let stop = Arc::new(AtomicBool::new(false));
    let levels = Arc::new(Mutex::new((0u64, vec![false; 4])));
    let poller = {
        let (stop, levels) = (Arc::clone(&stop), Arc::clone(&levels));
        let poll_timeout = timeout;
        let members = addrs.to_vec();
        // One-shot probes, not a keep-alive connection: a persistent
        // health connection would own a worker for the whole storm and
        // starve the traffic it is supposed to observe.  Probes that get
        // shed or hit a dead member are simply dropped; the drain loop
        // below records levels too, so escalation is never missed
        // entirely.
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for &a in &members {
                    if let Ok(mut c) = Client::connect(a, poll_timeout) {
                        if let Some((l, max)) = health_level(&mut c) {
                            let mut g = levels.lock().unwrap();
                            g.0 = g.0.max(max);
                            g.1[(l as usize).min(3)] = true;
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };
    let stats: Vec<[ClassStats; 3]> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|t| {
                let (cfg, pool) = (cfg.clone(), pool.clone());
                let target = addrs[t % addrs.len()];
                scope.spawn(move || sender(target, &cfg, &pool, t as u64 + 1, stop_at))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread")).collect()
    });
    for s in &stats {
        report.report.merge(&s[0]);
        report.optimize.merge(&s[1]);
        report.search.merge(&s[2]);
    }
    // Stop the poller before draining: its keep-alive connection would
    // otherwise monopolize a worker on a small server and starve the
    // recovery probe below out of the accept queue.
    stop.store(true, Ordering::Relaxed);
    poller.join().expect("health poller");

    // Recover: poll until every member that still answers is back at
    // level 0.  A member killed mid-storm fails its probe and is skipped
    // — it cannot mask whether the survivors drained — but at least one
    // member must answer for the tier to count as recovered.
    let drain_started = Instant::now();
    let drain_budget = Duration::from_millis(cfg.drain_ms);
    while drain_started.elapsed() < drain_budget {
        let mut reachable = 0usize;
        let mut at_zero = 0usize;
        for &a in addrs {
            let Ok(mut c) = Client::connect(a, timeout) else { continue };
            if let Some((l, max)) = health_level(&mut c) {
                reachable += 1;
                let mut g = levels.lock().unwrap();
                g.0 = g.0.max(max);
                g.1[(l as usize).min(3)] = true;
                if l == 0 {
                    at_zero += 1;
                }
            }
        }
        if reachable > 0 && at_zero == reachable {
            report.recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    report.drain_ms = drain_started.elapsed().as_millis() as u64;
    {
        let g = levels.lock().unwrap();
        report.max_level = g.0;
        report.levels_seen =
            g.1.iter().enumerate().filter(|(_, &s)| s).map(|(l, _)| l as u64).collect();
    }

    // Cache identity: the warm entry must replay byte-for-byte.  On a
    // tier the replay may land on any live member (forwarding keeps the
    // bytes identical), but the `cached` bit is only demanded of a
    // single-node run: killing the shard that owned the warm entry
    // legitimately loses the cached copy, and determinism — identical
    // recomputed bytes — is the invariant the tier actually promises.
    let mut recover = connect_any(addrs, timeout)?;
    let replay = recover.roundtrip(&warm_req).map_err(|e| format!("cache replay: {e}"))?;
    report.cache_identical = (addrs.len() > 1 || replay.get("cached") == Some(&Json::Bool(true)))
        && replay.get("result").cloned() == warm_result;
    report.elapsed_ms = started.elapsed().as_millis() as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_pool_is_seeded_and_parses() {
        let a = program_pool(42);
        let b = program_pool(42);
        assert_eq!(a, b, "pool must be a pure function of the seed");
        assert_ne!(a, program_pool(43), "different seeds give different pools");
        for src in &a {
            mbb_ir::parse::parse(src).expect("pool programs parse");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = ClassStats { lat_ms: vec![5.0, 1.0, 3.0, 2.0, 4.0], ..Default::default() };
        assert_eq!(s.percentile_ms(0.50), 3.0);
        assert_eq!(s.percentile_ms(0.99), 5.0);
        assert_eq!(ClassStats::default().percentile_ms(0.99), 0.0);
    }

    #[test]
    fn check_flags_every_violated_bound() {
        let mut r = Report::default();
        r.unloaded.lat_ms = vec![1.0; 8];
        r.unloaded.ok = 8;
        let fails = r.check();
        assert!(fails.iter().any(|f| f.contains("no report-class")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("never escalated")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("neither shed nor clamped")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("drain budget")), "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("cache replay")), "{fails:?}");

        r.report.ok = 10;
        r.report.lat_ms = vec![2.0; 10];
        r.max_level = 2;
        r.search.busy = 3;
        r.recovered = true;
        r.cache_identical = true;
        assert!(r.check().is_empty(), "{:?}", r.check());

        // The latency bound uses max(5x baseline, 250ms floor).
        r.report.lat_ms = vec![249.0; 10];
        assert!(r.check().is_empty(), "floor admits sub-250ms p99");
        r.report.lat_ms = vec![251.0; 10];
        assert_eq!(r.check().len(), 1, "{:?}", r.check());
    }

    #[test]
    fn render_carries_the_schema_and_class_tables() {
        let mut r = Report::default();
        r.report.sent = 7;
        r.levels_seen = vec![0, 1];
        let json = r.render();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let classes = json.get("classes").expect("classes");
        assert_eq!(classes.get("report").and_then(|c| c.get("sent")), Some(&Json::UInt(7)));
        let text = json.render_compact();
        assert!(text.contains("\"levels_seen\":[0,1]"), "{text}");
    }
}
