//! The traced run's in-process replay: the request path of `mbbc serve`,
//! called layer by layer through each crate's public functions, with a
//! timestamp at every layer boundary.  The layers' self-times are set
//! against the latency the clients measured for the same requests
//! (`replay.coverage`): what they do not add up to is a stage of the path
//! the replay does not reach.

use std::time::{Duration, Instant};

use mbb_bench::json::Json;
use mbb_core::balance::{measure_program_balance, time_program};
use mbb_ir::budget::Budget;
use mbb_ir::interp::Interpreter;
use mbb_ir::NullSink;
use mbb_memsim::events;
use mbb_memsim::machine::MachineModel;
use mbb_server::analysis::{self, Options, SearchParams};
use mbb_server::cache::ResultCache;
use mbb_server::protocol::{self, Kind};
use mbb_server::{Config, ErrorKind, ServeError};

use crate::inputs::Request;
use crate::{ms, Outcome};

/// Self-time per layer of the request path, summed over a replay.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `protocol::parse_request` and the options it names.
    pub decode: Duration,
    /// `analysis::load`: parse and validate the program.
    pub load: Duration,
    /// `analysis::canonical_source` and `canon::cache_key`.
    pub canon: Duration,
    /// `ResultCache::get_or_compute`, minus the compute it ran.
    pub lookup: Duration,
    /// The analysis a miss ran, result rendering included.
    pub compute: Duration,
    /// `protocol::ok_response`, and freeing the request and its result.
    pub encode: Duration,
    /// Requests replayed.
    pub requests: u64,
    /// Requests that missed the cache and computed.
    pub computed: u64,
    /// Which analysis the misses ran.
    pub kind: Option<Kind>,
    /// Search scores the process-wide score cache served during the replay.
    pub score_hits: u64,
    /// Search scores it computed.
    pub score_misses: u64,
}

impl Ledger {
    /// The layers' summed self-times per request, in milliseconds.
    fn per_request_ms(&self) -> f64 {
        let layers =
            self.decode + self.load + self.canon + self.lookup + self.compute + self.encode;
        ms(layers) / self.requests.max(1) as f64
    }

    /// Records the ledger's per-request means, and `replay.coverage`: the
    /// layers' summed self-times per request over `client_ms`, the mean
    /// latency the clients measured for the same requests against the
    /// server.  A stage of the request path that the replay leaves out
    /// lowers it.
    pub fn report(&self, client_ms: f64, out: &mut Outcome) {
        let per = |d: Duration| d.as_secs_f64() * 1e6 / self.requests.max(1) as f64;
        out.set("protocol.decode_us", per(self.decode));
        out.set("ir.load_us", per(self.load));
        out.set("core.canon_us", per(self.canon));
        out.set("cache.lookup_us", per(self.lookup));
        out.set("protocol.encode_us", per(self.encode));
        if self.kind == Some(Kind::OptimizeSearch) {
            out.set("analysis.search_ms", ms(self.compute) / self.computed.max(1) as f64);
            let scores = (self.score_hits + self.score_misses).max(1) as f64;
            out.set("search.score_hit_ratio", self.score_hits as f64 / scores);
        }
        out.set("replay.coverage", self.per_request_ms() / client_ms.max(f64::MIN_POSITIVE));
    }
}

/// The `result` bytes the server renders for a program-carrying `kind`.
fn render(kind: Kind, prog: &mbb_ir::Program, opts: &Options) -> Result<String, ServeError> {
    let a = match kind {
        Kind::Report => analysis::report(prog, opts)?,
        Kind::Optimize => analysis::optimize(prog, opts)?.0,
        Kind::OptimizeSearch => analysis::optimize_search(prog, opts, &SearchParams::default())?.0,
        k => {
            return Err(ServeError::new(
                ErrorKind::BadRequest,
                format!("{} is not replayed", k.as_str()),
            ))
        }
    };
    Ok(Json::obj([("text", Json::str(a.text)), ("data", a.data)]).render_compact())
}

/// The `result` bytes for one request line, computed in-process under
/// `engine` with the options the request names.
pub fn analyse(line: &str, engine: mbb_ir::Engine) -> Result<String, ServeError> {
    let req = protocol::parse_request(line.trim_end())?;
    let opts = Options { engine, ..req.flags.to_options(&req.machine)? };
    render(req.kind, &analysis::load(req.program.as_deref().unwrap_or_default())?, &opts)
}

/// Serves one request line the way the server's request path does for a
/// program-carrying kind on a standalone node, charging each layer's
/// self-time to `led`.  Each value is dropped inside the layer that last
/// uses it, so freeing memory is charged too.
fn serve_line(
    cache: &ResultCache,
    budget: Budget,
    line: &str,
    led: &mut Ledger,
) -> Result<(), ServeError> {
    let t0 = Instant::now();
    let req = protocol::parse_request(line.trim_end())?;
    let mut opts = req.flags.to_options(&req.machine)?;
    opts.budget = budget;
    let t1 = Instant::now();
    let prog = analysis::load(req.program.as_deref().unwrap_or_default())?;
    let t2 = Instant::now();
    let canon = analysis::canonical_source(&prog);
    let key =
        mbb_core::canon::cache_key(req.kind.as_str(), &opts.machine.name, &req.flags.key(), &canon);
    drop(canon);
    let t3 = Instant::now();
    let mut compute = Duration::ZERO;
    let (val, hit) = cache.get_or_compute(key, || {
        let c = Instant::now();
        let val = render(req.kind, &prog, &opts)?;
        drop(prog);
        compute = c.elapsed();
        Ok(val)
    })?;
    let t4 = Instant::now();
    drop(std::hint::black_box(protocol::ok_response(req.kind, hit, &val, req.id.as_deref())));
    if !hit {
        led.computed += 1;
        led.kind = Some(req.kind);
    }
    drop((req, val));
    let t5 = Instant::now();
    led.requests += 1;
    led.decode += t1 - t0;
    led.load += t2 - t1;
    led.canon += t3 - t2;
    led.lookup += (t4 - t3).saturating_sub(compute);
    led.compute += compute;
    led.encode += t5 - t4;
    Ok(())
}

/// Replays `reqs` under the budget, and through a fresh result cache of
/// the size and shard count, that a server with `workers` workers and the
/// default configuration uses, after sending `warm` through it untimed.
pub fn replay(workers: usize, warm: &[Request], reqs: &[&Request]) -> Result<Ledger, ServeError> {
    let cfg = Config::default();
    let cache = ResultCache::new(cfg.cache_bytes, workers.next_power_of_two());
    let budget = Budget { max_steps: cfg.request_max_steps, wall: cfg.request_deadline };
    for r in warm {
        serve_line(&cache, budget, &r.line, &mut Ledger::default())?;
    }
    let scores = mbb_search::ScoreCache::global().stats();
    let mut led = Ledger::default();
    for r in reqs {
        serve_line(&cache, budget, &r.line, &mut led)?;
    }
    let now = mbb_search::ScoreCache::global().stats();
    led.score_hits = now.hits - scores.hits;
    led.score_misses = now.misses - scores.misses;
    Ok(led)
}

fn load(src: &str) -> Result<mbb_ir::Program, String> {
    analysis::load(src).map_err(|e| e.to_string())
}

/// The simulation layers under one `report`, summed over programs.
#[derive(Debug, Default)]
pub struct ReportLayers {
    programs: u64,
    report: Duration,
    report_events: u64,
    measure_events: u64,
    setup: Duration,
    interp: Duration,
    walk: Duration,
    flush: Duration,
    events: u64,
}

/// Takes each program through one `report` and through the stages of one
/// balance measurement separately: hierarchy construction, interpretation
/// alone (into a [`NullSink`]), interpretation into the hierarchy, flush.
pub fn report_layers(programs: &[&str]) -> Result<ReportLayers, String> {
    let machine = MachineModel::origin2000();
    let err = |e: mbb_ir::InterpError| e.to_string();
    let mut l = ReportLayers::default();
    for src in programs {
        let prog = load(src)?;
        let (e0, r0) = (events::so_far(), Instant::now());
        analysis::report(&prog, &Options::default()).map_err(|e| e.to_string())?;
        l.report += r0.elapsed();
        let e1 = events::so_far();
        measure_program_balance(&prog, &machine).map_err(err)?;
        let e2 = events::so_far();
        let t0 = Instant::now();
        let mut h = machine.hierarchy();
        let t1 = Instant::now();
        Interpreter::new(&prog).run(&mut NullSink).map_err(err)?;
        let t2 = Instant::now();
        Interpreter::new(&prog).run(&mut h).map_err(err)?;
        let t3 = Instant::now();
        h.flush();
        let t4 = Instant::now();
        l.programs += 1;
        l.report_events += e1 - e0;
        l.measure_events += e2 - e1;
        l.events += events::so_far() - e2;
        l.setup += t1 - t0;
        l.interp += t2 - t1;
        l.walk += (t3 - t2).saturating_sub(t2 - t1);
        l.flush += t4 - t3;
        std::hint::black_box(h.report());
    }
    Ok(l)
}

impl ReportLayers {
    /// Records per-program means.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.programs.max(1) as f64;
        out.set("analysis.report_ms", ms(self.report) / n);
        out.set(
            "analysis.sim_passes",
            self.report_events as f64 / self.measure_events.max(1) as f64,
        );
        out.set("memsim.setup_ms", ms(self.setup) / n);
        out.set("ir.interp_ms", ms(self.interp) / n);
        out.set("memsim.walk_ms", ms(self.walk) / n);
        out.set("memsim.flush_ms", ms(self.flush) / n);
        out.set("memsim.events", self.events as f64 / n);
        out.set("memsim.walk_mev_s", self.events as f64 / self.walk.as_secs_f64().max(1e-9) / 1e6);
    }
}

/// The layers under one `optimize-search`, summed over programs.
#[derive(Debug, Default)]
pub struct SearchLayers {
    programs: u64,
    search: Duration,
    visited: u64,
    pruned: u64,
    scored: u64,
    balance: Duration,
    verify: Duration,
}

/// Takes each program through a cold beam search (a fresh score cache),
/// the four balance simulations around it, and the equivalence check.
pub fn search_layers(programs: &[&str]) -> Result<SearchLayers, String> {
    let machine = MachineModel::origin2000();
    let err = |e: mbb_ir::InterpError| e.to_string();
    let mut l = SearchLayers::default();
    for src in programs {
        let prog = load(src)?;
        let t0 = Instant::now();
        let cache = mbb_search::ScoreCache::new(1 << 12, 1);
        let found =
            mbb_search::search_with_cache(&prog, &mbb_search::SearchOptions::default(), &cache)
                .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        for p in [&prog, &found.program] {
            time_program(p, &machine).map_err(err)?;
            measure_program_balance(p, &machine).map_err(err)?;
        }
        let t2 = Instant::now();
        mbb_core::pipeline::verify_equivalent(&prog, &found.program, 1e-9)?;
        let t3 = Instant::now();
        l.programs += 1;
        l.search += t1 - t0;
        l.balance += t2 - t1;
        l.verify += t3 - t2;
        l.visited += found.trace.visited;
        l.pruned += found.trace.pruned;
        l.scored += found.trace.cache_misses;
    }
    Ok(l)
}

impl SearchLayers {
    /// Records per-program means and the search's own ratios.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.programs.max(1) as f64;
        out.set("search.search_ms", ms(self.search) / n);
        out.set("search.visited", self.visited as f64 / n);
        out.set("search.scored", self.scored as f64 / n);
        out.set(
            "search.pruned_ratio",
            self.pruned as f64 / (self.visited + self.pruned).max(1) as f64,
        );
        out.set("search.ms_per_scored", ms(self.search) / self.scored.max(1) as f64);
        out.set("core.balance_ms", ms(self.balance) / n);
        out.set("core.verify_ms", ms(self.verify) / n);
    }
}
