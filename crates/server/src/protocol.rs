//! The `mbb-serve/1` wire protocol.
//!
//! Newline-delimited JSON over TCP: each request is one compact JSON
//! object on one line, each response one line back.  Requests carry the
//! schema tag, a request kind, and for the analysis kinds a `.loop`
//! program source plus an optional machine name and option flags:
//!
//! ```json
//! {"schema":"mbb-serve/1","kind":"report","program":"array a[8]\n…","machine":"origin"}
//! ```
//!
//! Responses echo the schema and kind and carry either `result` (the same
//! facts `mbbc` prints, structured) or `error`:
//!
//! ```json
//! {"schema":"mbb-serve/1","ok":true,"kind":"report","cached":false,"result":{…}}
//! {"schema":"mbb-serve/1","ok":false,"error":{"code":"parse","exit_code":3,"message":"…"}}
//! ```
//!
//! The `result` bytes of a cache hit are exactly the bytes the original
//! miss produced: the envelope is assembled by string concatenation
//! around the cached compact rendering, never re-serialised.
//!
//! **Pipelining.** A connection may have many requests in flight at once
//! and responses may complete out of order, so an envelope can carry an
//! optional `"id"` (a string or non-negative integer) that the response —
//! success, degraded or error — echoes verbatim right after `"kind"` (or
//! `"ok"` for pre-parse errors, which have no id to echo).  Correlation is
//! the client's job; the server only guarantees the echo is byte-faithful.
//!
//! **Tier forwarding.** A request relayed between shard-tier peers carries
//! `"fwd":true`; a node never re-forwards such a request (single hop max).
//! See [`crate::cluster`].

use mbb_core::pipeline::FusionStrategy;
use mbb_obs::json::Json;

use crate::analysis::{machine_by_name, Options};
use crate::error::{ErrorKind, ServeError};

/// The protocol schema identifier.
pub const SCHEMA: &str = "mbb-serve/1";

/// Request kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// §2 balance report.
    Report,
    /// §4 tuning advice.
    Advise,
    /// The full §3 optimisation pipeline.
    Optimize,
    /// Beam search over the transformation space (never worse than the
    /// fixed pipeline; see `mbb-search`).
    OptimizeSearch,
    /// Trace-level counters on the machine's hierarchy.
    TraceStats,
    /// The machine-model catalogue.
    Machines,
    /// Prometheus metrics scrape.
    Metrics,
    /// Admin: overload status — brown-out level, smoothed pressure
    /// signals, and a status word (`ok`/`degraded`/`saturated`).
    Health,
    /// Admin: shard-tier routing stats — ring membership and per-peer
    /// routed/forwarded/error counts (see [`crate::cluster`]).
    ClusterStats,
    /// Admin: stop accepting, drain, exit.
    Shutdown,
}

impl Kind {
    /// Every kind, in wire order.
    pub const ALL: [Kind; 10] = [
        Kind::Report,
        Kind::Advise,
        Kind::Optimize,
        Kind::OptimizeSearch,
        Kind::TraceStats,
        Kind::Machines,
        Kind::Metrics,
        Kind::Health,
        Kind::ClusterStats,
        Kind::Shutdown,
    ];

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Report => "report",
            Kind::Advise => "advise",
            Kind::Optimize => "optimize",
            Kind::OptimizeSearch => "optimize-search",
            Kind::TraceStats => "trace-stats",
            Kind::Machines => "machines",
            Kind::Metrics => "metrics",
            Kind::Health => "health",
            Kind::ClusterStats => "cluster-stats",
            Kind::Shutdown => "shutdown",
        }
    }

    /// Index into [`Kind::ALL`]-shaped counter arrays.
    pub fn index(self) -> usize {
        Kind::ALL.iter().position(|&k| k == self).expect("kind listed in ALL")
    }

    /// Parses a wire name.
    pub fn lookup(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Whether this kind analyses a program (and is therefore cacheable).
    pub fn takes_program(self) -> bool {
        matches!(
            self,
            Kind::Report | Kind::Advise | Kind::Optimize | Kind::OptimizeSearch | Kind::TraceStats
        )
    }
}

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// What to do.
    pub kind: Kind,
    /// `.loop` source, for the analysis kinds.
    pub program: Option<String>,
    /// Machine-model name (default `origin`).
    pub machine: String,
    /// Pipeline flags.
    pub flags: Flags,
    /// Client-requested execution budget (tightened by the server's own
    /// per-request caps; a client can never loosen them).
    pub budget: RequestBudget,
    /// Opt-in span profile: the response gains a `"profile"` object with
    /// per-phase timing and per-nest attributed traffic.  Like the budget,
    /// deliberately *not* part of the cache key — but unlike the budget,
    /// a profiled request also *bypasses* the cache, because its payload
    /// describes one concrete execution.
    pub profile: bool,
    /// Interpreter engine (`"auto"` default, `"runs"`, `"scalar"`).  Also
    /// *not* part of the cache key: the engines produce byte-identical
    /// results (the differential-oracle CI lane enforces this), so a
    /// request pinned to one engine may be served from a result the other
    /// engine computed.
    pub engine: mbb_ir::Engine,
    /// The client's correlation id, stored as its *compact JSON
    /// rendering* (`"\"abc\""` or `"7"`) so the echo is byte-faithful.
    /// Not part of the cache key: the `result` bytes are id-independent,
    /// only the envelope around them carries the echo.
    pub id: Option<String>,
    /// True when the envelope carries `"fwd":true` — the request was
    /// relayed by a shard-tier peer and must be served locally (single
    /// hop max, see [`crate::cluster`]).
    pub forwarded: bool,
}

/// The optional `budget` object of a request envelope:
/// `{"budget":{"max_steps":N,"deadline_ms":M}}`.  Deliberately *not*
/// part of the cache key — analysis results do not depend on the budget
/// that produced them, so a tight-budget hit may be served from a
/// previous unconstrained miss.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestBudget {
    /// Maximum innermost-loop iterations across the request's
    /// interpreter runs.
    pub max_steps: Option<u64>,
    /// Wall-clock allowance in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Optimisation flags carried by a request (a subset of `mbbc`'s options).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flags {
    /// Fusion strategy override: `greedy` (default), `none`, `bisection`,
    /// `exhaustive` (a `bad-request` beyond
    /// [`EXHAUSTIVE_MAX_NESTS`](mbb_core::fusion::EXHAUSTIVE_MAX_NESTS)
    /// nests).
    pub fusion: FusionStrategy,
    /// Normalise before fusing.
    pub normalize: bool,
    /// Disable array shrinking.
    pub no_shrink: bool,
    /// Disable store elimination.
    pub no_store_elim: bool,
    /// Apply inter-array regrouping after the pipeline.
    pub regroup: bool,
    /// Beam width for `optimize-search` (bounded by
    /// [`MAX_SEARCH_BEAM`]; `None` = the search crate's default).
    pub beam: Option<u32>,
    /// Expansion steps for `optimize-search` (bounded by
    /// [`MAX_SEARCH_STEPS`]; `None` = the search crate's default).
    pub search_steps: Option<u32>,
}

/// Upper bound a request may set for the search beam width.
pub const MAX_SEARCH_BEAM: u32 = 64;
/// Upper bound a request may set for the search step count.
pub const MAX_SEARCH_STEPS: u32 = 64;

impl Flags {
    /// A canonical, order-stable form for cache keys.  Beam and step
    /// counts are keyed on their *resolved* values, so a request that
    /// spells out the defaults shares an entry with one that omits them.
    pub fn key(&self) -> String {
        format!(
            "fusion={:?};normalize={};no_shrink={};no_store_elim={};regroup={};beam={};search_steps={}",
            self.fusion,
            self.normalize,
            self.no_shrink,
            self.no_store_elim,
            self.regroup,
            self.beam.map_or(mbb_search::engine::DEFAULT_BEAM, |b| b as usize),
            self.search_steps.map_or(mbb_search::engine::DEFAULT_STEPS, |s| s as usize),
        )
    }

    /// Materialises [`Options`] for the analysis layer.
    pub fn to_options(self, machine: &str) -> Result<Options, ServeError> {
        let mut opts = Options { machine: machine_by_name(machine)?, ..Options::default() };
        opts.pipeline.fusion = self.fusion;
        opts.pipeline.normalize = self.normalize;
        opts.pipeline.shrink = !self.no_shrink;
        opts.pipeline.eliminate_stores = !self.no_store_elim;
        opts.regroup = self.regroup;
        Ok(opts)
    }
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::new(ErrorKind::BadRequest, msg)
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(bad(format!("`options.{key}` must be a boolean"))),
    }
}

fn get_bounded(obj: &Json, key: &str, max: u32) -> Result<Option<u32>, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::UInt(n)) if (1..=max as u64).contains(n) => Ok(Some(*n as u32)),
        Some(Json::Num(x)) if *x >= 1.0 && x.fract() == 0.0 && *x <= max as f64 => {
            Ok(Some(*x as u32))
        }
        Some(_) => Err(bad(format!("`options.{key}` must be an integer in 1..={max}"))),
    }
}

fn get_quota(obj: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::UInt(n)) if *n > 0 => Ok(Some(*n)),
        Some(Json::Num(x)) if *x >= 1.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
            Ok(Some(*x as u64))
        }
        Some(_) => Err(bad(format!("`budget.{key}` must be a positive integer"))),
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let doc = Json::parse(line).map_err(|e| bad(format!("request is not valid JSON: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(SCHEMA) => {}
        Some(other) => return Err(bad(format!("unsupported schema `{other}` (want {SCHEMA})"))),
        None => return Err(bad(format!("missing `schema` (want {SCHEMA})"))),
    }
    let kind_name =
        doc.get("kind").and_then(|s| s.as_str()).ok_or_else(|| bad("missing `kind`"))?;
    let kind = Kind::lookup(kind_name).ok_or_else(|| bad(format!("unknown kind `{kind_name}`")))?;

    let program = match doc.get("program") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return Err(bad("`program` must be a string")),
    };
    if kind.takes_program() && program.is_none() {
        return Err(bad(format!("kind `{kind_name}` requires `program`")));
    }

    let machine = match doc.get("machine") {
        None | Some(Json::Null) => "origin".to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(_) => return Err(bad("`machine` must be a string")),
    };

    let mut flags = Flags::default();
    if let Some(options) = doc.get("options") {
        if !matches!(options, Json::Obj(_) | Json::Null) {
            return Err(bad("`options` must be an object"));
        }
        flags.fusion = match options.get("fusion").and_then(|s| s.as_str()) {
            None => FusionStrategy::Greedy,
            Some("greedy") => FusionStrategy::Greedy,
            Some("none") => FusionStrategy::None,
            Some("bisection") => FusionStrategy::Bisection,
            Some("exhaustive") => FusionStrategy::Exhaustive,
            Some(other) => return Err(bad(format!("unknown fusion strategy `{other}`"))),
        };
        flags.normalize = get_bool(options, "normalize")?;
        flags.no_shrink = get_bool(options, "no_shrink")?;
        flags.no_store_elim = get_bool(options, "no_store_elim")?;
        flags.regroup = get_bool(options, "regroup")?;
        flags.beam = get_bounded(options, "beam", MAX_SEARCH_BEAM)?;
        flags.search_steps = get_bounded(options, "search_steps", MAX_SEARCH_STEPS)?;
    }

    let mut budget = RequestBudget::default();
    match doc.get("budget") {
        None | Some(Json::Null) => {}
        Some(b @ Json::Obj(_)) => {
            budget.max_steps = get_quota(b, "max_steps")?;
            budget.deadline_ms = get_quota(b, "deadline_ms")?;
        }
        Some(_) => return Err(bad("`budget` must be an object")),
    }

    let profile = match doc.get("profile") {
        None | Some(Json::Null) => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(bad("`profile` must be a boolean")),
    };

    let engine = match doc.get("engine") {
        None | Some(Json::Null) => mbb_ir::Engine::Auto,
        Some(Json::Str(s)) => s.parse().map_err(bad)?,
        Some(_) => return Err(bad("`engine` must be a string")),
    };

    let id = match doc.get("id") {
        None | Some(Json::Null) => None,
        Some(v @ (Json::Str(_) | Json::UInt(_))) => Some(v.render_compact()),
        Some(Json::Num(x)) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
            Some(Json::UInt(*x as u64).render_compact())
        }
        Some(_) => return Err(bad("`id` must be a string or a non-negative integer")),
    };

    let forwarded = match doc.get("fwd") {
        None | Some(Json::Null) => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(bad("`fwd` must be a boolean")),
    };

    Ok(Request { kind, program, machine, flags, budget, profile, engine, id, forwarded })
}

/// The longest request line the server frames, in bytes, the newline not
/// counted.  A longer line is answered `too-large` and closes its
/// connection.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// What the front of a connection's read buffer holds.  Requests are
/// newline-terminated lines of at most `max` bytes
/// ([`MAX_REQUEST_BYTES`] on the server), the newline not counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line: the bytes before index `.0`, which holds its
    /// newline.
    Line(usize),
    /// No newline yet, and no more than `max` bytes: the line goes on.
    Incomplete,
    /// The line exceeds `max` bytes; the framing is lost.
    TooLarge,
}

/// Frames the first line of `buf` under the size bound `max`: the
/// server's framing rule, kept pure so it is tested on any byte stream.
/// It copies nothing; the caller drains the line it names.
pub fn frame(buf: &[u8], max: usize) -> Frame {
    match buf.iter().position(|&b| b == b'\n') {
        Some(nl) if nl <= max => Frame::Line(nl),
        None if buf.len() <= max => Frame::Incomplete,
        _ => Frame::TooLarge,
    }
}

/// The `"id":<raw>,` fragment echoed after `"kind"` (empty when the
/// request carried no id).  `id` is the parsed request's raw compact
/// rendering, spliced back verbatim so the echo is byte-faithful.
fn id_part(id: Option<&str>) -> String {
    id.map(|raw| format!("\"id\":{raw},")).unwrap_or_default()
}

/// Assembles a success response line (no trailing newline).  `result` is
/// an already-compact JSON rendering, spliced in verbatim so cache hits
/// return bit-identical bytes; `id` is echoed from the request envelope.
pub fn ok_response(kind: Kind, cached: bool, result: &str, id: Option<&str>) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"ok\":true,\"kind\":\"{}\",{}\"cached\":{cached},\"result\":{result}}}",
        kind.as_str(),
        id_part(id)
    )
}

/// Assembles a *degraded* success response line: the brown-out controller
/// altered how the request was served (dropped profile splicing, clamped
/// search options), so the envelope says so explicitly.  `degraded` is an
/// already-compact JSON object (`{"level":N,"actions":[…]}`).  Degraded
/// responses are always `cached:false` — they bypass the result cache in
/// both directions, which keeps cached bytes identical at every level.
pub fn degraded_response(kind: Kind, degraded: &str, result: &str, id: Option<&str>) -> String {
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"ok\":true,\"kind\":\"{}\",{}\"cached\":false,\"degraded\":{degraded},\"result\":{result}}}",
        kind.as_str(),
        id_part(id)
    )
}

/// Assembles an error response line (no trailing newline).
pub fn error_response(err: &ServeError) -> String {
    error_response_with_id(err, None)
}

/// [`error_response`] with the request's id echoed, for errors raised
/// after the envelope parsed.  Pre-parse failures (bad JSON, oversized
/// lines) have no id to echo and use the plain form.
pub fn error_response_with_id(err: &ServeError, id: Option<&str>) -> String {
    let payload = Json::obj([
        ("code", Json::str(err.kind.code())),
        ("exit_code", Json::UInt(err.kind.exit_code() as u64)),
        ("message", Json::str(err.message.clone())),
    ])
    .render_compact();
    format!("{{\"schema\":\"{SCHEMA}\",\"ok\":false,{}\"error\":{payload}}}", id_part(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: &str, extra: &str) -> String {
        format!("{{\"schema\":\"mbb-serve/1\",\"kind\":\"{kind}\"{extra}}}")
    }

    #[test]
    fn parses_a_minimal_report_request() {
        let r = parse_request(&req("report", ",\"program\":\"scalar s // printed\\n\"")).unwrap();
        assert_eq!(r.kind, Kind::Report);
        assert_eq!(r.machine, "origin");
        assert_eq!(r.flags, Flags::default());
        assert!(r.program.unwrap().contains("scalar"));
    }

    #[test]
    fn parses_options_and_machine() {
        let r = parse_request(&req(
            "optimize",
            ",\"program\":\"x\",\"machine\":\"exemplar\",\"options\":{\"fusion\":\"none\",\"regroup\":true}",
        ))
        .unwrap();
        assert_eq!(r.machine, "exemplar");
        assert_eq!(r.flags.fusion, FusionStrategy::None);
        assert!(r.flags.regroup);
        assert!(!r.flags.no_shrink);
    }

    #[test]
    fn rejects_bad_envelopes_with_bad_request() {
        for line in [
            "not json",
            "[1,2]",
            "{\"kind\":\"report\"}",
            "{\"schema\":\"mbb-serve/2\",\"kind\":\"report\"}",
            &req("report", ""),                     // missing program
            &req("teleport", ",\"program\":\"x\""), // unknown kind
            &req("report", ",\"program\":42"),      // wrong type
            &req("report", ",\"program\":\"x\",\"options\":{\"fusion\":\"psychic\"}"),
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{line} -> {e}");
        }
    }

    #[test]
    fn kinds_without_programs_parse_bare() {
        for kind in ["machines", "metrics", "health", "cluster-stats", "shutdown"] {
            let r = parse_request(&req(kind, "")).unwrap();
            assert!(!r.kind.takes_program());
            assert!(r.program.is_none());
        }
    }

    #[test]
    fn id_parses_as_string_or_integer_and_echoes_byte_faithfully() {
        let r = parse_request(&req("health", ",\"id\":7")).unwrap();
        assert_eq!(r.id.as_deref(), Some("7"));
        let r = parse_request(&req("health", ",\"id\":\"a\\\"b\"")).unwrap();
        assert_eq!(r.id.as_deref(), Some("\"a\\\"b\""));
        let r = parse_request(&req("health", "")).unwrap();
        assert_eq!(r.id, None);
        for bad in [",\"id\":true", ",\"id\":[1]", ",\"id\":-3", ",\"id\":1.5"] {
            let e = parse_request(&req("health", bad)).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{bad} -> {e}");
        }

        // The echo lands right after "kind" in every envelope shape, and
        // string escapes survive the round trip.
        let ok = ok_response(Kind::Report, false, "{}", Some("\"a\\\"b\""));
        let doc = Json::parse(&ok).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("a\"b"));
        let deg = degraded_response(Kind::Report, "{\"level\":1,\"actions\":[]}", "{}", Some("7"));
        assert_eq!(Json::parse(&deg).unwrap().get("id"), Some(&Json::UInt(7)));
        let err = error_response_with_id(&ServeError::busy(), Some("7"));
        assert_eq!(Json::parse(&err).unwrap().get("id"), Some(&Json::UInt(7)));
        // Without an id, no key appears at all.
        assert!(!ok_response(Kind::Report, false, "{}", None).contains("\"id\""));
        assert!(!error_response(&ServeError::busy()).contains("\"id\""));
    }

    #[test]
    fn fwd_marker_parses_and_rejects_non_booleans() {
        let r = parse_request(&req("report", ",\"program\":\"x\",\"fwd\":true")).unwrap();
        assert!(r.forwarded);
        let r = parse_request(&req("report", ",\"program\":\"x\"")).unwrap();
        assert!(!r.forwarded);
        let e = parse_request(&req("report", ",\"program\":\"x\",\"fwd\":1")).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn degraded_responses_carry_the_marker_and_parse_back() {
        let line = degraded_response(
            Kind::OptimizeSearch,
            "{\"level\":2,\"actions\":[\"search-clamp\"]}",
            "{\"flops\":1}",
            None,
        );
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("cached"), Some(&Json::Bool(false)), "degraded is never cached");
        let d = doc.get("degraded").expect("degraded marker");
        assert_eq!(d.get("level"), Some(&Json::UInt(2)));
        // The plain envelope never carries the key at all.
        assert!(ok_response(Kind::OptimizeSearch, false, "{}", None).find("degraded").is_none());
    }

    #[test]
    fn responses_are_single_lines_that_parse_back() {
        let ok = ok_response(Kind::Report, true, "{\"flops\":1}", None);
        assert!(!ok.contains('\n'));
        let doc = Json::parse(&ok).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("result").and_then(|r| r.get("flops")), Some(&Json::UInt(1)));

        let err = error_response(&ServeError::new(ErrorKind::Parse, "line 2: nope\n\"quoted\""));
        assert!(!err.contains('\n'));
        let doc = Json::parse(&err).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let e = doc.get("error").unwrap();
        assert_eq!(e.get("code").and_then(|c| c.as_str()), Some("parse"));
        assert_eq!(e.get("exit_code"), Some(&Json::UInt(3)));
    }

    #[test]
    fn budget_envelope_parses_and_rejects_nonpositive_values() {
        let r = parse_request(&req(
            "report",
            ",\"program\":\"x\",\"budget\":{\"max_steps\":4096,\"deadline_ms\":250}",
        ))
        .unwrap();
        assert_eq!(r.budget, RequestBudget { max_steps: Some(4096), deadline_ms: Some(250) });

        let r = parse_request(&req("report", ",\"program\":\"x\"")).unwrap();
        assert_eq!(r.budget, RequestBudget::default());

        for bad in [
            ",\"program\":\"x\",\"budget\":7",
            ",\"program\":\"x\",\"budget\":{\"max_steps\":0}",
            ",\"program\":\"x\",\"budget\":{\"deadline_ms\":-5}",
            ",\"program\":\"x\",\"budget\":{\"max_steps\":\"lots\"}",
            ",\"program\":\"x\",\"budget\":{\"deadline_ms\":1.5}",
        ] {
            let e = parse_request(&req("report", bad)).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{bad} -> {e}");
        }
    }

    #[test]
    fn profile_flag_parses_and_rejects_non_booleans() {
        let r = parse_request(&req("report", ",\"program\":\"x\",\"profile\":true")).unwrap();
        assert!(r.profile);
        let r = parse_request(&req("report", ",\"program\":\"x\"")).unwrap();
        assert!(!r.profile);
        let e = parse_request(&req("report", ",\"program\":\"x\",\"profile\":1")).unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn engine_field_parses_and_rejects_unknown_names() {
        let r = parse_request(&req("report", ",\"program\":\"x\",\"engine\":\"scalar\"")).unwrap();
        assert_eq!(r.engine, mbb_ir::Engine::Scalar);
        let r = parse_request(&req("report", ",\"program\":\"x\"")).unwrap();
        assert_eq!(r.engine, mbb_ir::Engine::Auto);
        for bad in [",\"program\":\"x\",\"engine\":\"warp\"", ",\"program\":\"x\",\"engine\":9"] {
            let e = parse_request(&req("report", bad)).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{bad} -> {e}");
        }
        // The engine is deliberately absent from the cache key.
        assert!(!Flags::default().key().contains("engine"));
    }

    #[test]
    fn frame_finds_the_first_line_and_classifies() {
        assert_eq!(frame(b"first\nsecond\npartial", 64), Frame::Line(5));
        assert_eq!(frame(b"\nrest", 64), Frame::Line(0));
        // A line without its newline is incomplete until it is too long.
        assert_eq!(frame(b"partial", 64), Frame::Incomplete);
        assert_eq!(frame(b"", 0), Frame::Incomplete);
        assert_eq!(frame(&[b'x'; 100], 10), Frame::TooLarge);
        // The bound is inclusive and does not count the newline.
        assert_eq!(frame(b"0123456789\n", 10), Frame::Line(10));
        assert_eq!(frame(b"0123456789a\n", 10), Frame::TooLarge);
        assert_eq!(frame(b"0123456789", 10), Frame::Incomplete);
    }

    #[test]
    fn flag_keys_are_distinct_per_configuration() {
        let a = Flags::default().key();
        let b = Flags { regroup: true, ..Flags::default() }.key();
        let c = Flags { fusion: FusionStrategy::None, ..Flags::default() }.key();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
