//! A small blocking client for the `mbb-serve/1` protocol.
//!
//! Used by the integration tests and the CI smoke driver; also a
//! reference implementation for anyone scripting against the server.
//! [`Client`] is the lock-step shape (one line out, one line back);
//! [`Pipeline`] keeps many requests in flight on one connection and
//! pairs responses back up by their echoed `"id"`.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use mbb_obs::json::Json;
use mbb_obs::splitmix64;

use crate::error::{ErrorKind, ServeError};
use crate::faults::{self, Site};
use crate::protocol::SCHEMA;

/// A connected client. One request is in flight at a time.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with a read/write timeout (pass what you would wait for
    /// the slowest analysis; the smoke driver uses 30 s).
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// Sends one raw line (newline appended) and reads one line back.
    pub fn roundtrip_raw(&mut self, line: &str) -> Result<String, ServeError> {
        self.send_line(line)?;
        self.read_line()
    }

    fn send_line(&mut self, line: &str) -> Result<(), ServeError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        Ok(())
    }

    /// Reads one response line, without its line ending.
    fn read_line(&mut self) -> Result<String, ServeError> {
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(ServeError::new(ErrorKind::Io, "server closed the connection"));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        Ok(resp)
    }

    /// Sends a request document and returns the parsed response envelope
    /// (which may be an `ok:false` error payload — inspect it).
    pub fn roundtrip(&mut self, req: &Json) -> Result<Json, ServeError> {
        let resp = self.roundtrip_raw(&req.render_compact())?;
        Json::parse(&resp)
            .map_err(|e| ServeError::new(ErrorKind::Io, format!("bad response: {e}: {resp}")))
    }

    /// Builds and sends an analysis request; `machine = ""` omits the
    /// field (server default).
    pub fn analyze(
        &mut self,
        kind: &str,
        program: &str,
        machine: &str,
    ) -> Result<Json, ServeError> {
        self.roundtrip(&request(kind, Some(program), machine))
    }

    /// Scrapes the Prometheus metrics text.
    pub fn metrics_text(&mut self) -> Result<String, ServeError> {
        let resp = self.roundtrip(&request("metrics", None, ""))?;
        expect_ok(&resp)?;
        resp.get("result")
            .and_then(|r| r.get("text"))
            .and_then(|t| t.as_str())
            .map(str::to_string)
            .ok_or_else(|| ServeError::new(ErrorKind::Io, "metrics response without text"))
    }

    /// Requests a graceful drain.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        let resp = self.roundtrip(&request("shutdown", None, ""))?;
        expect_ok(&resp)
    }
}

/// Builds a request envelope.
pub fn request(kind: &str, program: Option<&str>, machine: &str) -> Json {
    let mut pairs = vec![("schema", Json::str(SCHEMA)), ("kind", Json::str(kind))];
    if let Some(p) = program {
        pairs.push(("program", Json::str(p)));
    }
    if !machine.is_empty() {
        pairs.push(("machine", Json::str(machine)));
    }
    Json::obj(pairs)
}

/// Builds a request envelope carrying a `budget` object (`0` omits an
/// axis — the server's own caps still apply).
pub fn request_with_budget(
    kind: &str,
    program: Option<&str>,
    machine: &str,
    max_steps: u64,
    deadline_ms: u64,
) -> Json {
    let Json::Obj(mut pairs) = request(kind, program, machine) else {
        unreachable!("request() builds an object")
    };
    let mut budget = Vec::new();
    if max_steps > 0 {
        budget.push(("max_steps".to_string(), Json::UInt(max_steps)));
    }
    if deadline_ms > 0 {
        budget.push(("deadline_ms".to_string(), Json::UInt(deadline_ms)));
    }
    pairs.push(("budget".to_string(), Json::Obj(budget)));
    Json::Obj(pairs)
}

/// Retry tuning for [`RetryClient`]: bounded exponential backoff with
/// seeded jitter.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per call (first try included).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub cap: Duration,
    /// Jitter seed: same seed, same backoff schedule (deterministic for
    /// chaos replay).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `attempt` (0-based):
    /// `min(cap, base·2^attempt)` scaled by a jitter factor in
    /// `[0.5, 1.0)` drawn from the seed, so synchronised clients fan out
    /// instead of retrying in lockstep.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16)).min(self.cap);
        let r = splitmix64(self.seed.wrapping_add(0x9E37).wrapping_mul(attempt as u64 + 1));
        let jitter = 0.5 + (r % 1024) as f64 / 2048.0;
        exp.mul_f64(jitter)
    }
}

/// True for error codes worth retrying: overload shedding and transport
/// or internal failures that a fresh connection may clear.
fn retryable(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::Busy | ErrorKind::Io | ErrorKind::Internal)
}

/// A [`Client`] wrapper that reconnects and retries transient failures —
/// `busy` shedding, dropped connections, short responses, caught-panic
/// `internal` errors — under a bounded [`RetryPolicy`].  Definitive
/// responses (parse/validate errors, deadline overruns, results) are
/// returned as-is on the first attempt that yields one.
pub struct RetryClient {
    addr: SocketAddr,
    timeout: Duration,
    policy: RetryPolicy,
    conn: Option<Client>,
}

impl RetryClient {
    /// A retrying client for `addr`; connections are opened lazily and
    /// re-opened after transport failures.
    pub fn new(addr: SocketAddr, timeout: Duration, policy: RetryPolicy) -> RetryClient {
        RetryClient { addr, timeout, policy, conn: None }
    }

    /// Sends `req`, retrying transient failures; returns the last error
    /// once the attempt budget is spent.
    pub fn call(&mut self, req: &Json) -> Result<Json, ServeError> {
        let mut last = ServeError::new(ErrorKind::Io, "no attempts made");
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff(attempt - 1));
            }
            match self.attempt(req) {
                Ok(resp) => {
                    let code = resp
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(|c| c.as_str())
                        .and_then(|code| ErrorKind::ALL.into_iter().find(|k| k.code() == code));
                    match code {
                        Some(kind) if retryable(kind) => {
                            last = ServeError::new(
                                kind,
                                resp.get("error")
                                    .and_then(|e| e.get("message"))
                                    .and_then(|m| m.as_str())
                                    .unwrap_or("retryable error")
                                    .to_string(),
                            );
                            // A shed connection is closed server-side
                            // right after the busy line; reconnect rather
                            // than burn the next attempt discovering that.
                            self.conn = None;
                        }
                        _ => return Ok(resp),
                    }
                }
                Err(e) if retryable(e.kind) => {
                    self.conn = None; // transport failure: reconnect
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    fn attempt(&mut self, req: &Json) -> Result<Json, ServeError> {
        if self.conn.is_none() {
            if faults::fire(Site::ClientConnect) {
                return Err(ServeError::new(
                    ErrorKind::Io,
                    "injected fault: client connect failed",
                ));
            }
            self.conn = Some(Client::connect(self.addr, self.timeout)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let out = conn.roundtrip(req);
        if out.is_err() {
            self.conn = None; // the stream state is unknown; drop it
        }
        out
    }
}

/// Attaches (or replaces) the `"id"` field on a request envelope, for
/// pairing pipelined responses back to their requests.
pub fn with_id(req: &Json, id: u64) -> Json {
    let Json::Obj(pairs) = req else {
        return req.clone();
    };
    let mut pairs: Vec<(String, Json)> = pairs.iter().filter(|(k, _)| k != "id").cloned().collect();
    pairs.push(("id".to_string(), Json::UInt(id)));
    Json::Obj(pairs)
}

/// A pipelined client: many requests in flight on one connection,
/// responses read back in whatever order the server completes them and
/// paired up by their echoed `"id"`.
///
/// The caller chooses the ids (sequence numbers work); [`Pipeline::send`]
/// stamps them via [`with_id`].  Keep the pipeline depth at or under the
/// server's `pipeline_depth` — past it the server stops reading the
/// connection until responses drain, and a sender that never reads would
/// deadlock against it.
pub struct Pipeline {
    conn: Client,
    inflight: usize,
}

impl Pipeline {
    /// Connects with a read/write timeout (covering the slowest single
    /// analysis expected, not the whole batch).
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Pipeline> {
        Ok(Pipeline { conn: Client::connect(addr, timeout)?, inflight: 0 })
    }

    /// Requests currently in flight (sent, not yet received).
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Stamps `id` onto `req` and sends it without waiting for the
    /// response.
    pub fn send(&mut self, req: &Json, id: u64) -> Result<(), ServeError> {
        self.send_raw(&with_id(req, id).render_compact())
    }

    /// Sends one raw request line (newline appended) without waiting.
    pub fn send_raw(&mut self, line: &str) -> Result<(), ServeError> {
        self.conn.send_line(line)?;
        self.inflight += 1;
        Ok(())
    }

    /// Sends a whole batch in a single write — with short lines, one TCP
    /// segment — exercising the server's multi-request framing.
    pub fn send_batch(&mut self, lines: &[String]) -> Result<(), ServeError> {
        let mut buf = String::new();
        for line in lines {
            buf.push_str(line);
            buf.push('\n');
        }
        self.conn.writer.write_all(buf.as_bytes())?;
        self.inflight += lines.len();
        Ok(())
    }

    /// Reads the next response line, in server completion order, and
    /// returns it with its echoed id (`None` when the server had none to
    /// echo, e.g. a pre-parse error).
    pub fn recv(&mut self) -> Result<(Option<u64>, Json), ServeError> {
        let resp = self.conn.read_line()?;
        self.inflight = self.inflight.saturating_sub(1);
        let doc = Json::parse(&resp)
            .map_err(|e| ServeError::new(ErrorKind::Io, format!("bad response: {e}: {resp}")))?;
        let id = match doc.get("id") {
            Some(Json::UInt(n)) => Some(*n),
            _ => None,
        };
        Ok((id, doc))
    }

    /// Drains every in-flight response into an id-keyed map.  Responses
    /// the server could not pair (no id echoed) are dropped from the map
    /// but still consumed off the wire.
    pub fn drain(&mut self) -> Result<std::collections::HashMap<u64, Json>, ServeError> {
        let mut out = std::collections::HashMap::new();
        while self.inflight > 0 {
            let (id, doc) = self.recv()?;
            if let Some(id) = id {
                out.insert(id, doc);
            }
        }
        Ok(out)
    }
}

/// Fails with the server's error payload when `resp` is not `ok:true`.
pub fn expect_ok(resp: &Json) -> Result<(), ServeError> {
    if resp.get("ok") == Some(&Json::Bool(true)) {
        return Ok(());
    }
    let (kind, message) = match resp.get("error") {
        Some(e) => (
            e.get("code")
                .and_then(|c| c.as_str())
                .and_then(|code| ErrorKind::ALL.into_iter().find(|k| k.code() == code))
                .unwrap_or(ErrorKind::Run),
            e.get("message").and_then(|m| m.as_str()).unwrap_or("unknown error").to_string(),
        ),
        None => (ErrorKind::Io, format!("malformed response: {resp:?}")),
    };
    Err(ServeError::new(kind, message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_matches_the_protocol() {
        let r = request("report", Some("x"), "origin");
        let line = r.render_compact();
        let back = crate::protocol::parse_request(&line).unwrap();
        assert_eq!(back.kind, crate::protocol::Kind::Report);
        assert_eq!(back.machine, "origin");
    }

    #[test]
    fn request_with_budget_round_trips_through_the_parser() {
        let r = request_with_budget("optimize", Some("x"), "origin", 4096, 250);
        let back = crate::protocol::parse_request(&r.render_compact()).unwrap();
        assert_eq!(back.budget.max_steps, Some(4096));
        assert_eq!(back.budget.deadline_ms, Some(250));
        // Zero omits the axis instead of sending an invalid value.
        let r = request_with_budget("report", Some("x"), "", 0, 100);
        let back = crate::protocol::parse_request(&r.render_compact()).unwrap();
        assert_eq!(back.budget.max_steps, None);
        assert_eq!(back.budget.deadline_ms, Some(100));
    }

    #[test]
    fn backoff_is_bounded_jittered_and_seed_deterministic() {
        let p = RetryPolicy { seed: 42, ..RetryPolicy::default() };
        for attempt in 0..10 {
            let d = p.backoff(attempt);
            assert!(d <= p.cap, "attempt {attempt}: {d:?} over cap");
            assert!(d >= p.base / 2, "attempt {attempt}: {d:?} under half the base");
            assert_eq!(d, p.backoff(attempt), "same seed must replay the same schedule");
        }
        // Exponential growth up to the cap: attempt 2 waits longer than
        // attempt 0 even at the bottom of the jitter range.
        assert!(p.backoff(2) > p.backoff(0).mul_f64(1.9), "{:?} {:?}", p.backoff(2), p.backoff(0));
        let q = RetryPolicy { seed: 43, ..p };
        assert!(
            (0..10).any(|a| q.backoff(a) != p.backoff(a)),
            "different seeds should jitter differently"
        );
    }

    #[test]
    fn with_id_stamps_and_replaces_without_duplicating() {
        let r = request("report", Some("x"), "");
        let stamped = with_id(&r, 9);
        let line = stamped.render_compact();
        assert!(line.contains("\"id\":9"), "{line}");
        let restamped = with_id(&stamped, 10);
        let line = restamped.render_compact();
        assert!(line.contains("\"id\":10") && !line.contains("\"id\":9"), "{line}");
        let back = crate::protocol::parse_request(&line).unwrap();
        assert_eq!(back.id.as_deref(), Some("10"));
    }

    #[test]
    fn expect_ok_extracts_the_error_kind() {
        let resp = Json::parse(&crate::protocol::error_response(&ServeError::new(
            ErrorKind::Validate,
            "dup",
        )))
        .unwrap();
        let e = expect_ok(&resp).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Validate);
        assert_eq!(e.message, "dup");
    }
}
