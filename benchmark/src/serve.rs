//! The server workloads: a fresh `mbbc serve` child per set-up, driven
//! over loopback by closed-loop clients that each wait for their reply.

use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{ChildStdout, Stdio};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use mbb_bench::json::Json;

use crate::child::{self, Proc};
use crate::inputs::{self, Request, Workload, HIT_PROGRAMS};
use crate::{ms, replay, Bins, Outcome, Passes};

/// The service's worker threads.
const WORKERS: usize = 2;

/// How every server workload starts the service, with [`WORKERS`] after
/// `--workers`.  Brown-out is off: with it on, one long search trips the
/// busy-time signal and later searches are clamped (and served degraded),
/// so the work would depend on timing.
const SERVE_ARGS: [&str; 6] = ["serve", "--addr", "127.0.0.1:0", "--brownout", "off", "--workers"];

/// One `search-cold` program in this many is re-checked against the
/// scalar engine, the independent oracle.
const ORACLE_EVERY: usize = 20;

const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `mbbc serve` child.
pub struct Server {
    proc: Proc,
    stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `mbbc serve` and waits until it listens.
    pub fn start(mbbc: &Path) -> io::Result<Server> {
        let child = child::command(mbbc)
            .args(SERVE_ARGS)
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut proc = Proc::new(child);
        let mut stdout = BufReader::new(proc.child().stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .split_whitespace()
            .find_map(|w| w.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no address in `{}`", line.trim())))?;
        Ok(Server { proc, stdout, addr })
    }

    /// Reads the server's peak resident set, then asks for a graceful drain
    /// and reaps the process.  Returns that peak, in bytes.
    pub fn stop(mut self) -> io::Result<u64> {
        let peak_rss = self.proc.peak_rss()?;
        let mut resp = String::new();
        Conn::connect(self.addr)?
            .call("{\"schema\":\"mbb-serve/1\",\"kind\":\"shutdown\"}\n", &mut resp)?;
        // EOF on stdout: the process has drained and is exiting.
        self.stdout.read_to_string(&mut resp)?;
        let usage = self.proc.wait()?;
        if !usage.status.success() {
            return Err(io::Error::other(format!("mbbc serve exited with {}", usage.status)));
        }
        Ok(peak_rss)
    }
}

/// One keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with Nagle off, as a latency-sensitive client would.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { reader: BufReader::new(s.try_clone()?), writer: s })
    }

    /// Sends one request line (newline included) and reads the reply into
    /// `resp`, without its newline.
    pub fn call(&mut self, line: &str, resp: &mut String) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        resp.clear();
        if self.reader.read_line(resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if resp.ends_with('\n') {
            resp.pop();
        }
        Ok(())
    }
}

fn short(s: &str) -> &str {
    &s[..s.floor_char_boundary(160)]
}

/// Splits a successful reply into its `cached` flag and its `result`
/// bytes.  Anything else is a failure: an error (busy included) or a
/// degraded answer.
pub fn ok_result(resp: &str) -> Result<(bool, &str), String> {
    let at = resp.find("\"result\":").ok_or_else(|| format!("error reply: {}", short(resp)))?;
    let head = &resp[..at];
    if !head.contains("\"ok\":true") {
        return Err(format!("error reply: {}", short(resp)));
    }
    if head.contains("\"degraded\"") {
        return Err(format!("degraded reply: {}", short(head)));
    }
    let body = resp[at + "\"result\":".len()..]
        .strip_suffix('}')
        .ok_or_else(|| format!("truncated reply: {}", short(resp)))?;
    Ok((head.contains("\"cached\":true"), body))
}

/// Checks one reply's `result` bytes: request index, cached flag, bytes.
type Check<'a> = dyn Fn(usize, bool, &str) -> Result<(), String> + Sync + 'a;

/// Starts a fresh service and sends `warm` through it.  Returns the set-up
/// time in seconds, the server, and the warm replies' `result` bytes.
fn set_up(
    mbbc: &Path,
    warm: &[Request],
    out: &mut Outcome,
) -> io::Result<(f64, Server, Vec<String>)> {
    let t = Instant::now();
    let server = Server::start(mbbc)?;
    let mut bodies = Vec::with_capacity(warm.len());
    if !warm.is_empty() {
        let mut conn = Conn::connect(server.addr)?;
        let mut resp = String::new();
        for r in warm {
            conn.call(&r.line, &mut resp)?;
            match ok_result(&resp) {
                Ok((false, body)) => bodies.push(body.to_string()),
                Ok((true, _)) => out.fail("a fresh server answered from its cache"),
                Err(e) => out.fail(e),
            }
        }
    }
    Ok((t.elapsed().as_secs_f64(), server, bodies))
}

/// Drives `schedule` — one list of request indices per client, each on
/// its own connection and thread — through the server, passing every
/// reply to `check`.  Returns the per-request latencies (ms) and the wall
/// time from the first send to the last reply.
fn closed_loop(
    addr: SocketAddr,
    reqs: &[Request],
    schedule: &[Vec<usize>],
    check: &Check<'_>,
    out: &mut Outcome,
) -> io::Result<(Vec<f64>, Duration)> {
    let start = Barrier::new(schedule.len());
    let logs = std::thread::scope(|s| {
        let clients: Vec<_> = schedule
            .iter()
            .map(|seq| {
                let start = &start;
                s.spawn(move || -> io::Result<_> {
                    // Every client reaches the barrier, even one that could
                    // not connect, so a failure cannot leave another waiting.
                    let conn = Conn::connect(addr);
                    start.wait();
                    let mut conn = conn?;
                    let mut resp = String::new();
                    let (mut lat, mut fails) = (Vec::with_capacity(seq.len()), Vec::new());
                    let t0 = Instant::now();
                    for &i in seq {
                        let t = Instant::now();
                        conn.call(&reqs[i].line, &mut resp)?;
                        lat.push(ms(t.elapsed()));
                        if let Err(e) = ok_result(&resp).and_then(|(c, body)| check(i, c, body)) {
                            fails.push(format!("request {i}: {e}"));
                        }
                    }
                    Ok((lat, fails, t0, Instant::now()))
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect::<Vec<_>>()
    });
    let (mut latencies, mut span) = (Vec::new(), None::<(Instant, Instant)>);
    for log in logs {
        let (lat, fails, t0, t1) = log?;
        latencies.extend(lat);
        fails.into_iter().for_each(|f| out.fail(f));
        span = Some(span.map_or((t0, t1), |(a, b)| (a.min(t0), b.max(t1))));
    }
    Ok((latencies, span.map_or(Duration::ZERO, |(a, b)| b - a)))
}

/// The counters a `metrics` scrape exposes that the traced run reads.
#[derive(Clone, Copy, Debug, Default)]
struct Scrape {
    cpu_s: f64,
    requests: f64,
    hits: f64,
    misses: f64,
}

fn scrape(addr: SocketAddr) -> io::Result<Scrape> {
    let mut resp = String::new();
    Conn::connect(addr)?.call("{\"schema\":\"mbb-serve/1\",\"kind\":\"metrics\"}\n", &mut resp)?;
    let text = Json::parse(&resp)
        .ok()
        .and_then(|d| d.get("result")?.get("text")?.as_str().map(str::to_string))
        .ok_or_else(|| io::Error::other(format!("bad metrics reply: {}", short(&resp))))?;
    let read = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Ok(Scrape {
        cpu_s: read("mbb_serve_request_cpu_seconds_sum"),
        requests: read("mbb_serve_request_cpu_seconds_count"),
        hits: read("mbb_serve_cache_hits_total"),
        misses: read("mbb_serve_cache_misses_total"),
    })
}

/// A cold workload's replies in the order received: request index and
/// `result` bytes.
type Kept = Vec<(usize, String)>;

/// The per-request check of each workload.  A cold workload's replies
/// are kept, to be compared across passes.
fn checker<'a>(w: Workload, warm: &'a [String], kept: &'a Mutex<Kept>) -> Box<Check<'a>> {
    match w {
        // Every hit must carry exactly the bytes the warm miss produced.
        Workload::Hit => Box::new(move |i, cached, body| match (cached, warm.get(i)) {
            (false, _) => Err("a warmed request missed the cache".into()),
            (true, Some(w)) if w == body => Ok(()),
            _ => Err("cached bytes differ from the warm miss".into()),
        }),
        // The search is seeded with the fixed pipeline, so its winner can
        // never score worse.
        Workload::SearchCold => Box::new(move |i, cached, body| {
            if cached {
                return Err("a fresh program hit the cache".into());
            }
            kept.lock().expect("no client panics holding it").push((i, body.to_string()));
            let doc = Json::parse(body).map_err(|e| format!("bad result: {e}"))?;
            let bal = doc.get("data").and_then(|d| d.get("memory_balance_bytes_per_flop"));
            let get = |k| bal.and_then(|b| b.get(k)).and_then(Json::as_f64);
            match (get("best"), get("fixed")) {
                (Some(best), Some(fixed)) if best <= fixed => Ok(()),
                (best, fixed) => Err(format!("search winner {best:?} worse than fixed {fixed:?}")),
            }
        }),
        Workload::Repro => unreachable!("repro is not a server workload"),
    }
}

/// Re-derives each of `replies` — request index and the `result` bytes
/// the server rendered — in-process with the scalar engine, the
/// independent oracle, and compares the bytes.
fn oracle<'a>(
    reqs: &[Request],
    replies: impl Iterator<Item = (usize, &'a str)>,
    out: &mut Outcome,
) {
    for (i, body) in replies {
        match replay::analyse(&reqs[i].line, mbb_ir::Engine::Scalar) {
            Ok(want) => {
                out.check(want == body, || format!("request {i}: differs from the scalar engine"))
            }
            Err(e) => out.fail(format!("request {i}: scalar oracle failed: {e}")),
        }
    }
}

/// Runs one server workload for `seconds`.  An untraced run sends the
/// same pass of requests again and again (see [`crate::for_passes`]),
/// each time through a fresh server whose replies must repeat the first
/// server's byte for byte.  A traced run sends one pass, scrapes the
/// server's own counters around the load, and then replays the same
/// requests in-process layer by layer.
pub fn run(
    bins: &Bins,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let len = w.pass_len(seconds);
    let (reqs, warm_reqs, schedule) = match w {
        Workload::Hit => {
            let pool = inputs::stream(w, seed, 0);
            // Two clients, each alternating report/optimize over the pool
            // from a different starting point.
            let schedule: Vec<Vec<usize>> = (0..2)
                .map(|c| (0..len / 2).map(|t| (t + c * HIT_PROGRAMS) % pool.len()).collect())
                .collect();
            (pool.clone(), pool, schedule)
        }
        _ => (inputs::stream(w, seed, len), Vec::new(), vec![(0..len).collect()]),
    };
    let mut out = Outcome::new(inputs::stream_digest(w, seed));
    crate::guard_inputs(w, seed, &out.digest)?;
    let io = |e: io::Error| format!("{}: {e}", w.name());

    let mut measured = Passes::default();
    // The first pass's warm replies and kept replies.
    let mut first: Option<(Vec<String>, Kept)> = None;
    let (mut latencies, mut before, mut after) = (Vec::new(), Scrape::default(), Scrape::default());
    let mut pass = |_| {
        let (setup_s, server, warm) = set_up(&bins.mbbc(), &warm_reqs, &mut out).map_err(io)?;
        let kept = Mutex::new(Vec::new());
        let check = checker(w, &warm, &kept);
        if trace {
            before = scrape(server.addr).map_err(io)?;
        }
        let wall;
        (latencies, wall) =
            closed_loop(server.addr, &reqs, &schedule, &check, &mut out).map_err(io)?;
        if trace {
            after = scrape(server.addr).map_err(io)?;
        }
        let peak_rss = server.stop().map_err(io)?;
        drop(check);
        out.attempted += schedule.iter().map(|s| s.len() as u64).sum::<u64>();
        measured.add(setup_s, &latencies, wall, peak_rss);
        let kept = kept.into_inner().expect("clients joined");
        match &first {
            None => first = Some((warm, kept)),
            Some(f) => out.check(f.0 == warm && f.1 == kept, || {
                "a fresh server answered differently from the first".into()
            }),
        }
        Ok(())
    };
    let slowdown = if trace {
        pass(0)?;
        1.0
    } else {
        crate::timed_passes(seconds, pass)?
    };
    let (warm, kept) = first.unwrap_or_default();
    // After the replay, whose score-cache counts the oracle's searches
    // would disturb.
    let check_oracle = |out: &mut Outcome| match w {
        Workload::Hit => oracle(&reqs, warm.iter().map(String::as_str).enumerate(), out),
        _ => oracle(
            &reqs,
            kept.iter().filter(|(i, _)| i % ORACLE_EVERY == 0).map(|(i, b)| (*i, b.as_str())),
            out,
        ),
    };

    if !trace {
        measured.report(slowdown, &mut out);
        check_oracle(&mut out);
        return Ok(out);
    }
    let served = (after.requests - before.requests).max(1.0);
    let cpu_ms = (after.cpu_s - before.cpu_s) * 1e3 / served;
    let mean_ms = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    out.set("server.cpu_ms", cpu_ms);
    out.set("server.transport_ms", mean_ms - cpu_ms);
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.set("cache.hit_ratio", hits / (hits + misses).max(1.0));

    let order: Vec<&Request> = schedule[0].iter().map(|&i| &reqs[i]).collect();
    let ledger = replay::replay(WORKERS, &warm_reqs, &order)
        .map_err(|e| format!("{}: replay: {e}", w.name()))?;
    ledger.report(mean_ms, &mut out);
    if w == Workload::SearchCold {
        let programs: Vec<&str> = order.iter().map(|r| r.program.as_str()).collect();
        replay::search_layers(&programs)?.report(&mut out);
        replay::report_layers(&programs)?.report(&mut out);
    }
    check_oracle(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_server::protocol::{degraded_response, error_response, ok_response, Kind};
    use mbb_server::ServeError;

    #[test]
    fn only_plain_ok_replies_pass() {
        let ok = ok_response(Kind::Report, true, "{\"x\":1}", None);
        assert_eq!(ok_result(&ok), Ok((true, "{\"x\":1}")));
        let miss = ok_response(Kind::Report, false, "{}", Some("7"));
        assert_eq!(ok_result(&miss), Ok((false, "{}")));

        let degraded =
            degraded_response(Kind::OptimizeSearch, "{\"level\":2,\"actions\":[]}", "{}", None);
        assert!(ok_result(&degraded).unwrap_err().contains("degraded"));
        let busy = error_response(&ServeError::busy());
        assert!(ok_result(&busy).unwrap_err().contains("error"));
    }
}
