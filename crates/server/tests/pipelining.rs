//! Pipelining tests against a live in-process server: many in-flight
//! requests on one connection, out-of-order completion, id↔response
//! pairing, and the quiescence rules of the connection layer.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mbb_obs::json::Json;
use mbb_server::client::{self, Pipeline};
use mbb_server::server::{spawn, Config};
use proptest::collection::vec;
use proptest::prelude::*;

const SUM: &str = "program sum\narray a[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  s = (s + a[i])\nend for\n";
const FIG7: &str = "program fig7\narray res[512]\narray data[512]\nscalar sum = 0  // printed\nfor i = 0, 511\n  res[i] = (res[i] + data[i])\nend for\nfor j = 0, 511\n  sum = (sum + res[j])\nend for\n";
const SAXPY: &str = "program saxpy\narray x[512]\narray y[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  y[i] = (y[i] + (2 * x[i]))\nend for\nfor j = 0, 511\n  s = (s + y[j])\nend for\n";

/// Regression for the idle-timeout semantics: two envelopes arriving in
/// one TCP segment must *both* be answered.  The connection has no
/// further readable bytes after the segment, so a per-read idle timeout
/// (the old rule) would cut it off with the second request still
/// buffered; quiescence (no in-flight requests AND no buffered bytes)
/// must not.
#[test]
fn two_envelopes_in_one_tcp_segment_are_both_answered_before_quiescence() {
    let (addr, handle, thread) =
        spawn(Config { workers: 2, read_timeout: Duration::from_millis(700), ..Config::default() })
            .expect("server came up");

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let one = client::with_id(&client::request("report", Some(SUM), "origin"), 1).render_compact();
    let two = client::with_id(&client::request("report", Some(FIG7), "origin"), 2).render_compact();
    // One write, one segment (both lines are far under the MSS).
    s.write_all(format!("{one}\n{two}\n").as_bytes()).unwrap();

    let mut reader = BufReader::new(s);
    let mut ids = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("response line");
        assert!(n > 0, "connection closed with a buffered request unanswered");
        let doc = Json::parse(line.trim_end()).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
        ids.push(match doc.get("id") {
            Some(Json::UInt(n)) => *n,
            other => panic!("missing id echo: {other:?} in {line}"),
        });
    }
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2], "both pipelined requests answered");

    // Now the connection is quiescent; the server closes it after the
    // idle window (the sweep runs every 50ms, so allow slack).
    let t = Instant::now();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean EOF, not a reset");
    assert!(rest.is_empty(), "unexpected trailing bytes: {rest:?}");
    let waited = t.elapsed();
    assert!(
        waited >= Duration::from_millis(500),
        "closed after {waited:?} — before the quiescence window"
    );

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn thirty_two_in_flight_requests_pair_up_by_id() {
    let (addr, handle, thread) =
        spawn(Config { workers: 3, pipeline_depth: 32, ..Config::default() })
            .expect("server came up");

    let programs = [SUM, FIG7, SAXPY];
    let kinds = ["report", "advise", "trace-stats", "optimize"];
    let lines: Vec<String> = (0..32u64)
        .map(|i| {
            let req = client::request(
                kinds[(i % 4) as usize],
                Some(programs[(i % 3) as usize]),
                "origin",
            );
            client::with_id(&req, i).render_compact()
        })
        .collect();

    let mut p = Pipeline::connect(addr, Duration::from_secs(60)).unwrap();
    p.send_batch(&lines).unwrap();
    assert_eq!(p.inflight(), 32);
    let by_id = p.drain().unwrap();
    assert_eq!(by_id.len(), 32, "every id answered exactly once");

    // Pairing is semantic, not positional: each response's result must be
    // the one for *that id's* request, which the kind echo pins down.
    for (i, resp) in &by_id {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "id {i}: {resp:?}");
        let kind = resp.get("kind").and_then(Json::as_str).unwrap();
        assert_eq!(kind, kinds[(*i % 4) as usize], "id {i} paired with the wrong response");
        let text = resp
            .get("result")
            .and_then(|r| r.get("text"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("id {i}: no result text: {resp:?}"));
        let progname = ["sum", "fig7", "saxpy"][(*i % 3) as usize];
        // Every kind's text names its program up front, pinning the
        // program this response is for.
        let needle = match kind {
            "trace-stats" => format!("trace of {progname} on "),
            "advise" => format!("advice for `{progname}` on "),
            _ => format!("program {progname} on "),
        };
        assert!(text.contains(&needle), "id {i}: result for the wrong program:\n{text}");
    }

    // 32 requests over 12 distinct keys: the cache collapsed the rest.
    let stats = handle.cache().stats();
    assert_eq!(stats.hits + stats.misses, 32, "{stats:?}");
    assert_eq!(stats.misses, 12, "{stats:?}");

    handle.shutdown();
    thread.join().unwrap();
}

/// The pipeline cap suspends reading instead of shedding or deadlocking:
/// a burst twice the depth still gets every response.
#[test]
fn bursts_past_the_pipeline_depth_backpressure_instead_of_failing() {
    let (addr, handle, thread) =
        spawn(Config { workers: 2, pipeline_depth: 4, queue_depth: 64, ..Config::default() })
            .expect("server came up");

    let lines: Vec<String> = (0..24u64)
        .map(|i| {
            client::with_id(&client::request("report", Some(SUM), "origin"), i).render_compact()
        })
        .collect();
    let mut p = Pipeline::connect(addr, Duration::from_secs(60)).unwrap();
    p.send_batch(&lines).unwrap();
    let by_id = p.drain().unwrap();
    assert_eq!(by_id.len(), 24);
    for (i, resp) in &by_id {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "id {i}: {resp:?}");
    }

    handle.shutdown();
    thread.join().unwrap();
}

/// Shared server for the framing property: spawning one per proptest case
/// would dominate the run time.
fn shared_server() -> SocketAddr {
    use std::sync::OnceLock;
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let cfg = Config { workers: 2, pipeline_depth: 8, ..Config::default() };
        spawn(cfg).expect("server came up").0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pipelined framing is segmentation-invariant: however the request
    /// bytes are chunked across writes (including mid-envelope splits and
    /// several envelopes per segment), every id comes back exactly once
    /// on a well-formed envelope.
    #[test]
    fn pipelined_framing_survives_arbitrary_segmentation(
        count in 1usize..8,
        cuts in vec(0usize..4096, 0..6),
        pauses in vec(any::<bool>(), 0..6),
    ) {
        let addr = shared_server();
        let mut wire = Vec::new();
        for i in 0..count as u64 {
            let req = client::with_id(&client::request("machines", None, ""), i);
            wire.extend_from_slice(req.render_compact().as_bytes());
            wire.push(b'\n');
        }
        // Deterministic cut points derived from the generated offsets.
        let mut points: Vec<usize> = cuts.iter().map(|c| c % wire.len().max(1)).collect();
        points.sort_unstable();
        points.dedup();

        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut sent = 0usize;
        for (k, &p) in points.iter().enumerate() {
            if p > sent {
                s.write_all(&wire[sent..p]).unwrap();
                sent = p;
            }
            // A short pause forces the partial write onto the wire as its
            // own segment rather than coalescing with the next chunk.
            if pauses.get(k).copied().unwrap_or(false) {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        s.write_all(&wire[sent..]).unwrap();

        let mut reader = BufReader::new(s);
        let mut seen = vec![0u32; count];
        for _ in 0..count {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("response line");
            prop_assert!(n > 0, "connection closed early");
            let doc = Json::parse(line.trim_end()).expect("well-formed envelope");
            prop_assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{}", line);
            let Some(Json::UInt(id)) = doc.get("id") else {
                panic!("no id echo in {line}");
            };
            seen[*id as usize] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "ids answered exactly once: {:?}", seen);
    }
}

/// Hits answered on the event loop still pair up when the client sends a
/// whole burst before reading a byte: replies the socket cannot take at
/// once wait as the writer's tail, go out whole and in order once the
/// client reads, and every id comes back exactly once.
#[test]
fn a_burst_of_hits_sent_before_any_read_arrives_whole_and_paired() {
    let (addr, handle, thread) =
        spawn(Config { workers: 2, ..Config::default() }).expect("server came up");
    let warm = client::request("optimize", Some(FIG7), "origin");
    let mut c = client::Client::connect(addr, Duration::from_secs(60)).unwrap();
    let first = c.roundtrip_raw(&warm.render_compact()).unwrap();
    let want = Json::parse(&first).unwrap().get("result").cloned().expect("a result");

    // ~2.5 KB replies to ~0.3 KB requests: ~10 MB back, more than the
    // socket buffers hold, for ~1.3 MB out.
    const N: u64 = 4096;
    let lines: Vec<String> = (0..N).map(|i| client::with_id(&warm, i).render_compact()).collect();
    let mut p = Pipeline::connect(addr, Duration::from_secs(60)).unwrap();
    p.send_batch(&lines).unwrap();
    // Read late, so the replies pile up against the socket first.
    std::thread::sleep(Duration::from_millis(500));
    let by_id = p.drain().unwrap();
    assert_eq!(by_id.len() as u64, N, "every id answered exactly once");
    for (i, resp) in &by_id {
        assert_eq!(resp.get("cached"), Some(&Json::Bool(true)), "id {i}: {resp:?}");
        assert_eq!(resp.get("result"), Some(&want), "id {i}: a reply was cut or mixed");
    }
    let m = handle.metrics();
    let answered = m.loop_answers_total.load(std::sync::atomic::Ordering::Relaxed);
    assert!(answered > 0, "no hit was answered on the event loop");
    assert_eq!(handle.cache().stats().hits, N, "one result hit per request");

    handle.shutdown();
    thread.join().unwrap();
}

/// Hits (answered on the loop) and misses (answered by workers, later)
/// interleaved on one connection: completion order differs from send
/// order, and the id echo still pairs every reply with its request.
#[test]
fn a_mixed_burst_of_hits_and_misses_pairs_every_id() {
    let (addr, handle, thread) =
        spawn(Config { workers: 2, ..Config::default() }).expect("server came up");
    let mut c = client::Client::connect(addr, Duration::from_secs(60)).unwrap();
    for program in [SUM, FIG7] {
        c.analyze("report", program, "origin").unwrap();
    }
    // Even ids repeat the two warm reports; odd ids are misses, each a
    // program of its own.
    let sized = |n: u64| SAXPY.replace("512", &(512 + n).to_string());
    let programs: Vec<String> = (0..24u64)
        .map(|i| if i % 2 == 0 { [SUM, FIG7][(i / 2 % 2) as usize].to_string() } else { sized(i) })
        .collect();
    let lines: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, prog)| {
            let req = client::request("report", Some(prog), "origin");
            client::with_id(&req, i as u64).render_compact()
        })
        .collect();
    let mut p = Pipeline::connect(addr, Duration::from_secs(60)).unwrap();
    p.send_batch(&lines).unwrap();
    let by_id = p.drain().unwrap();
    assert_eq!(by_id.len(), 24, "every id answered exactly once");
    for (i, resp) in &by_id {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "id {i}: {resp:?}");
        let hit = i % 2 == 0;
        assert_eq!(resp.get("cached"), Some(&Json::Bool(hit)), "id {i}: {resp:?}");
        let text = resp.get("result").and_then(|r| r.get("text")).and_then(Json::as_str).unwrap();
        let name = if hit { ["sum", "fig7"][(i / 2 % 2) as usize] } else { "saxpy" };
        assert!(text.contains(&format!("program {name} on ")), "id {i} paired wrongly:\n{text}");
        if !hit {
            let arrays = format!("{}", 512 + i);
            assert!(programs[*i as usize].contains(&arrays));
        }
    }
    let stats = handle.cache().stats();
    assert_eq!((stats.hits, stats.misses), (12, 14), "{stats:?}");
    let answered = handle.metrics().loop_answers_total.load(std::sync::atomic::Ordering::Relaxed);
    assert!((1..=12).contains(&answered), "{answered} loop answers for 12 hits");

    handle.shutdown();
    thread.join().unwrap();
}
