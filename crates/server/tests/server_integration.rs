//! End-to-end tests against a live in-process server: real TCP sockets,
//! real worker pool, real cache.  `spawn` runs the server on its own
//! thread and hands back its bound address and `Handle`; the handle's
//! direct metrics access lets the backpressure test observe
//! queue saturation deterministically instead of racing the request path.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mbb_obs::json::Json;
use mbb_server::analysis;
use mbb_server::client::{expect_ok, Client};
use mbb_server::protocol::{Kind, MAX_REQUEST_BYTES};
use mbb_server::server::{spawn, Config};

const SUM: &str = "program sum\narray a[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  s = (s + a[i])\nend for\n";
const FIG7: &str = "program fig7\narray res[512]\narray data[512]\nscalar sum = 0  // printed\nfor i = 0, 511\n  res[i] = (res[i] + data[i])\nend for\nfor j = 0, 511\n  sum = (sum + res[j])\nend for\n";
const SAXPY: &str = "program saxpy\narray x[512]\narray y[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  y[i] = (y[i] + (2 * x[i]))\nend for\nfor j = 0, 511\n  s = (s + y[j])\nend for\n";

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(60)).expect("connect")
}

/// The serial ground truth for one request: the deterministic text and
/// data the analysis layer produces (the same producer `mbbc` prints
/// from, minus its `simulation:` timing line).
fn serial(kind: &str, program: &str, machine: &str) -> Json {
    let opts = analysis::Options {
        machine: analysis::machine_by_name(machine).unwrap(),
        ..Default::default()
    };
    let p = analysis::load(program).unwrap();
    let kind = Kind::lookup(kind).unwrap_or_else(|| panic!("unknown kind {kind}"));
    let a = analysis::run(kind, &p, &opts, &analysis::SearchParams::default()).unwrap();
    Json::obj([("text", Json::str(a.text)), ("data", a.data)])
}

#[test]
fn concurrent_mixed_clients_match_serial_output_byte_for_byte() {
    let (addr, handle, thread) =
        spawn(Config { workers: 4, ..Config::default() }).expect("server came up");

    // The mixed workload: every (kind, program, machine) pairing, with
    // the serial expectation computed once up front.
    let mut matrix = Vec::new();
    for kind in ["report", "advise", "optimize", "trace-stats"] {
        for program in [SUM, FIG7, SAXPY] {
            for machine in ["origin", "exemplar"] {
                matrix.push((kind, program, machine));
            }
        }
    }
    let expected: Vec<Json> = matrix.iter().map(|(k, p, m)| serial(k, p, m)).collect();

    // 8 clients, each walking the whole matrix from a different offset so
    // identical requests collide in flight: 8 × 24 = 192 requests over 24
    // distinct keys.
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let matrix = &matrix;
            let expected = &expected;
            scope.spawn(move || {
                let mut c = connect(addr);
                for k in 0..matrix.len() {
                    let idx = (k + t * 3) % matrix.len();
                    let (kind, program, machine) = matrix[idx];
                    let resp = c.analyze(kind, program, machine).unwrap();
                    expect_ok(&resp).unwrap();
                    // The compact rendering of the parsed response equals
                    // the compact rendering of the serial ground truth ⇔
                    // the payload bytes are identical (the parse is exact).
                    assert_eq!(
                        resp.get("result").unwrap().render_compact(),
                        expected[idx].render_compact(),
                        "{kind} diverged from serial output"
                    );
                }
            });
        }
    });

    let stats = handle.cache().stats();
    assert_eq!(stats.hits + stats.misses, 192, "{stats:?}");
    assert_eq!(stats.misses, 24, "every distinct request simulates exactly once: {stats:?}");
    assert_eq!(handle.metrics().requests_total(), 192);

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn repeated_request_is_a_hit_with_bit_identical_bytes() {
    let (addr, handle, thread) =
        spawn(Config { workers: 2, ..Config::default() }).expect("server came up");
    let mut c = connect(addr);

    let first = c
        .roundtrip_raw(
            &mbb_server::client::request("report", Some(FIG7), "origin").render_compact(),
        )
        .unwrap();
    let second = c
        .roundtrip_raw(
            &mbb_server::client::request("report", Some(FIG7), "origin").render_compact(),
        )
        .unwrap();
    // Identical raw bytes except the cached flag flips false → true.
    assert_eq!(first.replace("\"cached\":false", "\"cached\":true"), second);
    let doc = Json::parse(&second).unwrap();
    assert_eq!(doc.get("cached"), Some(&Json::Bool(true)));

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn all_duplicate_workload_exceeds_ninety_percent_hit_rate() {
    let (addr, handle, thread) =
        spawn(Config { workers: 4, ..Config::default() }).expect("server came up");

    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(move || {
                let mut c = connect(addr);
                for _ in 0..13 {
                    let resp = c.analyze("report", SUM, "origin").unwrap();
                    expect_ok(&resp).unwrap();
                }
            });
        }
    });

    let stats = handle.cache().stats();
    let total = stats.hits + stats.misses;
    assert_eq!(total, 8 * 13);
    let rate = stats.hits as f64 / total as f64;
    assert!(rate >= 0.90, "hit rate {rate:.3} below 90%: {stats:?}");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn queue_saturation_sheds_with_busy_responses_and_never_hangs() {
    let (addr, handle, thread) = spawn(Config {
        workers: 1,
        queue_depth: 2,
        read_timeout: Duration::from_secs(30),
        ..Config::default()
    })
    .expect("server came up");

    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let m = handle.metrics();

    // Occupy the only worker with a multi-second optimize (the HUGE
    // program takes seconds in a debug build)…
    let mut hog = TcpStream::connect(addr).unwrap();
    let hog_line = mbb_server::client::request("optimize", Some(HUGE), "origin").render_compact();
    hog.write_all(hog_line.as_bytes()).unwrap();
    hog.write_all(b"\n").unwrap();
    wait_for("the worker to pick up the hog request", &|| {
        m.workers_busy.load(std::sync::atomic::Ordering::Relaxed) == 1
    });
    // …then fill the request queue with two more parsed requests.
    let quick = mbb_server::client::request("report", Some(SUM), "origin").render_compact();
    let mut queued = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(quick.as_bytes()).unwrap();
        s.write_all(b"\n").unwrap();
        queued.push(s);
    }
    wait_for("the request queue to fill", &|| {
        m.queue_depth.load(std::sync::atomic::Ordering::Relaxed) == 2
    });

    // Every further request must be shed promptly with a structured busy
    // response — a read, not a hang — and the shed is request-level: the
    // connection stays open.
    for k in 0..3 {
        let mut shed = TcpStream::connect(addr).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        shed.write_all(quick.as_bytes()).unwrap();
        shed.write_all(b"\n").unwrap();
        let mut line = String::new();
        BufReader::new(shed).read_line(&mut line).unwrap();
        let doc = Json::parse(line.trim_end()).unwrap_or_else(|e| panic!("shed {k}: {e}: {line}"));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{line}");
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").and_then(|c| c.as_str()), Some("busy"), "{line}");
    }
    assert_eq!(m.busy_total.load(std::sync::atomic::Ordering::Relaxed), 3);

    // The hog and both queued requests still complete: shedding dropped
    // the excess, not the admitted work.
    for s in queued {
        s.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        let doc = Json::parse(line.trim_end()).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
    }
    wait_for("the queue to drain", &|| {
        m.queue_depth.load(std::sync::atomic::Ordering::Relaxed) == 0
    });
    let mut c = connect(addr);
    let resp = c.analyze("report", SUM, "origin").unwrap();
    expect_ok(&resp).unwrap();

    handle.shutdown();
    thread.join().unwrap();
}

/// ~2.6M innermost iterations: effectively unbounded next to a 4096-step
/// quota, but quick enough to finish if a budget bug ever lets it run.
const HUGE: &str = "program huge\narray a[8]\nscalar s = 0  // printed\nfor i = 0, 327679\n  for j = 0, 7\n    s = (s + a[j])\n  end for\nend for\n";

#[test]
fn unbounded_optimize_gets_deadline_exceeded_and_the_worker_survives() {
    let (addr, handle, thread) = spawn(Config {
        workers: 1, // the budgeted request and the follow-ups share one worker
        request_max_steps: Some(4096),
        ..Config::default()
    })
    .expect("server came up");
    let mut c = connect(addr);

    let resp = c.analyze("optimize", HUGE, "origin").unwrap();
    let err = expect_ok(&resp).unwrap_err();
    assert_eq!(err.kind, mbb_server::ErrorKind::DeadlineExceeded, "{resp:?}");

    // Same connection, same (only) worker: normal service continues.
    for _ in 0..3 {
        let resp = c.analyze("report", SUM, "origin").unwrap();
        expect_ok(&resp).unwrap();
    }
    // The failed analysis occupies no cache entry.
    assert_eq!(handle.cache().stats().entries, 1, "only the report result is cached");

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn request_envelope_budget_and_wall_deadline_trip_per_request() {
    let (addr, handle, thread) =
        spawn(Config { workers: 2, ..Config::default() }).expect("server came up");
    let mut c = connect(addr);

    // A per-request step quota trips even though the server cap is loose.
    let req = mbb_server::client::request_with_budget("report", Some(HUGE), "origin", 4096, 0);
    let resp = c.roundtrip(&req).unwrap();
    let err = expect_ok(&resp).unwrap_err();
    assert_eq!(err.kind, mbb_server::ErrorKind::DeadlineExceeded, "{resp:?}");

    // A 1 ms wall deadline cannot cover millions of iterations either.
    let req = mbb_server::client::request_with_budget("trace-stats", Some(HUGE), "origin", 0, 1);
    let resp = c.roundtrip(&req).unwrap();
    let err = expect_ok(&resp).unwrap_err();
    assert_eq!(err.kind, mbb_server::ErrorKind::DeadlineExceeded, "{resp:?}");

    // The same program without a budget envelope completes (server default
    // cap is far above 2.6M steps) — budgets are per request, not sticky.
    let resp = c.analyze("report", HUGE, "origin").unwrap();
    expect_ok(&resp).unwrap();

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn shutdown_request_drains_and_serve_returns() {
    let (addr, _handle, thread) =
        spawn(Config { workers: 2, ..Config::default() }).expect("server came up");
    let mut c = connect(addr);
    expect_ok(&c.analyze("report", SUM, "origin").unwrap()).unwrap();
    c.shutdown().unwrap();
    thread.join().unwrap();
    // The port is released: a fresh connect must fail (or be refused on
    // first use).
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut s) => {
            let _ = s.write_all(b"{\"schema\":\"mbb-serve/1\",\"kind\":\"machines\"}\n");
            let mut buf = String::new();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            BufReader::new(s).read_line(&mut buf).map(|n| n == 0).unwrap_or(true)
        }
    };
    assert!(refused, "server socket still serving after drain");
}

/// A line past the request bound cannot be framed, so the server answers
/// it `too-large`, counts the error and closes the connection.
#[test]
fn an_over_long_line_is_answered_too_large_and_closes_the_connection() {
    let (addr, handle, thread) =
        spawn(Config { workers: 1, ..Config::default() }).expect("server came up");
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Two bytes past the bound, with no newline: the server reads every
    // byte before it frames, so it closes with nothing left unread.
    s.write_all(&vec![b'x'; MAX_REQUEST_BYTES + 2]).unwrap();
    let mut reader = BufReader::new(s);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim_end()).unwrap();
    let code = resp.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(code, Some("too-large"), "{line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "the connection stays open: {line}");
    let text = connect(addr).metrics_text().unwrap();
    let counted = "mbb_serve_errors_total{code=\"too-large\"} 1\n";
    assert!(text.contains(counted), "missing {counted:?} in:\n{text}");
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn idle_timeout_shuts_the_server_down_on_its_own() {
    let (addr, _handle, thread) = spawn(Config {
        workers: 1,
        idle_timeout: Some(Duration::from_millis(200)),
        ..Config::default()
    })
    .expect("server came up");
    let mut c = connect(addr);
    expect_ok(&c.analyze("report", SUM, "origin").unwrap()).unwrap();
    drop(c);
    thread.join().unwrap(); // returns without any shutdown request
}

/// Eviction at a tiny cache: 8 KiB of results (about three `optimize`
/// answers) and one source-memo entry per KiB (eight), one shard each.
/// Four times the memo's capacity in distinct programs leaves exactly the
/// newest eight memo entries; a repeat of the newest is a plain hit,
/// answered on the event loop, and a repeat of the oldest memo entry —
/// whose result is long evicted — costs exactly one memo hit and one
/// result miss.
#[test]
fn a_tiny_cache_evicts_oldest_first_and_counts_exactly() {
    let (addr, handle, thread) =
        spawn(Config { workers: 1, cache_bytes: 8 << 10, ..Config::default() })
            .expect("server came up");
    let program = |n: usize| FIG7.replace("512", &(512 + n).to_string());
    let mut c = connect(addr);
    for n in 0..32 {
        let resp = c.analyze("optimize", &program(n), "origin").unwrap();
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)), "program {n}: {resp:?}");
    }
    let results = handle.cache().stats();
    assert_eq!((results.hits, results.misses), (0, 32), "{results:?}");
    assert!(results.entries < 8, "results must be evicted before memo entries: {results:?}");

    // A fresh connection: on `c`, the worker that wrote the last answer
    // may still hold the writer, and the loop then defers the hit.
    let newest = connect(addr).analyze("optimize", &program(31), "origin").unwrap();
    assert_eq!(newest.get("cached"), Some(&Json::Bool(true)), "{newest:?}");
    let oldest_memo = c.analyze("optimize", &program(24), "origin").unwrap();
    assert_eq!(oldest_memo.get("cached"), Some(&Json::Bool(false)), "{oldest_memo:?}");

    let results = handle.cache().stats();
    assert_eq!((results.hits, results.misses), (1, 33), "{results:?}");
    let text = c.metrics_text().unwrap();
    for family in [
        "mbb_serve_source_memo_hits_total 2\n",
        "mbb_serve_source_memo_misses_total 32\n",
        "mbb_serve_source_memo_entries 8\n",
        "mbb_serve_loop_answers_total 1\n",
        "mbb_serve_requests_total{kind=\"optimize\"} 34\n",
        "mbb_serve_route_total{dest=\"local\"} 34\n",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }

    handle.shutdown();
    thread.join().unwrap();
}
