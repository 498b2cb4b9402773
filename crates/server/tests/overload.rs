//! Overload-control integration tests: a live server under deadline
//! pressure, pinned brown-out levels over the wire, and a miniature
//! capacity storm with recovery.
//!
//! The deterministic state-machine behaviour (thresholds, hysteresis,
//! degrade actions) is unit-tested in `server::overload` and
//! `server::server`; these tests check the same policies end-to-end
//! through real sockets, workers, and the accept queue.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mbb_obs::json::Json;
use mbb_server::client::{expect_ok, request, Client};
use mbb_server::server::{spawn, Config};

const SUM: &str = "program sum\narray a[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  s = (s + a[i])\nend for\n";
const FIG7: &str = "program fig7\narray res[512]\narray data[512]\nscalar sum = 0  // printed\nfor i = 0, 511\n  res[i] = (res[i] + data[i])\nend for\nfor j = 0, 511\n  sum = (sum + res[j])\nend for\n";

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(60)).expect("connect")
}

fn error_code(resp: &Json) -> Option<String> {
    resp.get("error").and_then(|e| e.get("code")).and_then(|c| c.as_str()).map(str::to_string)
}

fn health(c: &mut Client) -> Json {
    let resp = c.roundtrip(&request("health", None, "")).expect("health round-trip");
    expect_ok(&resp).expect("health is ok");
    resp.get("result").cloned().expect("health result")
}

fn with_options(req: &Json, beam: u64, steps: u64) -> Json {
    let Json::Obj(mut pairs) = req.clone() else { panic!("request is an object") };
    pairs.push((
        "options".to_string(),
        Json::obj([("beam", Json::UInt(beam)), ("search_steps", Json::UInt(steps))]),
    ));
    Json::Obj(pairs)
}

/// Levels pinned through the handle (controller off) drive shedding and
/// degradation over real sockets exactly as the unit tests predict.
#[test]
fn pinned_brownout_levels_shed_and_degrade_over_the_wire() {
    let (addr, handle, thread) =
        spawn(Config { workers: 1, brownout: false, ..Config::default() }).expect("server came up");
    let m = handle.metrics();
    let mut c = connect(addr);

    // Level 0: a wide search caches normally.
    let wide = with_options(&request("optimize-search", Some(FIG7), "origin"), 4, 5);
    let baseline = c.roundtrip_raw(&wide.render_compact()).unwrap();
    assert!(baseline.contains("\"ok\":true"), "{baseline}");
    assert!(!baseline.contains("\"degraded\""), "{baseline}");

    // Level 3: search traffic is shed with a structured busy.
    m.brownout_level.store(3, Ordering::Relaxed);
    let resp = c.roundtrip(&wide).unwrap();
    assert_eq!(error_code(&resp).as_deref(), Some("busy"), "{resp:?}");
    // Higher classes still flow.
    let resp = c.analyze("report", SUM, "origin").unwrap();
    expect_ok(&resp).unwrap();

    // Level 2: the search runs, clamped, with the degraded marker, and
    // bypasses the warm cache entry.
    m.brownout_level.store(2, Ordering::Relaxed);
    let resp = c.roundtrip(&wide).unwrap();
    expect_ok(&resp).unwrap();
    let degraded = resp.get("degraded").expect("degraded marker at level 2");
    assert_eq!(
        degraded.get("actions"),
        Some(&Json::Arr(vec![Json::str("search-clamp")])),
        "{degraded:?}"
    );
    assert_eq!(resp.get("cached"), Some(&Json::Bool(false)), "{resp:?}");

    // Level 1: profile splicing is dropped.
    m.brownout_level.store(1, Ordering::Relaxed);
    let Json::Obj(mut pairs) = request("report", Some(SUM), "origin") else { unreachable!() };
    pairs.push(("profile".to_string(), Json::Bool(true)));
    let resp = c.roundtrip(&Json::Obj(pairs)).unwrap();
    expect_ok(&resp).unwrap();
    let degraded = resp.get("degraded").expect("degraded marker at level 1");
    assert_eq!(
        degraded.get("actions"),
        Some(&Json::Arr(vec![Json::str("no-profile")])),
        "{degraded:?}"
    );
    assert!(resp.get("result").and_then(|r| r.get("profile")).is_none(), "{resp:?}");

    // Back at level 0 the baseline entry replays byte-identically: the
    // degraded traffic never touched the cache.
    m.brownout_level.store(0, Ordering::Relaxed);
    let replay = c.roundtrip_raw(&wide.render_compact()).unwrap();
    assert_eq!(baseline.replace("\"cached\":false", "\"cached\":true"), replay);

    // The shed/degrade counters surface in the metrics exposition.
    let text = c.metrics_text().unwrap();
    assert!(
        text.contains("mbb_serve_shed_total{class=\"search\",reason=\"brownout\"} 1"),
        "{text}"
    );
    assert!(text.contains("mbb_serve_degraded_total{action=\"search-clamp\"} 1"), "{text}");
    assert!(text.contains("mbb_serve_degraded_total{action=\"no-profile\"} 1"), "{text}");
    assert!(text.contains("mbb_serve_brownout_level 0"), "{text}");

    handle.shutdown();
    thread.join().unwrap();
}

/// A health round-trip reports ok/level-0 on a quiet server.
#[test]
fn health_kind_round_trips_on_a_quiet_server() {
    let (addr, handle, thread) =
        spawn(Config { workers: 1, ..Config::default() }).expect("server came up");
    let mut c = connect(addr);
    let h = health(&mut c);
    assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"), "{h:?}");
    assert_eq!(h.get("level"), Some(&Json::UInt(0)), "{h:?}");
    assert_eq!(h.get("brownout_enabled"), Some(&Json::Bool(true)), "{h:?}");
    handle.shutdown();
    thread.join().unwrap();
}

/// Time spent stalled in the accept queue counts against the request's
/// wall deadline: the worker answers `deadline_exceeded` without running
/// the analysis.  `Site::WorkerStall` makes the stall deterministic.
#[test]
fn queue_wait_counts_against_the_deadline() {
    use mbb_server::faults::{install, FaultPlan, Site};

    let (addr, handle, thread) = spawn(Config {
        workers: 1,
        request_deadline: Some(Duration::from_millis(60)),
        brownout: false,
        ..Config::default()
    })
    .expect("server came up");
    let _g = install(
        FaultPlan::new(0x5EED).rate(Site::WorkerStall, 1024).delay(Duration::from_millis(250)),
    );
    let mut c = connect(addr);
    // The worker stalls 250ms after popping this connection; by the time
    // it reads the request, the 60ms deadline is long gone.
    let resp = c.analyze("report", SUM, "origin").unwrap();
    let err = expect_ok(&resp).unwrap_err();
    assert_eq!(err.kind, mbb_server::ErrorKind::DeadlineExceeded, "{resp:?}");
    assert!(err.message.contains("accept queue"), "{}", err.message);
    assert!(mbb_server::faults::fired(Site::WorkerStall) >= 1, "the stall site should have fired");
    drop(_g);

    // Un-stalled, the same request on the same worker completes in time.
    // (Drop the old connection first: it owns the only worker until EOF.)
    drop(c);
    let mut c = connect(addr);
    let resp = c.analyze("report", SUM, "origin").unwrap();
    expect_ok(&resp).unwrap();

    handle.shutdown();
    thread.join().unwrap();
}

/// A miniature capacity storm: more keep-alive clients than the one
/// worker and four queue slots can carry.  The pegged accept queue drives
/// the controller up, low-priority and over-threshold traffic is shed
/// with structured busy responses (never hangs), profiled requests pick
/// up degraded markers, and once the storm stops the controller returns
/// to level 0 on its own with the cache bytes intact.
#[test]
fn capacity_storm_escalates_and_recovers_to_level_zero() {
    use std::sync::atomic::{AtomicBool, AtomicU64};

    let (addr, handle, thread) =
        spawn(Config { workers: 1, queue_depth: 4, ..Config::default() }).expect("server came up");
    let mut c = connect(addr);

    // Warm the cache at level 0.
    let warm = request("report", Some(FIG7), "origin");
    let baseline = c.roundtrip_raw(&warm.render_compact()).unwrap();
    assert!(baseline.contains("\"ok\":true"), "{baseline}");
    drop(c); // free the only worker for the storm

    let ok = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);
    let max_level = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(60);

    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let (ok, busy, degraded, stop) = (&ok, &busy, &degraded, &stop);
            scope.spawn(move || {
                let mut conn: Option<Client> = None;
                for i in 0..200u64 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let cl = match conn.take() {
                        Some(cl) => cl,
                        // Shed or dropped connections reconnect; a refused
                        // connect just retries on the next iteration.
                        None => match Client::connect(addr, Duration::from_secs(30)) {
                            Ok(cl) => cl,
                            Err(_) => {
                                std::thread::sleep(Duration::from_millis(2));
                                continue;
                            }
                        },
                    };
                    let mut cl = cl;
                    // Every other request asks for a profile so degraded
                    // markers show up once the controller escalates.
                    let req = if (t + i) % 2 == 0 {
                        let Json::Obj(mut pairs) = request("report", Some(SUM), "origin") else {
                            unreachable!()
                        };
                        pairs.push(("profile".to_string(), Json::Bool(true)));
                        Json::Obj(pairs)
                    } else {
                        request("report", Some(SUM), "origin")
                    };
                    // An Err means the connection dropped mid-request:
                    // loop around and reconnect.
                    if let Ok(resp) = cl.roundtrip(&req) {
                        if resp.get("ok") == Some(&Json::Bool(true)) {
                            ok.fetch_add(1, Ordering::Relaxed);
                            if resp.get("degraded").is_some() {
                                degraded.fetch_add(1, Ordering::Relaxed);
                            }
                            conn = Some(cl); // keep-alive
                        } else if error_code(&resp).as_deref() == Some("busy") {
                            busy.fetch_add(1, Ordering::Relaxed);
                            // Shed connections are closed server-side.
                        } else {
                            panic!("unexpected storm response: {resp:?}");
                        }
                    }
                }
            });
        }
        // Watch the controller from outside the request path; stop the
        // storm once it has demonstrably escalated and degraded.
        let m = handle.metrics();
        loop {
            let level = m.brownout_level.load(Ordering::Relaxed);
            max_level.fetch_max(level, Ordering::Relaxed);
            if (max_level.load(Ordering::Relaxed) >= 1
                && degraded.load(Ordering::Relaxed) >= 1
                && busy.load(Ordering::Relaxed) >= 1)
                || Instant::now() >= deadline
            {
                stop.store(true, Ordering::Relaxed);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    assert!(ok.load(Ordering::Relaxed) >= 1, "some requests must succeed during the storm");
    assert!(busy.load(Ordering::Relaxed) >= 1, "an overloaded queue must shed with busy");
    assert!(
        max_level.load(Ordering::Relaxed) >= 1,
        "a pegged accept queue must escalate the controller (ok={} busy={})",
        ok.load(Ordering::Relaxed),
        busy.load(Ordering::Relaxed)
    );
    assert!(
        degraded.load(Ordering::Relaxed) >= 1,
        "profiled requests under brown-out carry the degraded marker"
    );

    // Drain: the acceptor's idle ticks feed zeros; the controller must
    // come back down to level 0 on its own.
    let mut c = connect(addr);
    let recover_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let h = health(&mut c);
        if h.get("level") == Some(&Json::UInt(0)) {
            assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"), "{h:?}");
            break;
        }
        assert!(Instant::now() < recover_deadline, "controller never recovered: {h:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The warm entry replays byte-identically after the whole storm, and
    // the shed counters surface in the exposition.
    let replay = c.roundtrip_raw(&warm.render_compact()).unwrap();
    assert_eq!(baseline.replace("\"cached\":false", "\"cached\":true"), replay);
    let text = c.metrics_text().unwrap();
    assert!(text.contains("mbb_serve_shed_total"), "{text}");

    handle.shutdown();
    thread.join().unwrap();
}

/// The event loop never blocks on a socket.  With the one worker busy on
/// a long report and a queue of one, client A pipelines cheap requests
/// and never reads: each is shed, and the busy answers pile up in A's
/// socket.  Client B's next request must still be answered (busy counts)
/// at once, not after a write to A times out.
#[test]
fn a_client_that_stops_reading_does_not_stall_the_event_loop() {
    use std::io::Write as _;
    use std::net::TcpStream;

    let (addr, handle, thread) =
        spawn(Config { workers: 1, queue_depth: 1, brownout: false, ..Config::default() })
            .expect("server came up");
    let m = handle.metrics();
    // ~21M innermost iterations: seconds of work for the one worker.
    let long = "program long\narray a[8]\nscalar s = 0  // printed\nfor i = 0, 2621439\n  for j = 0, 7\n    s = (s + a[j])\n  end for\nend for\n";
    let busy_worker = std::thread::spawn(move || connect(addr).analyze("report", long, "origin"));
    let t = Instant::now();
    while m.workers_busy.load(Ordering::Relaxed) == 0 {
        assert!(t.elapsed() < Duration::from_secs(30), "the long report never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Client A floods until the server stops taking its bytes.
    let mut a = TcpStream::connect(addr).unwrap();
    a.set_write_timeout(Some(Duration::from_millis(50))).unwrap();
    let line = format!("{}\n", request("machines", None, "").render_compact()).repeat(64);
    let flood = Instant::now();
    while a.write_all(line.as_bytes()).is_ok() {
        assert!(flood.elapsed() < Duration::from_secs(60), "the server never pushed back on A");
    }
    assert!(m.busy_total.load(Ordering::Relaxed) > 0, "A's flood was never shed");

    let mut b = connect(addr);
    let t = Instant::now();
    let resp = b.roundtrip(&request("machines", None, "")).expect("B is answered");
    let waited = t.elapsed();
    assert!(
        resp.get("ok") == Some(&Json::Bool(true)) || error_code(&resp).as_deref() == Some("busy"),
        "{resp:?}"
    );
    assert!(waited < Duration::from_millis(300), "B waited {waited:?} behind A's socket");

    drop(a);
    assert!(busy_worker.join().unwrap().is_ok());
    handle.shutdown();
    thread.join().unwrap();
}
