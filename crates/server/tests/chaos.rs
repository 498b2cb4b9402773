//! Chaos suite: hundreds of live requests against a real server under a
//! seeded fault schedule (handler panics, injected delays, cache-compute
//! failures, dropped connections, short writes, failed connects), driven
//! through the retrying client.
//!
//! Invariants checked per seed:
//!
//! * **liveness** — the whole storm finishes inside a generous deadline;
//!   no connection or worker wedges;
//! * **well-formedness** — every response that reaches a client parses as
//!   a one-line `mbb-serve/1` envelope;
//! * **byte-identity** — all successful responses for one (kind, program,
//!   machine) key carry identical result bytes, hits and misses alike;
//! * **metrics sanity** — `mbb_serve_panics_total` equals the number of
//!   panics the plan injected, and the server serves normally once the
//!   plan is disarmed.
//!
//! A failing seed is printed (and written under `CARGO_TARGET_TMPDIR`)
//! for replay: `CHAOS_SEED=<seed> cargo test -p mbb-server --test chaos`.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mbb_obs::json::Json;
use mbb_server::client::{self, expect_ok, Client, Pipeline, RetryClient, RetryPolicy};
use mbb_server::faults::{self, FaultPlan, Site};
use mbb_server::server::{spawn, Config};

const SUM: &str = "program sum\narray a[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  s = (s + a[i])\nend for\n";
const FIG7: &str = "program fig7\narray res[512]\narray data[512]\nscalar sum = 0  // printed\nfor i = 0, 511\n  res[i] = (res[i] + data[i])\nend for\nfor j = 0, 511\n  sum = (sum + res[j])\nend for\n";
const SAXPY: &str = "program saxpy\narray x[512]\narray y[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  y[i] = (y[i] + (2 * x[i]))\nend for\nfor j = 0, 511\n  s = (s + y[j])\nend for\n";
/// ~2.6M innermost iterations — only ever sent with a tight step budget.
const HUGE: &str = "program huge\narray a[8]\nscalar s = 0  // printed\nfor i = 0, 327679\n  for j = 0, 7\n    s = (s + a[j])\n  end for\nend for\n";

/// Serialises the tests that arm the process-global fault plan, and the
/// one that must run with none armed — concurrent `faults::install` calls
/// panic by design, and an armed plan would bleed into the other test's
/// server anyway.
static ARM_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 60;
const SEED_DEADLINE: Duration = Duration::from_secs(120);

/// Swallows the stderr spam of *injected* panics (the default hook runs
/// before `catch_unwind` recovers them); everything else goes to the
/// previous hook so real failures stay visible.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.contains("injected fault")))
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

fn scrape_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
}

/// Pins a request to one interpreter engine (the field the differential
/// oracle lane varies; absent means `auto`).
fn with_engine(req: Json, engine: &str) -> Json {
    let Json::Obj(mut pairs) = req else { unreachable!("request() builds an object") };
    pairs.push(("engine".to_string(), Json::str(engine)));
    Json::Obj(pairs)
}

/// What one worker thread observed.
#[derive(Default)]
struct Observed {
    /// Successful `ok:true` result bytes per request key.
    results: Vec<(String, String)>,
    successes: u64,
    failures: u64,
    /// `deadline_exceeded` trips from the tight-budget probes, split by
    /// the engine the probe was pinned to: `[runs, scalar]`.
    deadline_exceeded: [u64; 2],
}

fn drive_thread(addr: SocketAddr, seed: u64, t: usize) -> Observed {
    let matrix: Vec<(&str, &str, &str)> = {
        let mut m = Vec::new();
        for kind in ["report", "advise", "optimize", "trace-stats"] {
            for program in [SUM, FIG7, SAXPY] {
                for machine in ["origin", "exemplar"] {
                    m.push((kind, program, machine));
                }
            }
        }
        m
    };
    let policy = RetryPolicy {
        attempts: 5,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        seed: seed ^ t as u64,
    };
    let mut rc = RetryClient::new(addr, Duration::from_secs(10), policy);
    let mut obs = Observed::default();
    for i in 0..REQUESTS_PER_THREAD {
        // Which engine this iteration's budget probe (if any) pins.
        let mut probe_engine = None;
        let (req, key) = match i % 10 {
            7 => (client::request("metrics", None, ""), None),
            8 => {
                // Deliberately malformed: must yield a structured
                // bad-request envelope, never a hang or a panic.
                (client::request("report", None, ""), None)
            }
            9 => {
                // The tight-budget probe alternates engines so every storm
                // exercises the step quota through both the symbolic run
                // walk and the scalar element walk — the charge points
                // must line up or one engine blows past its budget.
                let engine = if (i / 10) % 2 == 0 { "runs" } else { "scalar" };
                probe_engine = Some(engine);
                (
                    with_engine(
                        client::request_with_budget("optimize", Some(HUGE), "origin", 4096, 0),
                        engine,
                    ),
                    None,
                )
            }
            _ => {
                let (kind, program, machine) = matrix[(i + t * 7) % matrix.len()];
                (
                    client::request(kind, Some(program), machine),
                    Some(format!("{kind}\0{program}\0{machine}")),
                )
            }
        };
        match rc.call(&req) {
            Ok(resp) => {
                // Well-formedness: every envelope names the schema and
                // carries a boolean `ok`.
                assert_eq!(
                    resp.get("schema").and_then(|s| s.as_str()),
                    Some("mbb-serve/1"),
                    "seed {seed:#x}: bad envelope {resp:?}"
                );
                match resp.get("ok") {
                    Some(&Json::Bool(true)) => {
                        obs.successes += 1;
                        if let (Some(key), Some(result)) = (key, resp.get("result")) {
                            obs.results.push((key, result.render_compact()));
                        }
                    }
                    Some(&Json::Bool(false)) => {
                        let code = resp
                            .get("error")
                            .and_then(|e| e.get("code"))
                            .and_then(|c| c.as_str())
                            .unwrap_or_else(|| panic!("seed {seed:#x}: error without code"));
                        if code == "deadline_exceeded" {
                            let slot = match probe_engine {
                                Some("scalar") => 1,
                                _ => 0,
                            };
                            obs.deadline_exceeded[slot] += 1;
                        }
                        if i % 10 == 8 {
                            assert_eq!(code, "bad-request", "seed {seed:#x}: {resp:?}");
                        }
                        obs.failures += 1;
                    }
                    other => panic!("seed {seed:#x}: `ok` is {other:?}"),
                }
            }
            Err(_) => obs.failures += 1, // retries exhausted under faults
        }
    }
    obs
}

fn run_seed(seed: u64) {
    let _arm = ARM_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let started = Instant::now();
    let (addr, handle, server) =
        spawn(Config { workers: 3, read_timeout: Duration::from_secs(10), ..Config::default() })
            .expect("server came up");

    let plan = FaultPlan::new(seed)
        .rate(Site::HandlerPanic, 40)
        .rate(Site::HandlerDelay, 60)
        .rate(Site::CacheCompute, 40)
        .rate(Site::ConnRead, 40)
        .rate(Site::ConnWriteShort, 40)
        .rate(Site::ClientConnect, 40)
        .rate(Site::WorkerStall, 60)
        .delay(Duration::from_millis(3));
    let guard = faults::install(plan);

    let mut merged: HashMap<String, String> = HashMap::new();
    let mut successes = 0u64;
    let mut failures = 0u64;
    let mut deadline_exceeded = [0u64; 2];
    let threads: Vec<_> =
        (0..THREADS).map(|t| std::thread::spawn(move || drive_thread(addr, seed, t))).collect();
    for th in threads {
        let obs = th.join().expect("worker thread survived the storm");
        successes += obs.successes;
        failures += obs.failures;
        deadline_exceeded[0] += obs.deadline_exceeded[0];
        deadline_exceeded[1] += obs.deadline_exceeded[1];
        for (key, bytes) in obs.results {
            // Byte-identity: every success for a key — first miss, cache
            // hits, recomputes after injected failures — is identical.
            let prior = merged.entry(key.clone()).or_insert_with(|| bytes.clone());
            assert_eq!(*prior, bytes, "seed {seed:#x}: result bytes diverged for {key:?}");
        }
    }

    // Read the injected-fault counts while the plan is still armed, then
    // disarm before the verification traffic below.
    let injected_panics = faults::fired(Site::HandlerPanic);
    let worker_stalls = faults::fired(Site::WorkerStall);
    drop(guard);

    let total = (THREADS * REQUESTS_PER_THREAD) as u64;
    assert_eq!(successes + failures, total, "seed {seed:#x}: requests lost");
    assert!(successes >= total / 2, "seed {seed:#x}: only {successes}/{total} requests succeeded");
    assert!(
        deadline_exceeded[0] > 0 && deadline_exceeded[1] > 0,
        "seed {seed:#x}: the tight-budget probes must trip deadline_exceeded under \
         both engines (runs: {}, scalar: {})",
        deadline_exceeded[0],
        deadline_exceeded[1],
    );
    // Workers stalled mid-pop dozens of times (4 threads × 60 requests at
    // 60/1024 draws a stall with overwhelming probability) and the storm
    // still finished with a success majority: queued requests age but the
    // pool never wedges.
    assert!(
        worker_stalls > 0,
        "seed {seed:#x}: the worker-stall site never fired — the plan is not exercising it"
    );
    assert!(
        started.elapsed() < SEED_DEADLINE,
        "seed {seed:#x}: storm took {:?} (liveness bound {SEED_DEADLINE:?})",
        started.elapsed()
    );

    // Metrics sanity on a clean connection: every caught panic was one we
    // injected, and the disarmed server serves normally.
    let mut clean = Client::connect(addr, Duration::from_secs(30)).expect("clean connect");
    let text = clean.metrics_text().expect("metrics scrape after disarm");
    assert_eq!(
        scrape_counter(&text, "mbb_serve_panics_total"),
        injected_panics,
        "seed {seed:#x}: panics_total diverged from the injected count"
    );
    let resp = clean.analyze("report", SUM, "origin").expect("post-storm request");
    expect_ok(&resp).unwrap_or_else(|e| panic!("seed {seed:#x}: post-storm request failed: {e}"));

    handle.shutdown();
    server.join().expect("server thread exits after drain");
}

/// Budget parity across engines, with no faults in the way: the same
/// request pinned to `runs` and to `scalar` must produce the *same
/// outcome* — the identical structured `deadline_exceeded` error under a
/// tight step budget, and byte-identical results under a generous one.
/// The step quota is charged at the same points in both engines
/// (`mbb_ir::budget`), so a budget that stops one must stop the other.
#[test]
fn budget_outcomes_are_engine_invariant() {
    quiet_injected_panics();
    // No plan may be armed by a concurrent storm while this runs.
    let _arm = ARM_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (addr, handle, server) =
        spawn(Config { workers: 2, ..Config::default() }).expect("server came up");
    let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");

    for kind in ["report", "optimize"] {
        // Tight budget: HUGE runs ~2.6M steps, the quota allows 4096.
        let mut outcomes = Vec::new();
        for engine in ["runs", "scalar"] {
            let req = with_engine(
                client::request_with_budget(kind, Some(HUGE), "origin", 4096, 0),
                engine,
            );
            let resp = client.roundtrip(&req).expect("tight-budget roundtrip");
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{kind}/{engine}: {resp:?}");
            let code = resp
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_str())
                .unwrap_or_else(|| panic!("{kind}/{engine}: error without code: {resp:?}"))
                .to_string();
            outcomes.push(code);
        }
        assert_eq!(outcomes[0], "deadline_exceeded", "{kind}: runs engine outcome");
        assert_eq!(outcomes[0], outcomes[1], "{kind}: engines disagree on the budget outcome");

        // Generous budget: both engines succeed with identical bytes.
        // (The cache would serve the second engine the first's result by
        // design — byte-identity is exactly why the engine is excluded
        // from the cache key — so this also guards that design choice.)
        let mut results = Vec::new();
        for engine in ["runs", "scalar"] {
            let req = with_engine(
                client::request_with_budget(kind, Some(SUM), "origin", 50_000_000, 0),
                engine,
            );
            let resp = client.roundtrip(&req).expect("generous-budget roundtrip");
            expect_ok(&resp).unwrap_or_else(|e| panic!("{kind}/{engine}: {e}"));
            results.push(resp.get("result").expect("result payload").render_compact());
        }
        assert_eq!(results[0], results[1], "{kind}: result bytes diverged across engines");
    }

    handle.shutdown();
    server.join().expect("server thread exits after drain");
}

/// The pipelining acceptance storm: one connection with 32 requests in
/// flight, under injected connection drops and short writes.  Whatever
/// the faults do to individual connections, every id must eventually be
/// answered by a *correctly paired* response — the kind echo pins each
/// response to its id's request — and liveness must hold.
#[test]
fn pipelined_storm_pairs_every_id_under_connection_faults() {
    quiet_injected_panics();
    let _arm = ARM_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (addr, handle, server) =
        spawn(Config { workers: 3, pipeline_depth: 32, ..Config::default() })
            .expect("server came up");
    let guard = faults::install(
        FaultPlan::new(0x51DE).rate(Site::ConnRead, 60).rate(Site::ConnWriteShort, 60),
    );

    let kinds = ["report", "advise", "trace-stats", "optimize"];
    let programs = [SUM, FIG7, SAXPY];
    let mut unanswered: BTreeSet<u64> = (0..32).collect();
    let deadline = Instant::now() + Duration::from_secs(90);
    while !unanswered.is_empty() {
        assert!(
            Instant::now() < deadline,
            "liveness: {} ids still unanswered under the fault plan",
            unanswered.len()
        );
        // (Re)connect and resend every still-unanswered id as one
        // pipelined batch.  A dropped or short-written connection just
        // triggers another round — ids, not connections, are the unit of
        // progress.
        let Ok(mut p) = Pipeline::connect(addr, Duration::from_secs(10)) else {
            continue;
        };
        let lines: Vec<String> = unanswered
            .iter()
            .map(|&i| {
                let req = client::request(
                    kinds[(i % 4) as usize],
                    Some(programs[(i % 3) as usize]),
                    "origin",
                );
                client::with_id(&req, i).render_compact()
            })
            .collect();
        if p.send_batch(&lines).is_err() {
            continue;
        }
        while p.inflight() > 0 {
            match p.recv() {
                Ok((Some(id), resp)) => {
                    if resp.get("ok") == Some(&Json::Bool(true)) {
                        let kind = resp.get("kind").and_then(Json::as_str).unwrap_or("?");
                        assert_eq!(
                            kind,
                            kinds[(id % 4) as usize],
                            "id {id} paired with the wrong response: {resp:?}"
                        );
                        unanswered.remove(&id);
                    }
                    // ok:false (shed, injected failure): the id stays in
                    // the set and is retried next round.
                }
                Ok((None, _)) => {} // unpairable response; retry the ids
                Err(_) => break,    // connection died: reconnect and resend
            }
        }
    }

    drop(guard);
    // Disarmed, the server serves a clean request normally.
    let mut clean = Client::connect(addr, Duration::from_secs(30)).expect("clean connect");
    let resp = clean.analyze("report", SUM, "origin").expect("post-storm request");
    expect_ok(&resp).expect("post-storm request succeeds");

    handle.shutdown();
    server.join().expect("server thread exits after drain");
}

#[test]
fn storm_of_faulty_requests_stays_live_wellformed_and_deterministic() {
    quiet_injected_panics();
    let seeds: Vec<u64> = match std::env::var("CHAOS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = s
                .strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| s.parse());
            vec![parsed.unwrap_or_else(|_| panic!("CHAOS_SEED {s:?} is not a u64"))]
        }
        Err(_) => vec![0xC0FFEE, 0x5EED5],
    };
    for seed in seeds {
        eprintln!("chaos: seed {seed:#x}");
        let outcome = std::panic::catch_unwind(|| run_seed(seed));
        if let Err(payload) = outcome {
            let replay = format!(
                "chaos seed {seed:#x} failed; replay with:\n  CHAOS_SEED={seed:#x} cargo test -p mbb-server --test chaos\n"
            );
            let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-replay.txt");
            let _ = std::fs::write(&path, &replay);
            eprintln!("{replay}(replay instructions written to {})", path.display());
            std::panic::resume_unwind(payload);
        }
    }
}
