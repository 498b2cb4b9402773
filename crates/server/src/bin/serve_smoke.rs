//! CI smoke driver for a running `mbbc serve` instance.
//!
//! ```text
//! serve_smoke ADDR
//! ```
//!
//! Drives one request of every kind through the blocking client, repeats
//! one to assert a cache hit with bit-identical bytes (once byte for byte,
//! once reformatted), scrapes the metrics exposition, and shuts the
//! server down via the admin request.
//! Exits nonzero (printing what failed) on any deviation, so the CI job
//! is a single process invocation.

use std::process::ExitCode;
use std::time::Duration;

use mbb_obs::json::Json;
use mbb_server::client::{expect_ok, Client, Pipeline};

const PROGRAM: &str = "array res[4096]\narray data[4096]\nscalar sum = 0  // printed\nfor i = 0, 4095\n  res[i] = (res[i] + data[i])\nend for\nfor j = 0, 4095\n  sum = (sum + res[j])\nend for\n";

fn check(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("check failed: {what}"))
    }
}

fn drive(addr: &str) -> Result<(), String> {
    let mut c = Client::connect(addr, Duration::from_secs(60))
        .map_err(|e| format!("connect {addr}: {e}"))?;

    // One request of each analysis kind plus the catalogue.
    let mut first_report = None;
    for kind in ["report", "advise", "optimize", "trace-stats"] {
        let resp = c.analyze(kind, PROGRAM, "origin").map_err(|e| format!("{kind}: {e}"))?;
        expect_ok(&resp).map_err(|e| format!("{kind}: {e}"))?;
        let text = resp
            .get("result")
            .and_then(|r| r.get("text"))
            .and_then(|t| t.as_str())
            .ok_or_else(|| format!("{kind}: response without result.text"))?;
        check(!text.is_empty(), "analysis text nonempty")?;
        check(resp.get("cached") == Some(&Json::Bool(false)), "first request uncached")?;
        if kind == "report" {
            first_report = Some(resp.get("result").cloned());
        }
        println!("serve_smoke: {kind} ok ({} text bytes)", text.len());
    }
    let resp = c
        .roundtrip(&mbb_server::client::request("machines", None, ""))
        .map_err(|e| e.to_string())?;
    expect_ok(&resp).map_err(|e| format!("machines: {e}"))?;
    println!("serve_smoke: machines ok");

    // The overload-status admin kind: a lightly-loaded server is healthy.
    let resp =
        c.roundtrip(&mbb_server::client::request("health", None, "")).map_err(|e| e.to_string())?;
    expect_ok(&resp).map_err(|e| format!("health: {e}"))?;
    let h = resp.get("result").ok_or("health: response without result")?;
    check(h.get("status").and_then(Json::as_str) == Some("ok"), "health status is ok")?;
    check(h.get("level") == Some(&Json::UInt(0)), "brown-out level is 0")?;
    check(h.get("max_level") == Some(&Json::UInt(0)), "high-water level is 0 when never loaded")?;
    check(h.get("shed_total").is_some(), "health carries shed_total")?;
    println!("serve_smoke: health ok");

    // The cluster-stats admin kind: a standalone server reports the
    // single-node shape of the mbb-cluster-stats/1 schema.
    let resp = c
        .roundtrip(&mbb_server::client::request("cluster-stats", None, ""))
        .map_err(|e| e.to_string())?;
    expect_ok(&resp).map_err(|e| format!("cluster-stats: {e}"))?;
    let s = resp.get("result").ok_or("cluster-stats: response without result")?;
    check(
        s.get("schema").and_then(Json::as_str) == Some("mbb-cluster-stats/1"),
        "cluster-stats schema marker",
    )?;
    check(s.get("forwarded_in").is_some(), "cluster-stats carries forwarded_in")?;
    check(s.get("nodes") == Some(&Json::UInt(0)), "standalone server reports 0 tier nodes")?;
    println!("serve_smoke: cluster-stats ok");

    // Pipelining: two in-flight requests on one connection, answered with
    // byte-faithful id echoes so the responses pair up.
    let mut p =
        Pipeline::connect(addr, Duration::from_secs(60)).map_err(|e| format!("pipeline: {e}"))?;
    let m = mbb_server::client::request("machines", None, "");
    p.send(&m, 7).map_err(|e| format!("pipeline send: {e}"))?;
    p.send(&m, 8).map_err(|e| format!("pipeline send: {e}"))?;
    let by_id = p.drain().map_err(|e| format!("pipeline drain: {e}"))?;
    check(by_id.len() == 2, "both pipelined responses arrived")?;
    for id in [7u64, 8] {
        let resp = by_id.get(&id).ok_or_else(|| format!("pipeline: id {id} not echoed"))?;
        expect_ok(resp).map_err(|e| format!("pipeline id {id}: {e}"))?;
        check(
            resp.get("kind").and_then(Json::as_str) == Some("machines"),
            "pipelined response pairs with its request",
        )?;
    }
    println!("serve_smoke: pipelined id echo ok");

    // Repeat: must be a cache hit with bit-identical result payload.
    let again = c.analyze("report", PROGRAM, "origin").map_err(|e| format!("repeat: {e}"))?;
    expect_ok(&again).map_err(|e| format!("repeat: {e}"))?;
    check(again.get("cached") == Some(&Json::Bool(true)), "repeated request is a cache hit")?;
    check(
        again.get("result").cloned() == first_report.clone().flatten(),
        "cache hit is bit-identical to the original result",
    )?;
    println!("serve_smoke: repeat is a cache hit");

    // The same program reformatted: new raw text, so the source memo
    // misses, but the canonical key still hits the result cache.
    let noisy = PROGRAM.replace("array data[4096]\n", "array   data[4096]   // input\n\n");
    let again = c.analyze("report", &noisy, "origin").map_err(|e| format!("reformatted: {e}"))?;
    expect_ok(&again).map_err(|e| format!("reformatted: {e}"))?;
    check(again.get("cached") == Some(&Json::Bool(true)), "reformatted repeat is a cache hit")?;
    check(
        again.get("result").cloned() == first_report.flatten(),
        "reformatted hit is bit-identical to the original result",
    )?;
    println!("serve_smoke: reformatted repeat is a cache hit");

    // A distinct-exit-code probe: a syntax error must come back as code
    // `parse` / exit_code 3 without closing the connection.
    let bad = c
        .analyze("report", "for i = 0, 3\n  bogus[i] = 1\nend for\n", "origin")
        .map_err(|e| format!("bad program: {e}"))?;
    let code =
        bad.get("error").and_then(|e| e.get("code")).and_then(|x| x.as_str()).unwrap_or("<none>");
    check(code == "parse", "syntax error surfaces as code=parse")?;
    println!("serve_smoke: parse error classified");

    // Scrape metrics and sanity-check the counters we just generated.
    let metrics = c.metrics_text().map_err(|e| format!("metrics: {e}"))?;
    for needle in [
        "mbb_serve_requests_total{kind=\"report\"} 4",
        "mbb_serve_requests_total{kind=\"optimize\"} 1",
        "mbb_serve_errors_total{code=\"parse\"} 1",
        "mbb_serve_cache_hits_total 2",
        // The byte-identical repeat is the one memo hit.  The 4 first
        // passes, the reformatted repeat and the parse error each parsed,
        // and the parse error stored nothing.
        "mbb_serve_source_memo_hits_total 1\n",
        "mbb_serve_source_memo_misses_total 6\n",
        "mbb_serve_source_memo_entries 5\n",
        // The byte-identical repeat is also the one request answered on
        // the event loop; the reformatted repeat misses the memo and goes
        // to a worker.
        "mbb_serve_loop_answers_total 1\n",
        "mbb_serve_request_cpu_seconds_count",
        "mbb_serve_requests_total{kind=\"health\"} 1",
        "mbb_serve_requests_total{kind=\"cluster-stats\"} 1",
        "mbb_serve_requests_total{kind=\"machines\"} 3",
        // 4 first-pass analyses + the two repeats; admin kinds never route.
        "mbb_serve_route_total{dest=\"local\"} 6",
        "mbb_serve_route_total{dest=\"forward\"} 0",
        "mbb_serve_forwarded_in_total 0",
        "mbb_serve_connections_open",
        "mbb_serve_brownout_level",
        "mbb_serve_shed_total",
    ] {
        check(metrics.contains(needle), &format!("metrics contain `{needle}`"))
            .map_err(|e| format!("{e}\n--- scrape ---\n{metrics}"))?;
    }
    println!("serve_smoke: metrics scrape ok");

    c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    println!("serve_smoke: shutdown acknowledged");
    Ok(())
}

fn main() -> ExitCode {
    let Some(addr) = std::env::args().nth(1) else {
        eprintln!("usage: serve_smoke ADDR");
        return ExitCode::from(2);
    };
    match drive(&addr) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_smoke: {e}");
            ExitCode::FAILURE
        }
    }
}
