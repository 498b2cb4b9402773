//! CI smoke driver for a running shard tier.
//!
//! ```text
//! cluster_smoke ADDR1 ADDR2 [ADDR3 …]
//! ```
//!
//! Spins up an in-process *single-node* reference server, drives one
//! corpus of analysis requests through it, then drives the same corpus
//! through every tier node twice and checks the tier against the
//! reference:
//!
//! * **byte-identity** — every tier response carries result bytes
//!   identical to the single-node run, whether it was computed locally,
//!   relayed to the owning shard, or served from a peer's cache;
//! * **shard coherence** — duplicate keys resolve to one shard: the
//!   tier-wide cache-miss total stays within 110% of the unique-key
//!   count (the issue's "≥90% of duplicates resolved by exactly one
//!   shard" bound), and at least one cache hit arrives via forwarding;
//! * **stats reconciliation** — each node's `cluster-stats` response
//!   agrees with its own `mbb_serve_*` Prometheus counters, and
//!   tier-wide forwarded-out equals tier-wide forwarded-in.
//!
//! On any divergence the driver writes per-node transcripts (request and
//! response lines, in order) under `$CLUSTER_SMOKE_ARTIFACTS` (default
//! `cluster-smoke-artifacts/`) and prints a replay command, then exits
//! nonzero so the CI lane fails with the evidence attached.

use std::process::ExitCode;
use std::time::Duration;

use mbb_obs::json::Json;
use mbb_server::client::{expect_ok, request, Client};
use mbb_server::server::{spawn, Config};

const SUM: &str = "program sum\narray a[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  s = (s + a[i])\nend for\n";
const FIG7: &str = "program fig7\narray res[512]\narray data[512]\nscalar sum = 0  // printed\nfor i = 0, 511\n  res[i] = (res[i] + data[i])\nend for\nfor j = 0, 511\n  sum = (sum + res[j])\nend for\n";
const SAXPY: &str = "program saxpy\narray x[512]\narray y[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  y[i] = (y[i] + (2 * x[i]))\nend for\nfor j = 0, 511\n  s = (s + y[j])\nend for\n";
const STRIDE: &str = "program stride\narray m[4096]\nscalar acc = 0  // printed\nfor i = 0, 511\n  acc = (acc + m[8 * i])\nend for\n";

const KINDS: [&str; 3] = ["report", "trace-stats", "advise"];
const PROGRAMS: [&str; 4] = [SUM, FIG7, SAXPY, STRIDE];

fn check(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("check failed: {what}"))
    }
}

/// Pulls the first sample whose exposition line starts with `name` +
/// space out of a Prometheus scrape.
fn sample(scrape: &str, name: &str) -> Result<u64, String> {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .ok_or_else(|| format!("metric {name} missing from scrape"))
}

fn uint(j: Option<&Json>, what: &str) -> Result<u64, String> {
    match j {
        Some(Json::UInt(n)) => Ok(*n),
        other => Err(format!("{what}: expected a uint, got {other:?}")),
    }
}

/// One corpus pass through one node; appends to that node's transcript
/// and to `responses[entry]`.
fn drive_pass(
    addr: &str,
    transcript: &mut Vec<String>,
    responses: &mut [Vec<String>],
) -> Result<(), String> {
    let mut c = Client::connect(addr, Duration::from_secs(60))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    for (ci, (kind, program)) in corpus().enumerate() {
        let req = request(kind, Some(program), "origin");
        transcript.push(format!("> {}", req.render_compact()));
        let resp = c.roundtrip(&req).map_err(|e| format!("{addr} entry {ci}: {e}"))?;
        transcript.push(format!("< {}", resp.render_compact()));
        expect_ok(&resp).map_err(|e| format!("{addr} entry {ci}: {e}"))?;
        let result = resp.get("result").ok_or_else(|| format!("{addr} entry {ci}: no result"))?;
        responses[ci].push(result.render_compact());
    }
    Ok(())
}

fn corpus() -> impl Iterator<Item = (&'static str, &'static str)> {
    KINDS.iter().flat_map(|&k| PROGRAMS.iter().map(move |&p| (k, p)))
}

fn drive(nodes: &[String], transcripts: &mut [Vec<String>]) -> Result<(), String> {
    let unique = KINDS.len() * PROGRAMS.len();

    // The single-node reference: same crate, same analysis code, no tier.
    let (ref_addr, ref_handle, _) = spawn(Config { workers: 2, ..Config::default() })
        .map_err(|e| format!("reference server: {e}"))?;
    let mut reference = vec![Vec::new(); unique];
    let mut ref_transcript = Vec::new();
    drive_pass(&ref_addr.to_string(), &mut ref_transcript, &mut reference)?;
    println!("cluster_smoke: single-node reference computed {unique} corpus entries");

    // Two full passes through every tier node.  Pass 1 fills the tier's
    // caches (one shard per key); pass 2 is all hits, many forwarded.
    let mut responses: Vec<Vec<String>> = vec![Vec::new(); unique];
    for pass in 0..2 {
        for (ni, addr) in nodes.iter().enumerate() {
            drive_pass(addr, &mut transcripts[ni], &mut responses)
                .map_err(|e| format!("pass {pass}: {e}"))?;
        }
        println!("cluster_smoke: pass {pass} done ({} requests)", unique * nodes.len());
    }

    // Byte-identity: every tier response — any node, any pass, local or
    // forwarded, hit or miss — matches the single-node reference bytes.
    for (ci, all) in responses.iter().enumerate() {
        for (ri, r) in all.iter().enumerate() {
            check(
                r == &reference[ci][0],
                &format!("corpus entry {ci} response {ri} is byte-identical to single-node"),
            )?;
        }
    }
    println!("cluster_smoke: byte-identity holds for {} tier responses", unique * nodes.len() * 2);

    // Per-node metrics: scrape once, then reconcile (a) the tier-wide
    // miss bound, (b) routing identities, (c) cluster-stats totals.
    let per_pass = unique as u64;
    let mut total_misses = 0u64;
    let mut fwd_out = 0u64;
    let mut fwd_in = 0u64;
    for (ni, addr) in nodes.iter().enumerate() {
        let mut c = Client::connect(addr, Duration::from_secs(30))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let scrape = c.metrics_text().map_err(|e| format!("{addr}: metrics: {e}"))?;
        let local = sample(&scrape, "mbb_serve_route_total{dest=\"local\"}")?;
        let forward = sample(&scrape, "mbb_serve_route_total{dest=\"forward\"}")?;
        let fwd_err = sample(&scrape, "mbb_serve_forward_errors_total")?;
        let forwarded_in = sample(&scrape, "mbb_serve_forwarded_in_total")?;
        total_misses += sample(&scrape, "mbb_serve_cache_misses_total")?;
        fwd_out += forward;
        fwd_in += forwarded_in;
        check(
            local + forward == 2 * per_pass,
            &format!("node {ni}: every corpus request made one routing decision (local {local} + forward {forward})"),
        )?;

        let resp = c
            .roundtrip(&Json::obj([
                ("schema", Json::str("mbb-serve/1")),
                ("kind", Json::str("cluster-stats")),
            ]))
            .map_err(|e| format!("{addr}: cluster-stats: {e}"))?;
        expect_ok(&resp).map_err(|e| format!("{addr}: cluster-stats: {e}"))?;
        let stats = resp.get("result").ok_or("cluster-stats: no result")?;
        check(
            stats.get("schema").and_then(Json::as_str) == Some("mbb-cluster-stats/1"),
            "cluster-stats schema marker",
        )?;
        check(
            stats.get("nodes") == Some(&Json::UInt(nodes.len() as u64)),
            &format!("node {ni} sees the whole tier"),
        )?;
        check(
            uint(stats.get("forwarded_in"), "forwarded_in")? == forwarded_in,
            &format!("node {ni}: cluster-stats forwarded_in matches the counter"),
        )?;
        let Some(Json::Arr(peers)) = stats.get("peers") else {
            return Err(format!("node {ni}: cluster-stats without a peers array"));
        };
        let (mut self_routed, mut other_routed, mut relayed) = (0u64, 0u64, 0u64);
        for p in peers {
            let routed = uint(p.get("routed"), "peer routed")?;
            if p.get("self") == Some(&Json::Bool(true)) {
                self_routed += routed;
            } else {
                other_routed += routed;
                relayed += uint(p.get("forwarded"), "peer forwarded")?;
            }
        }
        check(
            self_routed == local && other_routed == forward && relayed == forward - fwd_err,
            &format!(
                "node {ni}: cluster-stats ({self_routed}/{other_routed}/{relayed}) reconciles \
                 with metrics (local {local}, forward {forward}, errors {fwd_err})"
            ),
        )?;
        println!("cluster_smoke: node {ni} ({addr}) reconciled: local {local} forward {forward} err {fwd_err}");
    }
    check(fwd_out == fwd_in, "tier-wide forwarded-out equals forwarded-in")?;

    // The coherence bound: 2 passes × N nodes × `unique` requests over
    // `unique` keys.  Perfect sharding misses exactly once per key;
    // ≥90% duplicate resolution allows 10% slack for transient fallback.
    let bound = (unique as u64) + (unique as u64).div_ceil(10);
    check(
        total_misses <= bound,
        &format!("tier-wide misses {total_misses} within the coherence bound {bound}"),
    )?;
    println!("cluster_smoke: tier-wide misses {total_misses} (unique {unique}, bound {bound})");

    // Forwarded cache hits: relayed responses are byte-verbatim (no tier
    // marker reaches the client), so derive the lower bound from the
    // counters — every forwarded request beyond the miss total was a hit
    // served through peer forwarding.
    let forwarded_hits = fwd_out.saturating_sub(total_misses);
    check(forwarded_hits > 0, "some cache hits were served via peer forwarding")?;
    println!("cluster_smoke: >= {forwarded_hits} cache hits arrived via peer forwarding");

    ref_handle.shutdown();
    Ok(())
}

fn dump_artifacts(nodes: &[String], transcripts: &[Vec<String>]) {
    let dir = std::env::var("CLUSTER_SMOKE_ARTIFACTS")
        .unwrap_or_else(|_| "cluster-smoke-artifacts".to_string());
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("cluster_smoke: cannot create {dir}; transcripts not saved");
        return;
    }
    for (ni, t) in transcripts.iter().enumerate() {
        let path = format!("{dir}/node-{ni}.transcript.txt");
        let mut body = format!(
            "# mbb-serve/1 transcript, node {ni} ({}) — `>` sent, `<` received\n",
            nodes[ni]
        );
        body.push_str(&t.join("\n"));
        body.push('\n');
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cluster_smoke: writing {path}: {e}");
        } else {
            eprintln!("cluster_smoke: transcript saved to {path}");
        }
    }
    eprintln!(
        "cluster_smoke: replay with: cargo run --release -p mbb-server --bin cluster_smoke -- {}",
        nodes.join(" ")
    );
}

fn main() -> ExitCode {
    let nodes: Vec<String> = std::env::args().skip(1).collect();
    if nodes.len() < 2 {
        eprintln!("usage: cluster_smoke ADDR1 ADDR2 [ADDR3 …]");
        return ExitCode::from(2);
    }
    let mut transcripts: Vec<Vec<String>> = vec![Vec::new(); nodes.len()];
    match drive(&nodes, &mut transcripts) {
        Ok(()) => {
            println!("cluster_smoke: tier coherent, byte-identical, reconciled");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cluster_smoke: {e}");
            dump_artifacts(&nodes, &transcripts);
            ExitCode::FAILURE
        }
    }
}
