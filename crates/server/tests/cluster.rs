//! Tier tests: three live in-process nodes sharing one consistent-hash
//! ring.  Verifies peer forwarding, tier-wide cache coherence (one miss
//! per unique key no matter which node took the request), byte-identity
//! of cached responses across the tier, cluster-stats reconciliation
//! against the Prometheus counters, and local fallback when a peer dies.

use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use mbb_obs::json::Json;
use mbb_server::client::{expect_ok, Client};
use mbb_server::server::{spawn, Config, Handle};

const SUM: &str = "program sum\narray a[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  s = (s + a[i])\nend for\n";
const FIG7: &str = "program fig7\narray res[512]\narray data[512]\nscalar sum = 0  // printed\nfor i = 0, 511\n  res[i] = (res[i] + data[i])\nend for\nfor j = 0, 511\n  sum = (sum + res[j])\nend for\n";
const SAXPY: &str = "program saxpy\narray x[512]\narray y[512]\nscalar s = 0  // printed\nfor i = 0, 511\n  y[i] = (y[i] + (2 * x[i]))\nend for\nfor j = 0, 511\n  s = (s + y[j])\nend for\n";

/// Reserves `n` distinct loopback ports by binding and dropping
/// listeners.  The tiny window between drop and the server's own bind is
/// harmless here: nothing else in the test process touches these ports.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| l.local_addr().unwrap()).collect()
}

fn start_node(addr: SocketAddr, peers: Vec<String>) -> (Handle, std::thread::JoinHandle<()>) {
    let cfg = Config {
        addr: addr.to_string(),
        advertise: addr.to_string(),
        peers,
        workers: 2,
        ..Config::default()
    };
    let (_, handle, thread) = spawn(cfg).expect("node came up");
    (handle, thread)
}

fn counter(m: &mbb_server::metrics::Metrics, which: &str) -> u64 {
    use std::sync::atomic::Ordering;
    match which {
        "local" => m.route_local_total.load(Ordering::Relaxed),
        "forward" => m.route_forward_total.load(Ordering::Relaxed),
        "fwd_err" => m.forward_errors_total.load(Ordering::Relaxed),
        "fwd_in" => m.forwarded_in_total.load(Ordering::Relaxed),
        "loop" => m.loop_answers_total.load(Ordering::Relaxed),
        other => panic!("unknown counter {other}"),
    }
}

#[test]
fn three_node_tier_is_cache_coherent_and_byte_identical() {
    let addrs = free_addrs(3);
    let peers: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let nodes: Vec<(Handle, std::thread::JoinHandle<()>)> =
        addrs.iter().map(|&a| start_node(a, peers.clone())).collect();

    // The corpus: 6 unique keys (3 programs × 2 kinds), sent through
    // *every* node — 18 requests, and a second identical pass of 18 more.
    let corpus: Vec<(&str, &str)> = ["report", "trace-stats"]
        .iter()
        .flat_map(|&k| [SUM, FIG7, SAXPY].iter().map(move |&p| (k, p)))
        .collect();

    let mut responses: Vec<Vec<String>> = vec![Vec::new(); corpus.len()];
    for pass in 0..2 {
        for &addr in &addrs {
            let mut c = Client::connect(addr, Duration::from_secs(60)).unwrap();
            for (ci, &(kind, program)) in corpus.iter().enumerate() {
                let resp = c.analyze(kind, program, "origin").unwrap();
                expect_ok(&resp).unwrap_or_else(|e| panic!("pass {pass} via {addr}: {e}"));
                responses[ci].push(resp.get("result").unwrap().render_compact());
            }
        }
    }
    // Byte-identity: all 6 responses per key — across nodes, across
    // passes, forwarded or local, hit or miss — carry identical result
    // bytes.
    for (ci, all) in responses.iter().enumerate() {
        assert_eq!(all.len(), 6);
        for r in all {
            assert_eq!(r, &all[0], "corpus entry {ci} diverged across the tier");
        }
    }

    // Cache coherence: 36 requests over 6 unique keys fill exactly 6
    // entries *tier-wide* — routing resolved every duplicate to one shard.
    let total_misses: u64 = nodes.iter().map(|(h, _)| h.cache().stats().misses).sum();
    let total_entries: u64 = nodes.iter().map(|(h, _)| h.cache().stats().entries).sum();
    assert_eq!(total_misses, 6, "one miss per unique key across the whole tier");
    assert_eq!(total_entries, 6);

    // Routing identities, per node: every program request was either
    // served locally or forwarded; no forward failed; what one node
    // counts as forwarded-out its peers count as forwarded-in.
    let mut fwd_out = 0u64;
    let mut fwd_in = 0u64;
    for (h, _) in &nodes {
        let m = h.metrics();
        assert_eq!(counter(m, "local") + counter(m, "forward"), 12, "12 routing decisions");
        assert_eq!(counter(m, "fwd_err"), 0);
        fwd_out += counter(m, "forward");
        fwd_in += counter(m, "fwd_in");
    }
    assert_eq!(fwd_out, fwd_in, "forwarded-out and forwarded-in must reconcile tier-wide");
    assert!(fwd_out > 0, "a 3-node tier with 6 keys forwards something");

    // cluster-stats reconciles with the node's own Prometheus counters.
    for (ni, &addr) in addrs.iter().enumerate() {
        let mut c = Client::connect(addr, Duration::from_secs(30)).unwrap();
        let resp = c
            .roundtrip(&Json::obj([
                ("schema", Json::str("mbb-serve/1")),
                ("kind", Json::str("cluster-stats")),
            ]))
            .unwrap();
        expect_ok(&resp).unwrap();
        let stats = resp.get("result").expect("result");
        assert_eq!(stats.get("schema").and_then(Json::as_str), Some("mbb-cluster-stats/1"));
        assert_eq!(stats.get("nodes"), Some(&Json::UInt(3)));
        let m = nodes[ni].0.metrics();
        assert_eq!(stats.get("forwarded_in"), Some(&Json::UInt(counter(m, "fwd_in"))), "node {ni}");
        let Some(Json::Arr(peers_arr)) = stats.get("peers") else {
            panic!("node {ni}: no peers array: {stats:?}");
        };
        assert_eq!(peers_arr.len(), 3);
        let mut self_routed = 0;
        let mut other_routed = 0;
        let mut forwarded = 0;
        for p in peers_arr {
            let routed = match p.get("routed") {
                Some(Json::UInt(n)) => *n,
                other => panic!("node {ni}: routed is {other:?}"),
            };
            if p.get("self") == Some(&Json::Bool(true)) {
                self_routed += routed;
            } else {
                other_routed += routed;
                if let Some(Json::UInt(f)) = p.get("forwarded") {
                    forwarded += *f;
                }
            }
        }
        assert_eq!(self_routed, counter(m, "local"), "node {ni}: local routing");
        assert_eq!(other_routed, counter(m, "forward"), "node {ni}: forward routing");
        assert_eq!(forwarded, counter(m, "forward") - counter(m, "fwd_err"), "node {ni}");
    }

    // Every key is warm now.  One more request per key through every
    // node, each on a fresh connection (so no worker still holds its
    // writer): an owned key is answered on the entry node's event loop;
    // a peer's key is forwarded, and the relay is answered on the
    // owner's loop.  With `owned` keys, a node forwards 6 - owned and
    // answers 3 × owned on its loop (its own requests plus both peers'
    // relays).
    let before: Vec<(u64, u64)> = nodes
        .iter()
        .map(|(h, _)| (counter(h.metrics(), "loop"), counter(h.metrics(), "forward")))
        .collect();
    for &addr in &addrs {
        for &(kind, program) in &corpus {
            let mut c = Client::connect(addr, Duration::from_secs(60)).unwrap();
            let resp = c.analyze(kind, program, "origin").unwrap();
            assert_eq!(resp.get("cached"), Some(&Json::Bool(true)), "{resp:?}");
        }
    }
    let mut answered = 0;
    for (ni, ((h, _), (loop0, fwd0))) in nodes.iter().zip(before).enumerate() {
        let looped = counter(h.metrics(), "loop") - loop0;
        let forwarded = counter(h.metrics(), "forward") - fwd0;
        let owned = 6 - forwarded;
        assert_eq!(looped, 3 * owned, "node {ni}: {owned} owned keys, {looped} loop answers");
        answered += looped;
    }
    assert_eq!(answered, 18, "every warm request is answered on some node's event loop");

    for (h, t) in nodes {
        h.shutdown();
        t.join().unwrap();
    }
}

#[test]
fn tier_survives_a_dead_peer_with_local_fallback() {
    // Two live nodes plus one address nobody ever binds: a third of the
    // ring routes into a black hole and must fall back to local compute.
    let addrs = free_addrs(3);
    let peers: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let live: Vec<(Handle, std::thread::JoinHandle<()>)> =
        addrs[..2].iter().map(|&a| start_node(a, peers.clone())).collect();

    let programs = [SUM, FIG7, SAXPY];
    for &addr in &addrs[..2] {
        let mut c = Client::connect(addr, Duration::from_secs(60)).unwrap();
        for kind in ["report", "trace-stats", "advise"] {
            for program in programs {
                let resp = c.analyze(kind, program, "origin").unwrap();
                expect_ok(&resp).unwrap_or_else(|e| panic!("via {addr}: {e}"));
            }
        }
    }

    // Every request was answered; forwards between the live pair worked
    // and any forward to the dead peer failed over to local compute.
    for (h, _) in &live {
        let m = h.metrics();
        assert_eq!(counter(m, "local") + counter(m, "forward"), 9);
    }

    // Drive distinct keys through node 0 until one provably routes to the
    // dead peer (about a third do, so a handful of probes suffice; 64
    // bounds the loop at a (2/3)^64 ≈ 5e-12 flake).  Every probe must
    // still be answered — that is the fallback under test.
    let mut c = Client::connect(addrs[0], Duration::from_secs(60)).unwrap();
    for i in 0..64 {
        if counter(live[0].0.metrics(), "fwd_err") > 0 {
            break;
        }
        let program = format!(
            "program probe{i}\narray a[{n}]\nscalar s = 0  // printed\nfor i = 0, {top}\n  s = (s + a[i])\nend for\n",
            n = 64 + i,
            top = 63 + i
        );
        let resp = c.analyze("report", &program, "origin").unwrap();
        expect_ok(&resp).unwrap_or_else(|e| panic!("probe {i}: fallback failed: {e}"));
    }
    assert!(
        counter(live[0].0.metrics(), "fwd_err") > 0,
        "no forward ever failed — the dead peer was never routed to"
    );

    // The dead peer shows up as down in cluster-stats while the breaker
    // is open (the probe loop left a fresh failure behind).
    let resp = c
        .roundtrip(&Json::obj([
            ("schema", Json::str("mbb-serve/1")),
            ("kind", Json::str("cluster-stats")),
        ]))
        .unwrap();
    expect_ok(&resp).unwrap();
    let Some(Json::Arr(peers_arr)) = resp.get("result").and_then(|r| r.get("peers")) else {
        panic!("no peers array: {resp:?}");
    };
    assert!(
        peers_arr.iter().any(|p| p.get("down") == Some(&Json::Bool(true))),
        "node 0 saw forward errors but reports no peer down: {resp:?}"
    );

    for (h, t) in live {
        h.shutdown();
        t.join().unwrap();
    }
}
