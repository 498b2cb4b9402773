//! The shard tier: peer forwarding over the consistent-hash [`Ring`].
//!
//! N `mbb-server` instances become one cache-coherent tier: every node
//! builds the same [`Ring`] from the same `--peers` list, hashes each
//! request's content-address, and — when another node owns the key —
//! relays the request line to that peer over a fresh connection, marked
//! `"fwd":true` so the hop count is capped at one.  The owning node
//! computes (or serves from its cache) and the relay returns its bytes
//! verbatim, so a cache hit on the owner is byte-identical no matter
//! which node the client happened to dial.
//!
//! **Failure semantics.**  Liveness is not consensus: when a relay
//! fails, the request falls back to *local* computation (correct, just a
//! duplicate cache fill) and the peer enters a short cooldown
//! ([`Cluster::COOLDOWN`]) during which further relays to it fail fast.
//! The ring itself never reshuffles — ownership stays a pure function of
//! configuration, so a recovered peer resumes serving its arcs with its
//! cache intact.
//!
//! **Accounting.**  Per peer: `routed` (requests whose key the peer
//! owns, counted at the routing decision), `forwarded` (relays that
//! returned a response), `forward_errors` (relays that fell back), and
//! `hits` (relays answered `"cached":true` — the tier-coherence signal).
//! `forwarded_in` counts requests *received* pre-marked.  The
//! `cluster-stats` admin kind reports all of these; CI reconciles them
//! against the per-node `mbb_serve_route_total`/`mbb_serve_forward_*`
//! Prometheus counters.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mbb_obs::json::Json;

use crate::ring::Ring;

/// Where a request should run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// This node owns the key (or there is no tier): run locally.
    Local,
    /// Peer `index` (into [`Cluster::peer_names`]) owns the key.
    Peer(usize),
}

#[derive(Default)]
struct PeerState {
    routed: AtomicU64,
    forwarded: AtomicU64,
    forward_errors: AtomicU64,
    hits: AtomicU64,
    /// Breaker: relays fail fast until this many ms since `started`.
    down_until_ms: AtomicU64,
}

/// The tier view from one node: the ring, this node's identity, and
/// per-peer relay accounting.
pub struct Cluster {
    ring: Ring,
    self_index: Option<usize>,
    peers: Vec<PeerState>,
    forwarded_in: AtomicU64,
    started: Instant,
    io_timeout: Duration,
}

impl Cluster {
    /// How long a peer's relays fail fast after a connect/IO error.
    pub const COOLDOWN: Duration = Duration::from_secs(1);
    /// Connect budget per relay; small so a dead peer costs one quick
    /// probe, not a worker stalled for the full read timeout.
    pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

    /// A tier of one: every key routes [`Route::Local`], stats still work.
    pub fn single(io_timeout: Duration) -> Cluster {
        Cluster {
            ring: Ring::new::<&str>(&[]),
            self_index: None,
            peers: Vec::new(),
            forwarded_in: AtomicU64::new(0),
            started: Instant::now(),
            io_timeout,
        }
    }

    /// Builds the tier view.  `advertise` must be one of `peers` —
    /// otherwise this node would forward keys it owns to itself forever.
    pub fn new<S: AsRef<str>>(
        peers: &[S],
        advertise: &str,
        io_timeout: Duration,
    ) -> io::Result<Cluster> {
        if peers.is_empty() {
            return Ok(Cluster::single(io_timeout));
        }
        let ring = Ring::new(peers);
        let Some(self_index) = ring.index_of(advertise) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("--advertise {advertise} is not in the --peers list"),
            ));
        };
        let states = ring.nodes().iter().map(|_| PeerState::default()).collect();
        Ok(Cluster {
            ring,
            self_index: Some(self_index),
            peers: states,
            forwarded_in: AtomicU64::new(0),
            started: Instant::now(),
            io_timeout,
        })
    }

    /// True when there is more than one node to route across.
    pub fn is_tier(&self) -> bool {
        self.ring.len() > 1
    }

    /// Peer names (sorted; index space for [`Route::Peer`]).
    pub fn peer_names(&self) -> &[String] {
        self.ring.nodes()
    }

    /// This node's index in [`Cluster::peer_names`], if a tier is up.
    pub fn self_index(&self) -> Option<usize> {
        self.self_index
    }

    /// Routes `key` and counts the decision against the owning peer.
    /// This is the only place `routed` is bumped, so per-peer `routed`
    /// totals reconcile exactly with `mbb_serve_route_total`.
    pub fn route(&self, key: u64) -> Route {
        let owner = self.owner(key);
        if let Some(owner) = owner {
            self.peers[owner].routed.fetch_add(1, Ordering::Relaxed);
        }
        self.route_to(owner)
    }

    /// [`route`](Self::route) without counting the decision, for a
    /// caller that may still hand the request on: the ring is fixed, so
    /// a later `route` of the same key decides the same.
    pub fn peek_route(&self, key: u64) -> Route {
        self.route_to(self.owner(key))
    }

    /// The ring owner of `key`; `None` without a tier.
    fn owner(&self, key: u64) -> Option<usize> {
        self.is_tier().then(|| self.ring.owner(key).expect("non-empty ring"))
    }

    fn route_to(&self, owner: Option<usize>) -> Route {
        match owner {
            Some(owner) if Some(owner) != self.self_index => Route::Peer(owner),
            _ => Route::Local,
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// Marks a request line as forwarded: `{"fwd":true,` spliced over the
    /// opening brace, so the peer sees the identical request plus the
    /// single-hop marker.
    pub fn mark_forwarded(line: &str) -> String {
        debug_assert!(line.starts_with('{') && line.len() > 2);
        format!("{{\"fwd\":true,{}", &line[1..])
    }

    /// Relays `line` (one request, no trailing newline) to peer `index`
    /// and returns the peer's response line verbatim.  On any failure the
    /// peer enters cooldown, `forward_errors` is bumped, and the caller
    /// falls back to local computation.
    pub fn forward(&self, index: usize, line: &str) -> io::Result<String> {
        let res = self.try_forward(index, line);
        let peer = &self.peers[index];
        match &res {
            Ok(resp) => {
                peer.forwarded.fetch_add(1, Ordering::Relaxed);
                peer.down_until_ms.store(0, Ordering::Relaxed);
                if resp.contains("\"cached\":true") {
                    peer.hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                peer.forward_errors.fetch_add(1, Ordering::Relaxed);
                let until = self.now_ms().saturating_add(Cluster::COOLDOWN.as_millis() as u64);
                peer.down_until_ms.store(until, Ordering::Relaxed);
            }
        }
        res
    }

    fn try_forward(&self, index: usize, line: &str) -> io::Result<String> {
        let peer = &self.peers[index];
        if self.now_ms() < peer.down_until_ms.load(Ordering::Relaxed) {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "peer cooling down"));
        }
        let name = &self.ring.nodes()[index];
        let addr = name
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "peer did not resolve"))?;
        let stream = TcpStream::connect_timeout(&addr, Cluster::CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        let mut writer = stream.try_clone()?;
        writer.write_all(Cluster::mark_forwarded(line).as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut resp = String::new();
        let n = BufReader::new(stream).read_line(&mut resp)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-relay"));
        }
        let resp = resp.trim_end();
        if resp.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty relay response"));
        }
        Ok(resp.to_string())
    }

    /// Counts one request that arrived already `"fwd":true`-marked.
    pub fn count_forwarded_in(&self) {
        self.forwarded_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests received pre-forwarded.
    pub fn forwarded_in(&self) -> u64 {
        self.forwarded_in.load(Ordering::Relaxed)
    }

    /// Per-peer `(routed, forwarded, forward_errors, hits)` (testing and
    /// reconciliation).
    pub fn peer_counts(&self, index: usize) -> (u64, u64, u64, u64) {
        let p = &self.peers[index];
        (
            p.routed.load(Ordering::Relaxed),
            p.forwarded.load(Ordering::Relaxed),
            p.forward_errors.load(Ordering::Relaxed),
            p.hits.load(Ordering::Relaxed),
        )
    }

    /// The `cluster-stats` result payload (`mbb-cluster-stats/1`), one
    /// compact JSON object.
    pub fn stats_json(&self) -> String {
        use std::fmt::Write as _;
        let self_name = self.self_index.map(|i| self.ring.nodes()[i].as_str()).unwrap_or("");
        let mut o = String::with_capacity(256);
        let _ = write!(
            o,
            "{{\"schema\":\"mbb-cluster-stats/1\",\"self\":{},\"nodes\":{},\"forwarded_in\":{},\"peers\":[",
            Json::Str(self_name.to_string()).render_compact(),
            self.ring.len(),
            self.forwarded_in()
        );
        let now = self.now_ms();
        for (i, name) in self.ring.nodes().iter().enumerate() {
            let (routed, forwarded, forward_errors, hits) = self.peer_counts(i);
            let down = now < self.peers[i].down_until_ms.load(Ordering::Relaxed);
            let _ = write!(
                o,
                "{}{{\"name\":{},\"self\":{},\"routed\":{routed},\"forwarded\":{forwarded},\"forward_errors\":{forward_errors},\"hits\":{hits},\"down\":{down}}}",
                if i == 0 { "" } else { "," },
                Json::Str(name.clone()).render_compact(),
                Some(i) == self.self_index,
            );
        }
        o.push_str("]}");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    #[test]
    fn single_node_routes_everything_local() {
        let c = Cluster::single(Duration::from_secs(1));
        assert!(!c.is_tier());
        for key in [0u64, 1, u64::MAX] {
            assert_eq!(c.route(key), Route::Local);
        }
        let stats = Json::parse(&c.stats_json()).unwrap();
        assert_eq!(stats.get("nodes"), Some(&Json::UInt(0)));
    }

    #[test]
    fn advertise_must_be_a_member() {
        let err = match Cluster::new(&["a:1", "b:1"], "c:1", Duration::from_secs(1)) {
            Err(e) => e,
            Ok(_) => panic!("a non-member advertise must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn routing_counts_the_owner_and_stats_reconcile() {
        let c = Cluster::new(&["a:1", "b:1", "c:1"], "b:1", Duration::from_secs(1)).unwrap();
        assert!(c.is_tier());
        let mut local = 0u64;
        let mut remote = 0u64;
        for i in 0..512u64 {
            let key = mbb_core::canon::fnv1a(format!("k{i}").as_bytes());
            match c.route(key) {
                Route::Local => local += 1,
                Route::Peer(p) => {
                    assert_ne!(Some(p), c.self_index());
                    remote += 1;
                }
            }
        }
        assert!(local > 0 && remote > 0, "local={local} remote={remote}");
        let self_idx = c.self_index().unwrap();
        assert_eq!(c.peer_counts(self_idx).0, local);
        let routed_sum: u64 = (0..3).map(|i| c.peer_counts(i).0).sum();
        assert_eq!(routed_sum, local + remote);
        let stats = Json::parse(&c.stats_json()).unwrap();
        assert_eq!(stats.get("self").and_then(Json::as_str), Some("b:1"));
        let peers = match stats.get("peers") {
            Some(Json::Arr(a)) => a,
            other => panic!("peers: {other:?}"),
        };
        let json_sum: u64 = peers
            .iter()
            .map(|p| match p.get("routed") {
                Some(Json::UInt(n)) => *n,
                other => panic!("routed: {other:?}"),
            })
            .sum();
        assert_eq!(json_sum, local + remote);
    }

    #[test]
    fn forwarding_relays_bytes_and_counts_a_hit() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(conn.try_clone().unwrap()).read_line(&mut line).unwrap();
            assert!(line.starts_with("{\"fwd\":true,"), "missing marker: {line}");
            let mut conn = conn;
            conn.write_all(b"{\"ok\":true,\"cached\":true,\"result\":{}}\n").unwrap();
        });
        let me = "127.0.0.1:1"; // never dialled
        let c = Cluster::new(&[me, peer_addr.as_str()], me, Duration::from_secs(2)).unwrap();
        let idx = c.peer_names().iter().position(|n| n == &peer_addr).unwrap();
        let resp = c.forward(idx, "{\"kind\":\"report\",\"program\":\"x\"}").unwrap();
        assert_eq!(resp, "{\"ok\":true,\"cached\":true,\"result\":{}}");
        let (_, forwarded, errors, hits) = c.peer_counts(idx);
        assert_eq!((forwarded, errors, hits), (1, 0, 1));
        server.join().unwrap();
    }

    #[test]
    fn dead_peer_opens_the_breaker_and_fails_fast() {
        // Bind a port and drop the listener so the address refuses.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let me = "127.0.0.1:1";
        let c = Cluster::new(&[me, dead.as_str()], me, Duration::from_secs(1)).unwrap();
        let idx = c.peer_names().iter().position(|n| n == &dead).unwrap();
        assert!(c.forward(idx, "{\"kind\":\"health\"}").is_err());
        let start = Instant::now();
        let second = c.forward(idx, "{\"kind\":\"health\"}");
        assert!(second.is_err());
        assert!(
            start.elapsed() < Cluster::CONNECT_TIMEOUT,
            "breaker should fail fast, took {:?}",
            start.elapsed()
        );
        let (_, forwarded, errors, _) = c.peer_counts(idx);
        assert_eq!(forwarded, 0);
        assert_eq!(errors, 2);
        let stats = c.stats_json();
        assert!(stats.contains("\"down\":true"), "{stats}");
    }

    #[test]
    fn mark_forwarded_splices_after_the_opening_brace() {
        assert_eq!(
            Cluster::mark_forwarded("{\"kind\":\"report\",\"program\":\"x\"}"),
            "{\"fwd\":true,\"kind\":\"report\",\"program\":\"x\"}"
        );
    }
}
