//! The consistent-hash ring behind the shard tier.
//!
//! N server instances form a cache-coherent tier by agreeing, from
//! configuration alone, on which node *owns* every content-address: each
//! node hashes the same `--peers` list through the same
//! [`mbb_core::canon::fnv1a`] and therefore builds bit-identical rings, so
//! a request for key `k` routes to the same owner no matter which node the
//! client happened to connect to.  Ownership is where the cache entry
//! lives — one miss per unique key across the whole tier.
//!
//! Classic consistent hashing with virtual nodes: every peer contributes
//! [`Ring::VNODES`] points (`fnv1a("<name>\0<replica>")` pushed through
//! SplitMix64's finaliser [`mix64`] — raw FNV of short, similar names
//! clusters badly in the high bits that decide ring position) to a sorted
//! circle, and a key is owned by the first point clockwise from the key's
//! own position.
//! Virtual nodes smooth the per-peer load to within a few percent of
//! uniform, and — the property the tier leans on — adding or removing one
//! peer of N only reassigns the arcs that touch that peer's points, about
//! `1/N` of the key space, so a node joining or dying does not stampede
//! the whole tier's caches (the `ring_props` proptest pins a ≤ `2/N`
//! bound).
//!
//! The ring is deliberately *static* per process: membership is the
//! `--peers` flag, identical on every node.  Liveness is handled one
//! layer up ([`crate::cluster`]) by falling back to local computation
//! when a peer is down — the ring never reshuffles at runtime, which is
//! what keeps "who owns key `k`" a pure function of configuration.

use mbb_core::canon::fnv1a;
use mbb_obs::mix64;

/// A consistent-hash ring over named peers.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point, node index)` sorted by point; empty for a 0/1-node ring.
    points: Vec<(u64, usize)>,
    /// Node names, sorted and deduplicated — index space for `points`.
    nodes: Vec<String>,
}

impl Ring {
    /// Virtual nodes per peer.  64 keeps the max/min per-peer key share
    /// within ~2× at 3 nodes while the whole 3-node ring stays under 4 KiB.
    pub const VNODES: usize = 64;

    /// Builds the ring for `nodes`.  Order and duplicates in the input do
    /// not matter: names are sorted and deduplicated first, so every tier
    /// member constructs the identical ring from the identical flag value.
    pub fn new<S: AsRef<str>>(nodes: &[S]) -> Ring {
        let mut names: Vec<String> = nodes.iter().map(|s| s.as_ref().to_string()).collect();
        names.sort_unstable();
        names.dedup();
        let mut points = Vec::new();
        if names.len() > 1 {
            points.reserve(names.len() * Ring::VNODES);
            for (idx, name) in names.iter().enumerate() {
                for replica in 0..Ring::VNODES {
                    points.push((mix64(fnv1a(format!("{name}\0{replica}").as_bytes())), idx));
                }
            }
            points.sort_unstable();
            // FNV collisions across vnode labels are astronomically rare;
            // if one happens the sort makes the winner deterministic.
            points.dedup_by_key(|p| p.0);
        }
        Ring { points, nodes: names }
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty ring (no nodes at all).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node names, in index order (sorted).
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The index of `name`, if it is a member.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n == name)
    }

    /// The index of the node that owns `key`: the first ring point at or
    /// clockwise after the key's position.  With fewer than two nodes
    /// every key is owned by node 0 (or `None` on an empty ring).
    pub fn owner(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return if self.nodes.is_empty() { None } else { Some(0) };
        }
        let at = self.points.partition_point(|&(p, _)| p < key);
        let (_, idx) = self.points[at % self.points.len()];
        Some(idx)
    }

    /// The name of the node that owns `key`.
    pub fn owner_name(&self, key: u64) -> Option<&str> {
        self.owner(key).map(|i| self.nodes[i].as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = u64> {
        // Spread sample keys the way real cache keys are spread: hashed.
        (0..n).map(|i| fnv1a(format!("key-{i}").as_bytes()))
    }

    #[test]
    fn ring_is_deterministic_and_order_insensitive() {
        let a = Ring::new(&["n3:1", "n1:1", "n2:1"]);
        let b = Ring::new(&["n1:1", "n2:1", "n3:1", "n2:1"]);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.len(), 3);
        for k in keys(512) {
            assert_eq!(a.owner(k), b.owner(k), "key {k:#x}");
        }
    }

    #[test]
    fn degenerate_rings_route_everything_to_the_only_node() {
        let empty = Ring::new::<&str>(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.owner(42), None);
        let one = Ring::new(&["solo:1"]);
        assert_eq!(one.len(), 1);
        for k in keys(64) {
            assert_eq!(one.owner(k), Some(0));
            assert_eq!(one.owner_name(k), Some("solo:1"));
        }
    }

    #[test]
    fn load_spreads_over_every_node() {
        let ring = Ring::new(&["a:1", "b:1", "c:1"]);
        let mut counts = [0u64; 3];
        for k in keys(3000) {
            counts[ring.owner(k).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Each node owns a nontrivial share (uniform would be 1000).
            assert!(c > 300, "node {i} owns only {c}/3000 keys: {counts:?}");
        }
    }

    #[test]
    fn removing_one_node_moves_only_its_arcs() {
        let full = Ring::new(&["a:1", "b:1", "c:1", "d:1"]);
        let less = Ring::new(&["a:1", "b:1", "c:1"]);
        let total = 4000u64;
        let mut moved = 0u64;
        for k in keys(total) {
            let before = full.owner_name(k).unwrap();
            let after = less.owner_name(k).unwrap();
            if before != "d:1" {
                assert_eq!(before, after, "surviving arcs must not move: key {k:#x}");
            } else {
                moved += 1;
            }
        }
        // d owned roughly a quarter; the bound proptest pins is ≤ 2/N.
        assert!(moved <= total * 2 / 4, "{moved}/{total} keys moved");
        assert!(moved > 0, "d must have owned something");
    }

    #[test]
    fn ring_points_are_pinned() {
        // Nodes of every tier must agree on ownership, so a change to the
        // hash or the mixer that moves ring points must show up here.
        let ring = Ring::new(&["127.0.0.1:7461", "127.0.0.1:7462", "127.0.0.1:7463"]);
        let owners: String = (0..32u64)
            .map(|i| char::from(b'0' + ring.owner(i * (u64::MAX / 32)).unwrap() as u8))
            .collect();
        assert_eq!(owners, "01201021122000011202212002122000");
        assert_eq!(ring.points.len(), 3 * Ring::VNODES);
        assert_eq!(ring.points[0].0, 0x0093_60be_5369_3f30);
        assert_eq!(ring.points[ring.points.len() - 1].0, 0xfa84_a982_6acb_75c1);
    }

    #[test]
    fn index_of_round_trips() {
        let ring = Ring::new(&["b", "a"]);
        assert_eq!(ring.index_of("a"), Some(0));
        assert_eq!(ring.index_of("b"), Some(1));
        assert_eq!(ring.index_of("c"), None);
    }
}
