//! Weighted hypergraphs.

use std::collections::BTreeSet;

/// A hyperedge: a weighted set of node pins.
///
/// In the fusion application a hyperedge is an array and its pins are the
/// loops accessing it; the weight is 1 for ordinary arrays and a large `N`
/// for the §3.1.2 dependence-enforcement edges.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HyperEdge {
    /// The connected nodes (deduplicated, sorted).
    pub pins: Vec<usize>,
    /// The edge weight.
    pub weight: u64,
}

impl HyperEdge {
    /// A unit-weight hyperedge over `pins`.
    pub fn unit(pins: impl IntoIterator<Item = usize>) -> Self {
        Self::weighted(pins, 1)
    }

    /// A weighted hyperedge over `pins`.
    pub fn weighted(pins: impl IntoIterator<Item = usize>, weight: u64) -> Self {
        let set: BTreeSet<usize> = pins.into_iter().collect();
        HyperEdge { pins: set.into_iter().collect(), weight }
    }

    /// True if the hyperedge connects `node`.
    pub fn contains(&self, node: usize) -> bool {
        self.pins.binary_search(&node).is_ok()
    }

    /// True if the two hyperedges share at least one pin — the adjacency
    /// relation of the intersection graph in the paper's Figure 5.
    pub fn overlaps(&self, other: &HyperEdge) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.pins.len() && j < other.pins.len() {
            match self.pins[i].cmp(&other.pins[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// A hypergraph over nodes `0..num_nodes`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Hypergraph {
    /// Number of nodes.
    pub num_nodes: usize,
    /// The hyperedges.
    pub edges: Vec<HyperEdge>,
}

impl Hypergraph {
    /// An edgeless hypergraph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Hypergraph { num_nodes, edges: Vec::new() }
    }

    /// Adds a hyperedge, returning its index.
    ///
    /// # Panics
    /// Panics if a pin is out of range.
    pub fn add_edge(&mut self, e: HyperEdge) -> usize {
        assert!(e.pins.iter().all(|&p| p < self.num_nodes), "hyperedge pin out of range");
        self.edges.push(e);
        self.edges.len() - 1
    }

    /// Adds a unit-weight hyperedge, returning its index.
    pub fn add_unit(&mut self, pins: impl IntoIterator<Item = usize>) -> usize {
        self.add_edge(HyperEdge::unit(pins))
    }

    /// Total weight of all hyperedges.
    pub fn total_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// The set of nodes connected to `start` through hyperedges not in
    /// `removed` — the paper's path relation ("consecutive edges connect
    /// intersecting groups of nodes").
    pub fn component(&self, start: usize, removed: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut seen = BTreeSet::from([start]);
        let mut stack = vec![start];
        let mut used_edges = vec![false; self.edges.len()];
        while let Some(n) = stack.pop() {
            for (k, e) in self.edges.iter().enumerate() {
                if used_edges[k] || removed.contains(&k) || !e.contains(n) {
                    continue;
                }
                used_edges[k] = true;
                for &p in &e.pins {
                    if seen.insert(p) {
                        stack.push(p);
                    }
                }
            }
        }
        seen
    }

    /// True if `s` and `t` are connected after removing the given edges.
    pub fn connected(&self, s: usize, t: usize, removed: &BTreeSet<usize>) -> bool {
        self.component(s, removed).contains(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_normalisation() {
        let e = HyperEdge::unit([3, 1, 2, 1]);
        assert_eq!(e.pins, vec![1, 2, 3]);
        assert!(e.contains(2));
        assert!(!e.contains(0));
    }

    #[test]
    fn overlap_detection() {
        let a = HyperEdge::unit([0, 1, 2]);
        let b = HyperEdge::unit([2, 3]);
        let c = HyperEdge::unit([4, 5]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!b.overlaps(&c));
    }

    #[test]
    fn connectivity_through_hyperedges() {
        let mut hg = Hypergraph::new(5);
        let e0 = hg.add_unit([0, 1]);
        hg.add_unit([1, 2, 3]);
        assert!(hg.connected(0, 3, &BTreeSet::new()));
        assert!(!hg.connected(0, 4, &BTreeSet::new()));
        // Removing e0 disconnects 0 from the rest.
        assert!(!hg.connected(0, 3, &BTreeSet::from([e0])));
    }

    #[test]
    fn component_of_isolated_node() {
        let hg = Hypergraph::new(3);
        assert_eq!(hg.component(2, &BTreeSet::new()), BTreeSet::from([2]));
    }

    #[test]
    #[should_panic(expected = "pin out of range")]
    fn pin_bounds_checked() {
        let mut hg = Hypergraph::new(2);
        hg.add_unit([0, 5]);
    }

    #[test]
    fn total_weight_sums_the_edges() {
        let mut hg = Hypergraph::new(4);
        hg.add_edge(HyperEdge::weighted([0, 1], 3));
        hg.add_unit([1, 2]);
        assert_eq!(hg.total_weight(), 4);
    }
}
