//! The paper's Figure-5 algorithm: minimal hyperedge cut between two nodes.
//!
//! Steps, exactly as the paper gives them:
//!
//! 1. Convert the hypergraph into its **intersection graph**: one node per
//!    hyperedge, an (undirected) edge when two hyperedges overlap, plus new
//!    end nodes `s'` and `t'` adjacent to the hyperedges containing `s`/`t`.
//!    A minimal set of hyperedges disconnecting `s` from `t` is a minimal
//!    *vertex* cut between `s'` and `t'` in this graph.
//! 2. Find the minimal vertex cut by the standard construction: split each
//!    node `v` into `v_in → v_out` with capacity = the hyperedge's weight,
//!    make undirected adjacencies infinite arcs, and run Ford–Fulkerson
//!    (Edmonds–Karp here) from `s'` to `t'`.
//! 3. Map the saturated split arcs back to hyperedges and read off the two
//!    partitions by connectivity.

use std::collections::BTreeSet;

use crate::graph::Hypergraph;
use crate::maxflow::{FlowNetwork, INF};

/// A minimal two-partitioning.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CutResult {
    /// Indices of the cut hyperedges (the arrays reloaded across the
    /// partition boundary, in the fusion application).
    pub cut_edges: Vec<usize>,
    /// Total weight of the cut.
    pub cut_weight: u64,
    /// Nodes connected to `s` once the cut edges are removed.
    pub side_s: BTreeSet<usize>,
    /// All remaining nodes (contains `t`).
    pub side_t: BTreeSet<usize>,
}

/// Minimal hyperedge cut separating node `s` from node `t`.
///
/// ```
/// use mbb_hypergraph::graph::Hypergraph;
/// use mbb_hypergraph::mincut::min_hyperedge_cut;
///
/// // A path 0 —e0— 1 —e1— 2: one edge suffices to split the ends.
/// let mut hg = Hypergraph::new(3);
/// hg.add_unit([0, 1]);
/// hg.add_unit([1, 2]);
/// let cut = min_hyperedge_cut(&hg, 0, 2);
/// assert_eq!(cut.cut_weight, 1);
/// ```
///
/// # Panics
/// Panics if `s == t` or either is out of range.
pub fn min_hyperedge_cut(hg: &Hypergraph, s: usize, t: usize) -> CutResult {
    assert!(s < hg.num_nodes && t < hg.num_nodes, "terminal out of range");
    assert_ne!(s, t, "the terminals must be distinct");

    let ne = hg.edges.len();
    // Flow-network node ids: hyperedge e → (2e, 2e+1); then s', t'.
    let sp = 2 * ne;
    let tp = 2 * ne + 1;
    let mut net = FlowNetwork::new(2 * ne + 2);
    // Split arcs carry the hyperedge weights.
    for (e, edge) in hg.edges.iter().enumerate() {
        net.add_arc(2 * e, 2 * e + 1, edge.weight);
    }
    // Intersection adjacencies: infinite capacity both ways.
    for e1 in 0..ne {
        for e2 in (e1 + 1)..ne {
            if hg.edges[e1].overlaps(&hg.edges[e2]) {
                net.add_arc(2 * e1 + 1, 2 * e2, INF);
                net.add_arc(2 * e2 + 1, 2 * e1, INF);
            }
        }
    }
    // End nodes.
    for (e, edge) in hg.edges.iter().enumerate() {
        if edge.contains(s) {
            net.add_arc(sp, 2 * e, INF);
        }
        if edge.contains(t) {
            net.add_arc(2 * e + 1, tp, INF);
        }
    }

    let cut_weight = net.max_flow(sp, tp);
    let reach = net.residual_reachable(sp);
    // A hyperedge is cut when its split arc crosses the residual frontier.
    let cut_edges: Vec<usize> = (0..ne).filter(|&e| reach[2 * e] && !reach[2 * e + 1]).collect();
    debug_assert_eq!(
        cut_edges.iter().map(|&e| hg.edges[e].weight).sum::<u64>(),
        cut_weight,
        "cut weight must equal the max-flow value"
    );

    let removed: BTreeSet<usize> = cut_edges.iter().copied().collect();
    let side_s = hg.component(s, &removed);
    let side_t: BTreeSet<usize> = (0..hg.num_nodes).filter(|n| !side_s.contains(n)).collect();
    debug_assert!(side_t.contains(&t), "cut must separate");
    CutResult { cut_edges, cut_weight, side_s, side_t }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::graph::HyperEdge;

    /// The paper's Figure 4 as a hypergraph: nodes are the six loops,
    /// hyperedges are the arrays.
    ///   loops 1,2,3 touch {A, D, E, F}; loop 4 touches {B, C, D, E, F};
    ///   loop 5 touches {A}; loop 6 touches {B, C}.
    /// (Nodes 0-indexed: loop k is node k−1.)
    pub fn figure4() -> Hypergraph {
        let mut hg = Hypergraph::new(6);
        hg.add_unit([0, 1, 2, 4]); // A: loops 1,2,3 and 5
        hg.add_unit([3, 5]); // B: loops 4 and 6
        hg.add_unit([3, 5]); // C: loops 4 and 6
        hg.add_unit([0, 1, 2, 3]); // D
        hg.add_unit([0, 1, 2, 3]); // E
        hg.add_unit([0, 1, 2, 3]); // F
        hg
    }

    #[test]
    fn figure4_min_cut_between_5_and_6() {
        // Loops 5 and 6 cannot fuse; the minimal cut between them is array
        // A alone (weight 1): partition { loop 5 } | { 1,2,3,4,6 }, total
        // memory transfer 1 + 6 = 7 arrays as the paper reports.
        let hg = figure4();
        let cut = min_hyperedge_cut(&hg, 4, 5);
        assert_eq!(cut.cut_weight, 1);
        assert_eq!(cut.cut_edges, vec![0]); // array A
        assert_eq!(cut.side_s, BTreeSet::from([4]));
        assert_eq!(cut.side_t, BTreeSet::from([0, 1, 2, 3, 5]));
    }

    #[test]
    fn disconnected_nodes_need_no_cut() {
        let mut hg = Hypergraph::new(4);
        hg.add_unit([0, 1]);
        hg.add_unit([2, 3]);
        let cut = min_hyperedge_cut(&hg, 0, 3);
        assert_eq!(cut.cut_weight, 0);
        assert!(cut.cut_edges.is_empty());
        assert_eq!(cut.side_s, BTreeSet::from([0, 1]));
    }

    #[test]
    fn shared_edge_between_terminals_must_be_cut() {
        let mut hg = Hypergraph::new(2);
        hg.add_edge(HyperEdge::weighted([0, 1], 5));
        let cut = min_hyperedge_cut(&hg, 0, 1);
        assert_eq!(cut.cut_weight, 5);
        assert_eq!(cut.cut_edges, vec![0]);
    }

    #[test]
    fn chooses_light_edge_over_heavy() {
        // s —(w=10)— m —(w=1)— t : cut the light edge.
        let mut hg = Hypergraph::new(3);
        hg.add_edge(HyperEdge::weighted([0, 1], 10));
        let light = hg.add_edge(HyperEdge::weighted([1, 2], 1));
        let cut = min_hyperedge_cut(&hg, 0, 2);
        assert_eq!(cut.cut_weight, 1);
        assert_eq!(cut.cut_edges, vec![light]);
        assert_eq!(cut.side_s, BTreeSet::from([0, 1]));
    }

    #[test]
    fn wide_hyperedge_counts_once() {
        // One hyperedge connecting s to three middle nodes, each of which
        // connects to t by its own edge: cutting the single wide edge (the
        // aggregation the paper's edge-weighted baseline gets wrong) costs
        // 1, cutting the three parallel edges costs 3.
        let mut hg = Hypergraph::new(5);
        let wide = hg.add_unit([0, 1, 2, 3]);
        hg.add_unit([1, 4]);
        hg.add_unit([2, 4]);
        hg.add_unit([3, 4]);
        let cut = min_hyperedge_cut(&hg, 0, 4);
        assert_eq!(cut.cut_weight, 1);
        assert_eq!(cut.cut_edges, vec![wide]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn overlapping_terminals_panic() {
        let hg = Hypergraph::new(2);
        let _ = min_hyperedge_cut(&hg, 0, 0);
    }
}
