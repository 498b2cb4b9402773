//! Property tests: the polynomial Figure-5 min-cut algorithm agrees with
//! the exhaustive oracle on random hypergraphs, and its output is always a
//! valid separating cut.

use std::collections::BTreeSet;

use mbb_hypergraph::graph::{HyperEdge, Hypergraph};
use mbb_hypergraph::mincut::min_hyperedge_cut;
use mbb_hypergraph::oracle::exact_min_cut_weight;
use proptest::prelude::*;

/// Strategy: a random hypergraph with `n ∈ [2, 8]` nodes and up to 10
/// hyperedges of 1–4 pins with weights 1–5.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..=8).prop_flat_map(|n| {
        let edge = (proptest::collection::btree_set(0..n, 1..=4usize.min(n)), 1u64..=5);
        proptest::collection::vec(edge, 0..10).prop_map(move |edges| {
            let mut hg = Hypergraph::new(n);
            for (pins, w) in edges {
                hg.add_edge(HyperEdge::weighted(pins, w));
            }
            hg
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The polynomial algorithm's cut weight equals the exhaustive optimum.
    #[test]
    fn mincut_is_optimal(hg in arb_hypergraph()) {
        let s = 0;
        let t = hg.num_nodes - 1;
        prop_assume!(s != t);
        let cut = min_hyperedge_cut(&hg, s, t);
        let oracle = exact_min_cut_weight(&hg, s, t);
        prop_assert_eq!(cut.cut_weight, oracle);
    }

    /// The returned edge set really disconnects s from t, and the weight
    /// bookkeeping matches the edge list.
    #[test]
    fn mincut_is_a_valid_cut(hg in arb_hypergraph()) {
        let s = 0;
        let t = hg.num_nodes - 1;
        prop_assume!(s != t);
        let cut = min_hyperedge_cut(&hg, s, t);
        let removed: BTreeSet<usize> = cut.cut_edges.iter().copied().collect();
        prop_assert!(!hg.connected(s, t, &removed));
        let w: u64 = cut.cut_edges.iter().map(|&e| hg.edges[e].weight).sum();
        prop_assert_eq!(w, cut.cut_weight);
        // Partitions are a disjoint cover with s and t separated.
        prop_assert!(cut.side_s.contains(&s));
        prop_assert!(cut.side_t.contains(&t));
        prop_assert!(cut.side_s.is_disjoint(&cut.side_t));
        prop_assert_eq!(cut.side_s.len() + cut.side_t.len(), hg.num_nodes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Edmonds–Karp certifies its own answer on random directed networks:
    /// the residual-reachable set excludes the sink, and the arcs leaving
    /// it have an original capacity equal to the flow value.  A flow and
    /// an s–t cut of equal value are both optimal.
    #[test]
    fn max_flow_equals_its_residual_cut(
        n in 2usize..10,
        arcs in proptest::collection::vec((0usize..10, 0usize..10, 1u64..20), 1..40),
    ) {
        use mbb_hypergraph::maxflow::FlowNetwork;
        let mut net = FlowNetwork::new(n);
        let mut cap = std::collections::HashMap::new();
        for &(u, v, c) in &arcs {
            let (u, v) = (u % n, v % n);
            if u != v {
                cap.insert(net.add_arc(u, v, c), c);
            }
        }
        let flow = net.max_flow(0, n - 1);
        prop_assert!(!net.residual_reachable(0)[n - 1]);
        let cut: u64 = net.min_cut_arcs(0).iter().map(|(arc, _, _)| cap[arc]).sum();
        prop_assert_eq!(cut, flow);
    }
}
