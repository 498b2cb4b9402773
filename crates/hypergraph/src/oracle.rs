//! Exhaustive optima for small instances.
//!
//! A minimal s–t hyperedge cut equals the minimum, over all node
//! 2-partitions separating `s` from `t`, of the total weight of hyperedges
//! spanning both sides.  Enumerating the `2^(n−2)` partitions gives an
//! exact oracle for instances small enough, which the property tests use to
//! verify the polynomial Figure-5 algorithm.  The k-way generalisations
//! check the §3.1.3 reduction in [`crate::reduction`]: an optimal fusion of
//! the reduced instance costs the edge weight plus a minimal k-way cut.

use crate::graph::Hypergraph;

/// Exact minimal s–t cut weight by exhaustive 2-partition enumeration.
///
/// # Panics
/// Panics if the hypergraph has more than 24 nodes (2²² partitions), or if
/// `s == t`.
pub fn exact_min_cut_weight(hg: &Hypergraph, s: usize, t: usize) -> u64 {
    assert_ne!(s, t);
    assert!(hg.num_nodes <= 24, "oracle is exponential; instance too large");
    let others: Vec<usize> = (0..hg.num_nodes).filter(|&n| n != s && n != t).collect();
    let mut best = u64::MAX;
    for mask in 0..(1u32 << others.len()) {
        // side bit per node: true = s-side.
        let mut side = vec![false; hg.num_nodes];
        side[s] = true;
        for (k, &n) in others.iter().enumerate() {
            side[n] = mask & (1 << k) != 0;
        }
        let w: u64 = hg
            .edges
            .iter()
            .filter(|e| e.pins.iter().any(|&p| side[p]) && e.pins.iter().any(|&p| !side[p]))
            .map(|e| e.weight)
            .sum();
        best = best.min(w);
    }
    best
}

/// Exact minimal k-way cut weight: the minimum over all assignments of
/// non-terminal nodes to the `k` terminal groups of the total weight of
/// hyperedges spanning more than one group.
///
/// # Panics
/// Panics on instances with more than `k^(n−k) > 2²⁰` assignments.
pub fn exact_kway_cut_weight(hg: &Hypergraph, terminals: &[usize]) -> u64 {
    let k = terminals.len();
    assert!(k >= 1);
    let others: Vec<usize> = (0..hg.num_nodes).filter(|n| !terminals.contains(n)).collect();
    let assignments = (k as u64).checked_pow(others.len() as u32).expect("overflow");
    assert!(assignments <= 1 << 20, "oracle is exponential; instance too large");

    let mut group = vec![0usize; hg.num_nodes];
    for (g, &t) in terminals.iter().enumerate() {
        group[t] = g;
    }
    let mut best = u64::MAX;
    for mut code in 0..assignments {
        for &n in &others {
            group[n] = (code % k as u64) as usize;
            code /= k as u64;
        }
        let w: u64 = hg
            .edges
            .iter()
            .filter(|e| {
                let mut it = e.pins.iter();
                match it.next() {
                    None => false,
                    Some(&first) => it.any(|&p| group[p] != group[first]),
                }
            })
            .map(|e| e.weight)
            .sum();
        best = best.min(w);
    }
    best
}

/// Exact minimum, over the same k-group assignments, of the paper's
/// Problem-3.2 objective: the total *length* of all hyperedges (number of
/// groups each hyperedge touches).  Used to validate the §3.1.3 reduction:
/// for 2-pin hyperedges this equals `Σ weights + exact_kway_cut_weight`.
pub fn exact_fusion_total_length(hg: &Hypergraph, terminals: &[usize]) -> u64 {
    let k = terminals.len();
    let others: Vec<usize> = (0..hg.num_nodes).filter(|n| !terminals.contains(n)).collect();
    let assignments = (k as u64).checked_pow(others.len() as u32).expect("overflow");
    assert!(assignments <= 1 << 20, "oracle is exponential; instance too large");

    let mut group = vec![0usize; hg.num_nodes];
    for (g, &t) in terminals.iter().enumerate() {
        group[t] = g;
    }
    let mut best = u64::MAX;
    for mut code in 0..assignments {
        for &n in &others {
            group[n] = (code % k as u64) as usize;
            code /= k as u64;
        }
        let total: u64 = hg
            .edges
            .iter()
            .map(|e| {
                let mut touched = vec![false; k];
                for &p in &e.pins {
                    touched[group[p]] = true;
                }
                e.weight * touched.iter().filter(|&&t| t).count() as u64
            })
            .sum();
        best = best.min(total);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HyperEdge;
    use crate::mincut::min_hyperedge_cut;

    #[test]
    fn oracle_matches_simple_path() {
        let mut hg = Hypergraph::new(3);
        hg.add_edge(HyperEdge::weighted([0, 1], 2));
        hg.add_edge(HyperEdge::weighted([1, 2], 3));
        assert_eq!(exact_min_cut_weight(&hg, 0, 2), 2);
    }

    #[test]
    fn oracle_matches_mincut_on_figure4() {
        let hg = crate::mincut::tests::figure4();
        assert_eq!(exact_min_cut_weight(&hg, 4, 5), 1);
        assert_eq!(min_hyperedge_cut(&hg, 4, 5).cut_weight, 1);
    }

    #[test]
    fn kway_oracle_on_path() {
        let mut hg = Hypergraph::new(5);
        hg.add_edge(HyperEdge::weighted([0, 1], 1));
        hg.add_edge(HyperEdge::weighted([1, 2], 5));
        hg.add_edge(HyperEdge::weighted([2, 3], 1));
        hg.add_edge(HyperEdge::weighted([3, 4], 5));
        assert_eq!(exact_kway_cut_weight(&hg, &[0, 2, 4]), 2);
        // 2-way oracle agrees with the pairwise oracle.
        assert_eq!(exact_kway_cut_weight(&hg, &[0, 4]), 1);
        assert_eq!(exact_min_cut_weight(&hg, 0, 4), 1);
    }

    #[test]
    fn fusion_length_equals_edges_plus_cut_for_2pin_graphs() {
        let mut hg = Hypergraph::new(4);
        hg.add_unit([0, 1]);
        hg.add_unit([1, 2]);
        hg.add_unit([2, 3]);
        hg.add_unit([0, 3]);
        let terminals = [0, 2];
        let cut = exact_kway_cut_weight(&hg, &terminals);
        let length = exact_fusion_total_length(&hg, &terminals);
        assert_eq!(length, hg.total_weight() + cut);
    }
}
