//! Edmonds–Karp max-flow and minimal s–t edge cuts.
//!
//! The paper's Figure-5 algorithm names "the standard Ford-Fulkerson
//! method"; Edmonds–Karp (BFS augmenting paths) is the standard polynomial
//! instantiation and is what keeps the two-partitioning algorithm's
//! `O(V(E+V))` bound.

/// Capacity value treated as infinite.
pub const INF: u64 = u64::MAX / 4;

#[derive(Clone, Copy, Debug)]
struct Arc {
    to: usize,
    cap: u64,
    /// Index of the reverse arc in `arcs`.
    rev: usize,
}

/// A directed flow network with residual bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    /// Adjacency: arc indices per node.
    adj: Vec<Vec<usize>>,
    arcs: Vec<Arc>,
}

impl FlowNetwork {
    /// A network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork { adj: vec![Vec::new(); n], arcs: Vec::new() }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds a directed arc `from → to` with capacity `cap`, returning its
    /// index (the paired residual arc has capacity 0).
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u64) -> usize {
        let a = self.arcs.len();
        self.arcs.push(Arc { to, cap, rev: a + 1 });
        self.arcs.push(Arc { to: from, cap: 0, rev: a });
        self.adj[from].push(a);
        self.adj[to].push(a + 1);
        a
    }

    /// BFS over residual arcs; returns parent arc per node, or `None` when
    /// `t` is unreachable.
    fn bfs(&self, s: usize, t: usize) -> Option<Vec<usize>> {
        let mut parent_arc = vec![usize::MAX; self.len()];
        let mut visited = vec![false; self.len()];
        visited[s] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &ai in &self.adj[u] {
                let arc = self.arcs[ai];
                if arc.cap > 0 && !visited[arc.to] {
                    visited[arc.to] = true;
                    parent_arc[arc.to] = ai;
                    if arc.to == t {
                        return Some(parent_arc);
                    }
                    queue.push_back(arc.to);
                }
            }
        }
        None
    }

    /// Runs Edmonds–Karp from `s` to `t`, mutating the residual network;
    /// returns the max-flow value.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0u64;
        while let Some(parent_arc) = self.bfs(s, t) {
            // Find the bottleneck along the path.
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                let ai = parent_arc[v];
                bottleneck = bottleneck.min(self.arcs[ai].cap);
                v = self.arcs[self.arcs[ai].rev].to;
            }
            // Apply it.
            let mut v = t;
            while v != s {
                let ai = parent_arc[v];
                self.arcs[ai].cap -= bottleneck;
                let rev = self.arcs[ai].rev;
                self.arcs[rev].cap += bottleneck;
                v = self.arcs[rev].to;
            }
            flow += bottleneck;
        }
        flow
    }

    /// Nodes reachable from `s` in the residual network — the source side
    /// of the minimal cut after [`FlowNetwork::max_flow`] has run.
    pub fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut visited = vec![false; self.len()];
        visited[s] = true;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for &ai in &self.adj[u] {
                let arc = self.arcs[ai];
                if arc.cap > 0 && !visited[arc.to] {
                    visited[arc.to] = true;
                    stack.push(arc.to);
                }
            }
        }
        visited
    }

    /// The saturated forward arcs crossing from the residual-reachable set —
    /// the minimal s–t edge cut.  Returns `(arc_index, from, to)` triples
    /// using the indices returned by [`FlowNetwork::add_arc`].
    pub fn min_cut_arcs(&self, s: usize) -> Vec<(usize, usize, usize)> {
        let reach = self.residual_reachable(s);
        let mut cut = Vec::new();
        for (u, arcs) in self.adj.iter().enumerate() {
            if !reach[u] {
                continue;
            }
            for &ai in arcs {
                // Only original forward arcs (even indices).
                if ai % 2 != 0 {
                    continue;
                }
                let arc = self.arcs[ai];
                if !reach[arc.to] {
                    cut.push((ai, u, arc.to));
                }
            }
        }
        cut
    }
}

/// Convenience: builds nothing extra, runs max-flow on a clone, and returns
/// the flow value.
pub fn max_flow(net: &FlowNetwork, s: usize, t: usize) -> u64 {
    net.clone().max_flow(s, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_arc() {
        let mut n = FlowNetwork::new(2);
        n.add_arc(0, 1, 7);
        assert_eq!(n.max_flow(0, 1), 7);
    }

    #[test]
    fn parallel_paths_add() {
        let mut n = FlowNetwork::new(4);
        n.add_arc(0, 1, 3);
        n.add_arc(1, 3, 3);
        n.add_arc(0, 2, 4);
        n.add_arc(2, 3, 2);
        assert_eq!(n.max_flow(0, 3), 5);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure: max flow 23.
        let mut n = FlowNetwork::new(6);
        n.add_arc(0, 1, 16);
        n.add_arc(0, 2, 13);
        n.add_arc(1, 2, 10);
        n.add_arc(2, 1, 4);
        n.add_arc(1, 3, 12);
        n.add_arc(3, 2, 9);
        n.add_arc(2, 4, 14);
        n.add_arc(4, 3, 7);
        n.add_arc(3, 5, 20);
        n.add_arc(4, 5, 4);
        assert_eq!(n.max_flow(0, 5), 23);
    }

    #[test]
    fn requires_augmenting_through_residual() {
        // The classic case where flow must be rerouted via a reverse arc.
        let mut n = FlowNetwork::new(4);
        n.add_arc(0, 1, 1);
        n.add_arc(0, 2, 1);
        n.add_arc(1, 2, 1);
        n.add_arc(1, 3, 1);
        n.add_arc(2, 3, 1);
        assert_eq!(n.max_flow(0, 3), 2);
    }

    #[test]
    fn min_cut_matches_flow_value() {
        let mut n = FlowNetwork::new(4);
        n.add_arc(0, 1, 3);
        n.add_arc(1, 3, 1);
        n.add_arc(0, 2, 4);
        n.add_arc(2, 3, 2);
        let f = n.max_flow(0, 3);
        let cut = n.min_cut_arcs(0);
        // Max-flow = min-cut.
        let cut_cap: u64 = cut
            .iter()
            .map(|&(_, u, v)| {
                // Original capacities were 3,1,4,2 on arcs 0,2,4,6.
                match (u, v) {
                    (0, 1) => 3,
                    (1, 3) => 1,
                    (0, 2) => 4,
                    (2, 3) => 2,
                    _ => panic!("unexpected cut arc"),
                }
            })
            .sum();
        assert_eq!(f, 3);
        assert_eq!(cut_cap, f);
    }

    #[test]
    fn disconnected_gives_zero_flow() {
        let mut n = FlowNetwork::new(3);
        n.add_arc(0, 1, 5);
        assert_eq!(n.max_flow(0, 2), 0);
        assert!(n.min_cut_arcs(0).is_empty());
    }

    #[test]
    fn infinite_capacity_arcs_never_cut() {
        let mut n = FlowNetwork::new(4);
        n.add_arc(0, 1, INF);
        n.add_arc(1, 2, 2);
        n.add_arc(2, 3, INF);
        let f = n.max_flow(0, 3);
        assert_eq!(f, 2);
        let cut = n.min_cut_arcs(0);
        assert_eq!(cut.len(), 1);
        assert_eq!((cut[0].1, cut[0].2), (1, 2));
    }
}
