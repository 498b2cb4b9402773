//! Bandwidth-minimal loop fusion (§3.1) and the edge-weighted baseline.
//!
//! The paper's formulation (Problem 3.1/3.2): partition the loops of a
//! program into an ordered sequence of fusible groups so that the **sum
//! over groups of the number of distinct arrays** each group touches is
//! minimal — because, with arrays too large for cross-group cache reuse,
//! every distinct array in a group is loaded from memory once per group.
//!
//! * [`two_partition_min_bandwidth`] — the polynomial case: two partitions
//!   induced by one fusion-preventing pair.  Data sharing is modelled with
//!   one *hyperedge per array*; dependences are enforced with the §3.1.2
//!   weight-`N` edge triples; the optimum is a minimal hyperedge cut
//!   (Figure 5, via `mbb-hypergraph`).
//! * [`exhaustive_min_bandwidth`] / [`exhaustive_min_edge_weighted`] —
//!   exact optima by enumerating legal partitionings (programs of at most
//!   [`EXHAUSTIVE_MAX_NESTS`] nests; the general problem is NP-complete,
//!   §3.1.3).  These reproduce the Figure-4 comparison: the edge-weighted
//!   optimum (Gao et al., Kennedy–McKinley) does *not* minimise memory
//!   transfer.
//! * [`greedy_fusion`] — a polynomial heuristic for the multi-partition
//!   case: repeatedly merge the legal group pair sharing the most arrays.
//! * [`recursive_bisection_fusion`] — the §4 heuristic for the same case:
//!   split every group holding a preventing pair with the minimal cut.
//!
//! Two utilities serve every strategy here and the search in
//! `mbb-search`: [`for_each_partition`] is the one walk over the set
//! partitions of the nests, and [`reorder_topologically`] the one
//! dependence order of a partition's groups.  Costs are computed by
//! [`total_distinct_arrays`] (the paper's objective) and
//! [`cross_partition_edge_weight`] (the classical objective), so every
//! strategy can be scored under both.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use mbb_hypergraph::graph::{HyperEdge, Hypergraph};
use mbb_hypergraph::mincut::min_hyperedge_cut;
use mbb_ir::deps::{dependences, fusion_legal, nest_access};
use mbb_ir::program::{ArrayId, Program};

use crate::transform::{fuse_nests, FuseError};

/// The fusion graph of a program: per-nest array sets, dependence edges and
/// fusion-preventing pairs (explicit constraints plus every pair the
/// pairwise legality analysis rejects).
#[derive(Clone, Debug)]
pub struct FusionGraph {
    /// Number of nests (graph nodes).
    pub n: usize,
    /// Arrays touched by each nest.
    pub arrays_of: Vec<BTreeSet<ArrayId>>,
    /// Dependence edges `(src, dst)`, `src < dst`.
    pub deps: Vec<(usize, usize)>,
    /// Non-fusible pairs `(a, b)`, `a < b`.
    pub preventing: BTreeSet<(usize, usize)>,
}

/// Builds the fusion graph of a program.
pub fn build_fusion_graph(prog: &Program) -> FusionGraph {
    let n = prog.nests.len();
    let arrays_of = prog.nests.iter().map(|nest| nest_access(nest).arrays_touched()).collect();
    let deps = dependences(prog).edges.iter().map(|e| (e.src, e.dst)).collect();
    let mut preventing = BTreeSet::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if fusion_legal(prog, a, b).is_err() {
                preventing.insert((a, b));
            }
        }
    }
    FusionGraph { n, arrays_of, deps, preventing }
}

impl FusionGraph {
    /// Shared-array count between two nests — the edge weight of the
    /// classical (Gao et al. / Kennedy–McKinley) fusion formulation.
    pub fn edge_weight(&self, a: usize, b: usize) -> u64 {
        self.arrays_of[a].intersection(&self.arrays_of[b]).count() as u64
    }

    /// True if the pair may share a group.
    pub fn fusible(&self, a: usize, b: usize) -> bool {
        let key = (a.min(b), a.max(b));
        !self.preventing.contains(&key)
    }

    /// The first fusion-preventing pair `(a, b)`, `a < b`, inside `group`.
    fn prevented_pair(&self, group: &[usize]) -> Option<(usize, usize)> {
        group.iter().enumerate().find_map(|(i, &a)| {
            let b = group[i + 1..].iter().copied().find(|&b| !self.fusible(a, b))?;
            Some((a.min(b), a.max(b)))
        })
    }
}

/// An ordered sequence of fusible groups (nest indices).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Partitioning {
    /// Groups in execution order; within a group, indices ascend.
    pub groups: Vec<Vec<usize>>,
}

impl Partitioning {
    /// The single-group partitioning (fuse everything); no groups when
    /// there are no nests.
    pub fn all_fused(n: usize) -> Self {
        if n == 0 {
            return Partitioning { groups: Vec::new() };
        }
        Partitioning { groups: vec![(0..n).collect()] }
    }

    /// The identity partitioning (no fusion), one group per nest.
    pub fn unfused(n: usize) -> Self {
        Partitioning { groups: (0..n).map(|k| vec![k]).collect() }
    }

    /// Group index of each nest.
    pub fn group_of(&self, n: usize) -> Vec<usize> {
        group_index(&self.groups, n)
    }
}

/// Group index of each of `n` nests among `groups`; `usize::MAX` for a
/// nest in none.
fn group_index(groups: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut g = vec![usize::MAX; n];
    for (gi, group) in groups.iter().enumerate() {
        for &k in group {
            g[k] = gi;
        }
    }
    g
}

/// Why a partitioning is illegal for a fusion graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PartitionError {
    /// Not a partition of `0..n`.
    NotAPartition,
    /// A fusion-preventing pair shares a group.
    PreventedPair(usize, usize),
    /// A dependence flows backwards across the sequence.
    BackwardDependence(usize, usize),
}

/// Checks the paper's correctness criteria (Problem 3.1) for a
/// partitioning: every node in exactly one group, no fusion-preventing pair
/// within a group, dependences only from earlier to later groups.
pub fn check_legal(graph: &FusionGraph, p: &Partitioning) -> Result<(), PartitionError> {
    let mut seen = vec![false; graph.n];
    for g in &p.groups {
        for &k in g {
            if k >= graph.n || seen[k] {
                return Err(PartitionError::NotAPartition);
            }
            seen[k] = true;
        }
        if let Some((a, b)) = graph.prevented_pair(g) {
            return Err(PartitionError::PreventedPair(a, b));
        }
    }
    if !seen.iter().all(|&s| s) {
        return Err(PartitionError::NotAPartition);
    }
    let group_of = p.group_of(graph.n);
    for &(src, dst) in &graph.deps {
        if group_of[src] > group_of[dst] {
            return Err(PartitionError::BackwardDependence(src, dst));
        }
    }
    Ok(())
}

/// The paper's objective: total number of distinct arrays over all groups
/// (equals total array loads from memory when arrays exceed the cache).
pub fn total_distinct_arrays(graph: &FusionGraph, p: &Partitioning) -> u64 {
    p.groups
        .iter()
        .map(|g| {
            let mut set: BTreeSet<ArrayId> = BTreeSet::new();
            for &k in g {
                set.extend(&graph.arrays_of[k]);
            }
            set.len() as u64
        })
        .sum()
}

/// The classical objective: total shared-array weight on nest pairs split
/// across different groups (what Gao et al. / Kennedy–McKinley minimise).
pub fn cross_partition_edge_weight(graph: &FusionGraph, p: &Partitioning) -> u64 {
    let group_of = p.group_of(graph.n);
    let mut total = 0;
    for a in 0..graph.n {
        for b in (a + 1)..graph.n {
            if group_of[a] != group_of[b] {
                total += graph.edge_weight(a, b);
            }
        }
    }
    total
}

/// The §3.1.2 hypergraph of a fusion graph: one unit-weight hyperedge per
/// array over the nests touching it, plus, per dependence `src → dst`, the
/// three weight-`N` enforcement edges `{s, src}`, `{src, dst}`, `{dst, t}`
/// that make any dependence-violating cut non-minimal.
pub fn fusion_hypergraph(graph: &FusionGraph, s: usize, t: usize) -> Hypergraph {
    let mut all_arrays: BTreeSet<ArrayId> = BTreeSet::new();
    for set in &graph.arrays_of {
        all_arrays.extend(set);
    }
    let heavy = all_arrays.len() as u64 + 1;
    let mut hg = Hypergraph::new(graph.n);
    for &arr in &all_arrays {
        let pins: Vec<usize> =
            (0..graph.n).filter(|&k| graph.arrays_of[k].contains(&arr)).collect();
        hg.add_edge(HyperEdge::weighted(pins, 1));
    }
    for &(src, dst) in &graph.deps {
        // A dependence between the terminals themselves is already decided
        // by the partition order; edges between a terminal and itself would
        // be degenerate.
        hg.add_edge(HyperEdge::weighted([s, src], heavy));
        hg.add_edge(HyperEdge::weighted([src, dst], heavy));
        hg.add_edge(HyperEdge::weighted([dst, t], heavy));
    }
    hg
}

/// The polynomial two-partitioning algorithm: given the fusion-preventing
/// pair `(s, t)` (with `s`'s group executing first), returns the
/// bandwidth-minimal legal two-partitioning and its total-distinct-arrays
/// cost.
///
/// Returns `Err` if no legal two-partitioning exists (e.g. a group ends up
/// containing another fusion-preventing pair).
pub fn two_partition_min_bandwidth(
    graph: &FusionGraph,
    s: usize,
    t: usize,
) -> Result<(Partitioning, u64), PartitionError> {
    // Every legal partitioning cuts exactly one `heavy` edge per
    // dependence; any violation cuts more, so a legal minimum survives
    // whenever one exists.
    let cut = min_hyperedge_cut(&fusion_hypergraph(graph, s, t), s, t);
    let mut first: Vec<usize> = cut.side_s.iter().copied().collect();
    let mut second: Vec<usize> = cut.side_t.iter().copied().collect();
    first.sort_unstable();
    second.sort_unstable();
    let p = Partitioning { groups: vec![first, second] };
    check_legal(graph, &p)?;
    let cost = total_distinct_arrays(graph, &p);
    Ok((p, cost))
}

/// The most nests the exhaustive solvers accept: Bell(12) = 4,213,597
/// partitions, a few seconds of enumeration.
pub const EXHAUSTIVE_MAX_NESTS: usize = 12;

/// Visits every set partition of `0..n` once, in restricted-growth order:
/// each node joins every existing group in turn, then opens a new one.
/// Members ascend within a group and groups are listed by first member.
/// Only the partition being visited exists at any time, so the walk over
/// Bell(n) partitions needs O(n) memory.  The walk ends early when
/// `visit` breaks.
pub fn for_each_partition(n: usize, mut visit: impl FnMut(&[Vec<usize>]) -> ControlFlow<()>) {
    fn place<F: FnMut(&[Vec<usize>]) -> ControlFlow<()>>(
        node: usize,
        n: usize,
        groups: &mut Vec<Vec<usize>>,
        visit: &mut F,
    ) -> ControlFlow<()> {
        if node == n {
            return visit(groups);
        }
        for g in 0..groups.len() {
            groups[g].push(node);
            let flow = place(node + 1, n, groups, visit);
            groups[g].pop();
            flow?;
        }
        groups.push(vec![node]);
        let flow = place(node + 1, n, groups, visit);
        groups.pop();
        flow
    }
    let _ = place(0, n, &mut Vec::new(), &mut visit);
}

/// Partitions the exhaustive walk visits between two polls of the
/// installed execution budget.
const BUDGET_POLL: u32 = 4096;

/// Walks every partitioning of a fusion graph of at most
/// [`EXHAUSTIVE_MAX_NESTS`] nests and returns the first legal one of
/// minimal `cost`, its groups in dependence order.
///
/// Every [`BUDGET_POLL`] partitions the walk polls the thread's
/// [`mbb_ir::budget`], and stops once it is spent (a request's deadline
/// passed): it then returns the best partitioning seen, or the unfused
/// one, and the request fails at its next budget check.  Without a
/// budget the walk is never stopped.
fn exhaustive_best(
    graph: &FusionGraph,
    cost: impl Fn(&FusionGraph, &Partitioning) -> u64,
) -> (Partitioning, u64) {
    assert!(graph.n <= EXHAUSTIVE_MAX_NESTS, "exhaustive search is exponential; too many nests");
    let mut best: Option<(Partitioning, u64)> = None;
    let mut until_poll = BUDGET_POLL;
    for_each_partition(graph.n, |groups| {
        until_poll -= 1;
        if until_poll == 0 {
            until_poll = BUDGET_POLL;
            if mbb_ir::budget::exhausted() {
                return ControlFlow::Break(());
            }
        }
        // A group holding a preventing pair is illegal in any order, so it
        // is rejected before the groups are ordered.
        if groups.iter().any(|g| graph.prevented_pair(g).is_some()) {
            return ControlFlow::Continue(());
        }
        if let Some(p) = reorder_topologically(graph, groups) {
            let c = cost(graph, &p);
            if best.as_ref().is_none_or(|&(_, bc)| c < bc) {
                best = Some((p, c));
            }
        }
        ControlFlow::Continue(())
    });
    // A complete walk always sees the unfused partitioning, which is legal.
    best.unwrap_or_else(|| {
        let p = Partitioning::unfused(graph.n);
        let c = cost(graph, &p);
        (p, c)
    })
}

/// Exact bandwidth-minimal fusion for small programs (exhaustive).
pub fn exhaustive_min_bandwidth(graph: &FusionGraph) -> (Partitioning, u64) {
    exhaustive_best(graph, total_distinct_arrays)
}

/// Exact edge-weighted fusion (the Gao et al. / Kennedy–McKinley objective)
/// for small programs (exhaustive).  Reported cost is the cross-partition
/// edge weight.
pub fn exhaustive_min_edge_weighted(graph: &FusionGraph) -> (Partitioning, u64) {
    exhaustive_best(graph, cross_partition_edge_weight)
}

/// Polynomial greedy heuristic for the NP-complete multi-partition case:
/// start unfused (program order) and repeatedly merge the legal group pair
/// with the largest shared-array benefit, until no merge helps.
pub fn greedy_fusion(graph: &FusionGraph) -> Partitioning {
    let mut p = Partitioning::unfused(graph.n);
    loop {
        let mut best: Option<(u64, Partitioning)> = None;
        for gi in 0..p.groups.len() {
            for gj in (gi + 1)..p.groups.len() {
                // Benefit of merging: arrays counted twice today that would
                // be counted once.
                let set_i: BTreeSet<ArrayId> =
                    p.groups[gi].iter().flat_map(|&k| graph.arrays_of[k].iter().copied()).collect();
                let set_j: BTreeSet<ArrayId> =
                    p.groups[gj].iter().flat_map(|&k| graph.arrays_of[k].iter().copied()).collect();
                let benefit = set_i.intersection(&set_j).count() as u64;
                if benefit == 0 {
                    continue;
                }
                // Candidate merge must be legal.
                let Some(candidate) = merge_groups(graph, &p.groups, gi, gj) else {
                    continue;
                };
                if check_legal(graph, &candidate).is_ok()
                    && best.as_ref().is_none_or(|(b, _)| benefit > *b)
                {
                    best = Some((benefit, candidate));
                }
            }
        }
        let Some((_, merged)) = best else { break };
        p = merged;
    }
    p
}

/// `groups` with group `gj` merged into group `gi < gj`, in dependence
/// order; `None` when the merge closes a dependence cycle.
fn merge_groups(
    graph: &FusionGraph,
    groups: &[Vec<usize>],
    gi: usize,
    gj: usize,
) -> Option<Partitioning> {
    let mut merged = groups.to_vec();
    let moved = merged.remove(gj);
    merged[gi].extend(moved);
    merged[gi].sort_unstable();
    reorder_topologically(graph, &merged)
}

/// The paper's §4 suggestion: Kennedy–McKinley's recursive-bisection
/// heuristic for the NP-complete multi-partition case, with the bisection
/// performed by *this paper's* hyperedge minimal cut instead of the
/// classical edge cut.
///
/// The fusion-preventing pairs are processed one at a time: for each pair
/// still sharing a group, the group is bisected by
/// [`two_partition_min_bandwidth`] restricted to that group's subgraph.
/// Terminates after at most one bisection per preventing pair.
pub fn recursive_bisection_fusion(graph: &FusionGraph) -> Partitioning {
    // Start fully fused; split until every preventing pair is separated.
    let mut groups = Partitioning::all_fused(graph.n).groups;
    let preventing: Vec<(usize, usize)> = graph.preventing.iter().copied().collect();
    while let Some((&(s, t), gi)) = preventing.iter().find_map(|p| {
        groups.iter().position(|g| g.contains(&p.0) && g.contains(&p.1)).map(|gi| (p, gi))
    }) {
        // Build the subgraph over this group's nodes.
        let members = groups[gi].clone();
        let index_of: BTreeMap<usize, usize> =
            members.iter().enumerate().map(|(k, &n)| (n, k)).collect();
        let sub = FusionGraph {
            n: members.len(),
            arrays_of: members.iter().map(|&m| graph.arrays_of[m].clone()).collect(),
            deps: graph
                .deps
                .iter()
                .filter_map(|&(a, b)| Some((*index_of.get(&a)?, *index_of.get(&b)?)))
                .collect(),
            preventing: graph
                .preventing
                .iter()
                .filter_map(|&(a, b)| {
                    let (x, y) = (*index_of.get(&a)?, *index_of.get(&b)?);
                    Some((x.min(y), x.max(y)))
                })
                .collect(),
        };
        let (ls, lt) = (index_of[&s], index_of[&t]);
        let halves = match two_partition_min_bandwidth(&sub, ls, lt) {
            Ok((p, _)) => p.groups,
            // The min-cut bisection can be illegal when the subgraph holds
            // further constraints; fall back to isolating `s`.
            Err(_) => {
                let rest: Vec<usize> = (0..sub.n).filter(|&k| k != ls).collect();
                vec![vec![ls], rest]
            }
        };
        let replacement: Vec<Vec<usize>> = halves
            .into_iter()
            .map(|half| {
                let mut g: Vec<usize> = half.into_iter().map(|k| members[k]).collect();
                g.sort_unstable();
                g
            })
            .filter(|g| !g.is_empty())
            .collect();
        groups.splice(gi..=gi, replacement);
    }
    // The sequence must respect dependences; a topological reorder
    // restores a legal order, and any residual illegality (possible with
    // pathological constraint sets) falls back to no fusion at all.
    match reorder_topologically(graph, &groups) {
        Some(p) if check_legal(graph, &p).is_ok() => p,
        _ => Partitioning::unfused(graph.n),
    }
}

/// Orders `groups`, a partition of the graph's nests, into a
/// dependence-respecting sequence: of the groups whose predecessors are
/// all placed, the one with the smallest member goes next.  The order
/// depends only on the set of groups, never on how they are listed, so an
/// ordered partitioning is its own fixed point.  `None` when the groups'
/// dependences form a cycle.
pub fn reorder_topologically(graph: &FusionGraph, groups: &[Vec<usize>]) -> Option<Partitioning> {
    let k = groups.len();
    let group_of = group_index(groups, graph.n);
    let mut succ = vec![BTreeSet::new(); k];
    let mut indeg = vec![0usize; k];
    for &(s, d) in &graph.deps {
        let (gs, gd) = (group_of[s], group_of[d]);
        if gs != gd && succ[gs].insert(gd) {
            indeg[gd] += 1;
        }
    }
    let smallest = |g: usize| groups[g].iter().copied().min().unwrap_or(0);
    let mut order = Vec::with_capacity(k);
    let mut ready: BTreeSet<(usize, usize)> =
        (0..k).filter(|&g| indeg[g] == 0).map(|g| (smallest(g), g)).collect();
    while let Some((_, g)) = ready.pop_first() {
        order.push(g);
        for &nx in &succ[g] {
            indeg[nx] -= 1;
            if indeg[nx] == 0 {
                ready.insert((smallest(nx), nx));
            }
        }
    }
    if order.len() != k {
        return None;
    }
    Some(Partitioning { groups: order.into_iter().map(|g| groups[g].clone()).collect() })
}

/// Applies a partitioning to the program (delegates to
/// [`crate::transform::fuse_nests`]).
pub fn apply(prog: &Program, p: &Partitioning) -> Result<Program, FuseError> {
    fuse_nests(prog, &p.groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 4 as a bare fusion graph (no IR needed): six
    /// loops, arrays A–F, one fusion-preventing pair (5,6) [0-indexed:
    /// (4,5)], and the dependence loop5 → loop6.
    pub fn figure4_graph() -> FusionGraph {
        let arr = |k: u32| ArrayId(k); // A=0, B=1, C=2, D=3, E=4, F=5
        let set = |ids: &[u32]| -> BTreeSet<ArrayId> { ids.iter().map(|&k| arr(k)).collect() };
        FusionGraph {
            n: 6,
            arrays_of: vec![
                set(&[0, 3, 4, 5]),    // loop 1: A, D, E, F
                set(&[0, 3, 4, 5]),    // loop 2
                set(&[0, 3, 4, 5]),    // loop 3
                set(&[1, 2, 3, 4, 5]), // loop 4: B, C, D, E, F
                set(&[0]),             // loop 5: A
                set(&[1, 2]),          // loop 6: B, C
            ],
            deps: vec![(4, 5)],
            preventing: BTreeSet::from([(4, 5)]),
        }
    }

    #[test]
    fn figure4_unfused_costs_20() {
        let g = figure4_graph();
        let p = Partitioning::unfused(6);
        assert_eq!(total_distinct_arrays(&g, &p), 20);
    }

    #[test]
    fn figure4_bandwidth_minimal_costs_7() {
        // Paper: "The optimal fusion leaves loop 5 alone and fuses all other
        // loops … the total memory transfer is reduced from 20 arrays to 7."
        let g = figure4_graph();
        let (p, cost) = exhaustive_min_bandwidth(&g);
        assert_eq!(cost, 7);
        // Loop 5 (index 4) is alone.
        let alone: Vec<_> = p.groups.iter().filter(|grp| grp.len() == 1).collect();
        assert!(alone.iter().any(|grp| grp[0] == 4), "loop 5 isolated: {p:?}");
    }

    #[test]
    fn figure4_two_partition_matches_exhaustive() {
        let g = figure4_graph();
        let (p, cost) = two_partition_min_bandwidth(&g, 4, 5).unwrap();
        assert_eq!(cost, 7);
        assert_eq!(p.groups[0], vec![4]);
        assert_eq!(p.groups[1], vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn figure4_edge_weighted_optimum_is_worse() {
        // Paper: the edge-weighted optimum fuses loops 1–5 and leaves loop 6
        // alone (cross weight 2), but that partitioning loads 8 arrays; the
        // bandwidth-minimal one loads 7 yet has cross weight 3.
        let g = figure4_graph();
        let (p_ew, w_ew) = exhaustive_min_edge_weighted(&g);
        assert_eq!(w_ew, 2);
        let arrays_of_ew = total_distinct_arrays(&g, &p_ew);
        assert_eq!(arrays_of_ew, 8);

        let (p_bw, cost_bw) = exhaustive_min_bandwidth(&g);
        assert_eq!(cost_bw, 7);
        assert_eq!(cross_partition_edge_weight(&g, &p_bw), 3);
        assert!(arrays_of_ew > cost_bw, "edge-weighted fusion does not minimise bandwidth");
    }

    #[test]
    fn dependence_violating_cut_rejected() {
        // s = 0 writes x; t = 1 reads x; dep 0 → 1 and preventing (0,1):
        // only legal order puts 0 first.
        let g = FusionGraph {
            n: 2,
            arrays_of: vec![BTreeSet::from([ArrayId(0)]), BTreeSet::from([ArrayId(0)])],
            deps: vec![(0, 1)],
            preventing: BTreeSet::from([(0, 1)]),
        };
        let (p, cost) = two_partition_min_bandwidth(&g, 0, 1).unwrap();
        assert_eq!(p.groups, vec![vec![0], vec![1]]);
        assert_eq!(cost, 2);
    }

    #[test]
    fn dependence_pulls_node_to_correct_side() {
        // Nodes: 0=s, 1=t, 2=middle. Arrays: {0,2} and {2,1} (so 2 is torn).
        // A dependence 2 → 0 means 2 must not land after 0's group... with
        // s first, node 2 in the second group would put dep src after dst.
        let g = FusionGraph {
            n: 3,
            arrays_of: vec![
                BTreeSet::from([ArrayId(0)]),
                BTreeSet::from([ArrayId(1)]),
                BTreeSet::from([ArrayId(0), ArrayId(1)]),
            ],
            deps: vec![(2, 0)],
            preventing: BTreeSet::from([(0, 1)]),
        };
        let (p, _) = two_partition_min_bandwidth(&g, 0, 1).unwrap();
        // Node 2 must be in the first group (with s) despite equal array
        // pull from both sides.
        assert!(p.groups[0].contains(&2), "{p:?}");
        assert!(check_legal(&g, &p).is_ok());
    }

    #[test]
    fn greedy_on_figure4_is_legal_and_good() {
        let g = figure4_graph();
        let p = greedy_fusion(&g);
        check_legal(&g, &p).unwrap();
        let cost = total_distinct_arrays(&g, &p);
        assert!(cost <= 8, "greedy should get close to 7, got {cost}");
    }

    #[test]
    fn the_walk_visits_every_set_partition_once_in_first_member_order() {
        const BELL: [usize; 9] = [1, 1, 2, 5, 15, 52, 203, 877, 4140];
        for (n, &bell) in BELL.iter().enumerate() {
            let mut visited = Vec::new();
            for_each_partition(n, |groups| {
                let mut members = groups.concat();
                members.sort_unstable();
                assert_eq!(members, (0..n).collect::<Vec<_>>(), "not a partition: {groups:?}");
                assert!(groups.iter().all(|g| g.windows(2).all(|w| w[0] < w[1])), "{groups:?}");
                assert!(groups.windows(2).all(|w| w[0][0] < w[1][0]), "{groups:?}");
                visited.push(groups.to_vec());
                ControlFlow::Continue(())
            });
            let distinct: BTreeSet<_> = visited.iter().collect();
            assert_eq!((visited.len(), distinct.len()), (bell, bell), "n = {n}");
            // Restricted-growth order: everything fused first, nothing last.
            if n > 0 {
                assert_eq!(visited.first(), Some(&Partitioning::all_fused(n).groups));
                assert_eq!(visited.last(), Some(&Partitioning::unfused(n).groups));
            }
        }
    }

    #[test]
    fn the_group_order_depends_only_on_the_groups() {
        let g = figure4_graph();
        let ordered = vec![vec![0, 1, 2, 3], vec![4], vec![5]];
        for listed in [vec![vec![5], vec![4], vec![0, 1, 2, 3]], ordered.clone()] {
            let p = reorder_topologically(&g, &listed).unwrap();
            assert_eq!(p.groups, ordered);
        }
        // 0 → 1 → 2 with 0 and 2 in one group is a cycle.
        let chain = FusionGraph {
            n: 3,
            arrays_of: vec![BTreeSet::new(); 3],
            deps: vec![(0, 1), (1, 2)],
            preventing: BTreeSet::new(),
        };
        assert_eq!(reorder_topologically(&chain, &[vec![0, 2], vec![1]]), None);
    }

    #[test]
    fn exhaustive_lists_independent_groups_in_program_order() {
        // Three nests, no shared array, none fusible: only the unfused
        // partitioning is legal, and it keeps the program's order.
        let g = FusionGraph {
            n: 3,
            arrays_of: (0..3).map(|k| BTreeSet::from([ArrayId(k)])).collect(),
            deps: vec![],
            preventing: BTreeSet::from([(0, 1), (0, 2), (1, 2)]),
        };
        let (p, cost) = exhaustive_min_bandwidth(&g);
        assert_eq!((p, cost), (Partitioning::unfused(3), 3));
    }

    #[test]
    fn check_legal_detects_errors() {
        let g = figure4_graph();
        // Prevented pair together.
        let bad = Partitioning { groups: vec![vec![0, 1, 2, 3, 4, 5]] };
        assert_eq!(check_legal(&g, &bad), Err(PartitionError::PreventedPair(4, 5)));
        // Backward dependence.
        let bad2 = Partitioning { groups: vec![vec![5], vec![0, 1, 2, 3, 4]] };
        assert_eq!(check_legal(&g, &bad2), Err(PartitionError::BackwardDependence(4, 5)));
        // Missing node.
        let bad3 = Partitioning { groups: vec![vec![0, 1, 2]] };
        assert_eq!(check_legal(&g, &bad3), Err(PartitionError::NotAPartition));
    }

    #[test]
    fn costs_on_trivial_graph() {
        let g = FusionGraph {
            n: 2,
            arrays_of: vec![BTreeSet::from([ArrayId(0)]), BTreeSet::from([ArrayId(0)])],
            deps: vec![],
            preventing: BTreeSet::new(),
        };
        assert_eq!(total_distinct_arrays(&g, &Partitioning::unfused(2)), 2);
        assert_eq!(total_distinct_arrays(&g, &Partitioning::all_fused(2)), 1);
        assert_eq!(cross_partition_edge_weight(&g, &Partitioning::unfused(2)), 1);
        assert_eq!(cross_partition_edge_weight(&g, &Partitioning::all_fused(2)), 0);
    }
}

#[cfg(test)]
mod bisection_tests {
    use super::*;
    use tests::figure4_graph;

    #[test]
    fn bisection_solves_figure4_optimally() {
        let g = figure4_graph();
        let p = recursive_bisection_fusion(&g);
        check_legal(&g, &p).unwrap();
        assert_eq!(total_distinct_arrays(&g, &p), 7, "{p:?}");
    }

    #[test]
    fn bisection_with_no_constraints_fuses_everything() {
        let g = FusionGraph {
            n: 4,
            arrays_of: (0..4).map(|_| BTreeSet::from([ArrayId(0)])).collect(),
            deps: vec![(0, 1)],
            preventing: BTreeSet::new(),
        };
        let p = recursive_bisection_fusion(&g);
        assert_eq!(p.groups.len(), 1);
        assert_eq!(total_distinct_arrays(&g, &p), 1);
    }

    #[test]
    fn bisection_separates_chained_constraints() {
        // Three mutually non-fusible reductions force three partitions.
        let g = FusionGraph {
            n: 3,
            arrays_of: (0..3).map(|k| BTreeSet::from([ArrayId(k)])).collect(),
            deps: vec![(0, 1), (1, 2)],
            preventing: BTreeSet::from([(0, 1), (1, 2), (0, 2)]),
        };
        let p = recursive_bisection_fusion(&g);
        check_legal(&g, &p).unwrap();
        assert_eq!(p.groups.len(), 3);
    }

    #[test]
    fn bisection_never_beats_the_exhaustive_optimum() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let n = rng.gen_range(2..7);
            let arrays = rng.gen_range(1..5u32);
            let g = FusionGraph {
                n,
                arrays_of: (0..n)
                    .map(|_| (0..arrays).filter(|_| rng.gen_bool(0.5)).map(ArrayId).collect())
                    .collect(),
                deps: (0..n)
                    .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                    .filter(|_| rng.gen_bool(0.2))
                    .collect(),
                preventing: (0..n)
                    .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                    .filter(|_| rng.gen_bool(0.25))
                    .collect(),
            };
            let p = recursive_bisection_fusion(&g);
            check_legal(&g, &p).unwrap();
            let (_, best) = exhaustive_min_bandwidth(&g);
            let got = total_distinct_arrays(&g, &p);
            assert!(got >= best, "heuristic {got} below optimum {best}?!");
        }
    }
}
