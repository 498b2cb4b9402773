//! # mbb-hypergraph — hypergraphs and minimal hyperedge cuts
//!
//! The paper models data sharing among loops with *hyper-edges*: one per
//! array, connecting every loop that accesses the array (§3.1.2).  A fusion
//! into two partitions is exactly a set of hyperedges whose removal
//! disconnects the two end loops, and the optimal fusion is a *minimal*
//! such cut.  This crate implements:
//!
//! * [`graph`] — the hypergraph type (weighted hyperedges) and connectivity;
//! * [`maxflow`] — Edmonds–Karp max-flow / min-cut on directed graphs;
//! * [`mincut`] — the paper's Figure-5 algorithm: convert the hypergraph to
//!   its intersection graph, find a minimal *vertex* cut by node splitting
//!   and max-flow, and map it back to a hyperedge cut plus the two
//!   partitions;
//! * [`reduction`] — the §3.1.3 NP-hardness reduction from k-way cut to
//!   bandwidth-minimal fusion, as executable code;
//! * [`oracle`] — exhaustive optima for small instances, used by the
//!   property tests to verify the polynomial algorithm and the reduction.
//!
//! The multi-partition case has one home, `mbb_core::fusion`: its
//! recursive bisection calls [`mincut`] for every split, and its greedy
//! merge and exhaustive lattice walk need no hypergraph.

pub mod graph;
pub mod maxflow;
pub mod mincut;
pub mod oracle;
pub mod reduction;

pub use graph::{HyperEdge, Hypergraph};
pub use maxflow::{max_flow, FlowNetwork};
pub use mincut::{min_hyperedge_cut, CutResult};
