//! # mbb-core — the paper's contribution
//!
//! Ding & Kennedy's IPPS 2000 paper contributes a bandwidth-based
//! performance model and three compiler transformations.  This crate is
//! both, built on the `mbb-ir` program representation, the `mbb-memsim`
//! simulator and the `mbb-hypergraph` minimal-cut machinery:
//!
//! * [`balance`] — program balance (bytes per flop demanded on every
//!   memory-hierarchy channel), machine balance (bytes per flop supplied),
//!   demand/supply ratios and the CPU-utilisation bound (§2, Figures 1–2);
//! * [`fusion`] — bandwidth-minimal loop fusion: the hypergraph
//!   formulation, the polynomial two-partitioning algorithm, heuristics for
//!   the NP-complete multi-partition case, and the classical edge-weighted
//!   formulation of Gao et al. / Kennedy–McKinley as the baseline the paper
//!   argues against (§3.1);
//! * [`transform`] — the IR-level fusion transformation (plus loop peeling
//!   for alignment);
//! * [`storage`] — storage reduction: array peeling and array shrinking
//!   (contraction to modular buffers or scalars), §3.2 / Figure 6;
//! * [`stores`] — store elimination: removal of memory writebacks whose
//!   values are consumed in-iteration and never needed again, §3.3 /
//!   Figures 7–8;
//! * [`spec`] — the one transformation language: a [`spec::Move`]
//!   sequence with a replayable text form, applied move by move;
//! * [`pipeline`] — the complete compiler strategy (fuse → shrink/peel →
//!   eliminate stores) as the spec it builds and applies, with dynamic
//!   equivalence verification.
//!
//! It is also the home of the content-addressing every cache above it
//! shares: [`canon`] builds the keys (and holds the workspace's one hash
//! and one mixer), and [`cache`] is the single-flight cache the server's
//! results and the search's scores are stored in.

pub mod advisor;
pub mod balance;
pub mod cache;
pub mod canon;
pub mod distribute;
pub mod embed;
pub mod expand;
pub mod fusion;
pub mod interchange;
pub mod mutate;
pub mod pipeline;
pub mod profile;
pub mod regroup;
pub mod spec;
pub mod storage;
pub mod stores;
pub mod transform;

pub use balance::{measure_program_balance, BalanceRatios, ProgramBalance};
pub use fusion::{build_fusion_graph, FusionGraph, Partitioning};
pub use pipeline::{optimize, verify_equivalent, OptimizeOptions, OptimizeOutcome};
