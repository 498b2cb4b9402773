//! # mbb-search — budget-bounded autotuning over the transformation space
//!
//! The paper's compiler applies one fixed strategy: normalize, fuse
//! (minimising bandwidth on the hypergraph), shrink storage, eliminate
//! stores.  That strategy is a single point in a larger space — other
//! fusion partitions, loop interchange orders, and transform subsets —
//! and the balance model that justifies it is also a *scoring function*
//! for any point in that space.  This crate closes the loop: a beam /
//! branch-and-bound search over replayable transformation sequences,
//! each candidate scored deterministically by the simulator's balance
//! model, pruned by the fusion oracles of [`mbb_core::fusion`] (whose
//! partition walk, group order and, from [`mbb_core::interchange`],
//! permutation enumerator it shares), metered by [`mbb_ir::budget`], and
//! memoised in a sharded single-flight score cache that concurrent
//! searches share.
//!
//! * [`cache`] — [`cache::ScoreCache`]: content-addressed scores keyed
//!   through [`mbb_core::canon`], honest-measurements-only;
//! * [`engine`] — [`engine::search`]: the beam search itself, seeded
//!   with the spec the fixed pipeline applied so it is never worse by
//!   construction, and returning a reproducible [`engine::SearchTrace`].
//!
//! Candidates are sequences of moves in [`mbb_core::spec`], the one
//! transformation language the pipeline, the search and the
//! `--pipeline` replay share.

pub mod cache;
pub mod engine;

pub use cache::{Score, ScoreCache};
pub use engine::{
    search, search_with_cache, ScoreView, SearchError, SearchOptions, SearchOutcome, SearchTrace,
};
