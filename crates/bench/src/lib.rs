//! # mbb-bench — reproduction harness
//!
//! Experiment plumbing for the `repro` binary.  Each paper table/figure
//! has one generator function here ([`experiments`]), and a declarative
//! job registry plus a scoped-thread worker pool runs them in parallel
//! with deterministic output ([`runner`]).  The [`ablations`] module
//! prints the mechanism tables behind `repro ablations`, and the
//! [`perfgate`] module is the simulator's perf-regression gate
//! (`repro gate`), defending the hot path every experiment runs on.
//!
//! Nothing outside the harness depends on this crate: the JSON value it
//! writes results with lives in `mbb-obs` and is re-exported here as
//! [`json`].

pub use mbb_obs::json;

pub mod ablations;
pub mod experiments;
pub mod perfgate;
pub mod runner;
pub mod table;
