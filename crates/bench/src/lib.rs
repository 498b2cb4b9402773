//! # mbb-bench — reproduction harness
//!
//! Shared table-formatting and experiment plumbing for the `repro` binary
//! and the Criterion benches.  Each paper table/figure has one generator
//! function here ([`experiments`]) so the binary and the benches print
//! identical rows, and a declarative job registry plus a scoped-thread
//! worker pool to run them in parallel with deterministic output
//! ([`runner`]).  The [`perfgate`] module is the simulator's
//! perf-regression gate (`repro gate`), defending the hot path every
//! experiment runs on.
//!
//! Nothing outside the harness depends on this crate: the JSON value it
//! writes results with lives in `mbb-obs` and is re-exported here as
//! [`json`].

pub use mbb_obs::json;

pub mod experiments;
pub mod perfgate;
pub mod runner;
pub mod table;
