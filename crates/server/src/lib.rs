//! `mbb-server` — the concurrent bandwidth-analysis service.
//!
//! Exposes the whole pipeline — §2 balance reports, §4 advice, the §3
//! optimisation pipeline, trace statistics and the machine catalogue —
//! over a newline-delimited JSON protocol (`mbb-serve/1`, see
//! [`protocol`]), with:
//!
//! * an event-driven connection layer — a readiness loop over
//!   nonblocking sockets ([`poll`]) feeds a request-granular queue, so
//!   idle keep-alive connections cost zero threads and a single
//!   connection may pipeline many in-flight requests ([`server`]);
//! * a bounded worker pool and explicit request-queue depth, shedding
//!   load with structured busy responses instead of hanging;
//! * a sharded content-addressed result cache with single-flight
//!   computes, so identical requests simulate once and return
//!   bit-identical bytes ([`cache`]);
//! * horizontal scale: N instances agree on a consistent-hash [`ring`]
//!   over the content-address and forward each request to its owning
//!   shard ([`cluster`]), forming a cache-coherent tier;
//! * live counters and log-2 latency histograms in Prometheus text
//!   exposition format ([`metrics`]);
//! * graceful drain on a `shutdown` admin request or idle timeout.
//!
//! The analysis entry points themselves live in [`analysis`] and are
//! shared with `mbbc` (which also fronts this crate as `mbbc serve`), so
//! the service's responses are byte-identical to the CLI's deterministic
//! output.  [`client`] is a blocking reference client.
//!
//! Robustness: every request runs under an optional execution [budget]
//! (step quota + wall deadline, structured `deadline_exceeded` on
//! overrun), handler panics are caught and answered with a structured
//! `internal` error instead of killing the worker, and the [`faults`]
//! module injects deterministic, seeded failures for the chaos test
//! suite.
//!
//! [budget]: mbb_ir::budget

pub mod analysis;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod error;
pub mod faults;
pub mod metrics;
pub mod overload;
pub mod poll;
pub mod protocol;
pub mod ring;
pub mod server;
mod sync;

pub use error::{ErrorKind, ServeError};
pub use server::{serve, Config, Handle};
