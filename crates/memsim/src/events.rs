//! The thread-local odometer of simulated access events.
//!
//! The experiment runner wants per-job throughput (events/second) without
//! threading a counter through every simulation entry point, and without a
//! shared atomic that parallel jobs would contend on.  Every demand access
//! consumed by a [`crate::Hierarchy`] ticks the current thread's count in
//! the `mbb-obs` odometer — the same cell span attribution diffs — and a
//! job runner reads [`so_far`] before and after a job **on the thread
//! that executes it** and subtracts.
//!
//! Counts only ever grow (wrapping at `u64::MAX`, i.e. never in practice),
//! so deltas are race-free within a thread by construction.

pub use mbb_obs::accesses as so_far;
