//! # mbb-memsim — an execution-driven memory-hierarchy simulator
//!
//! The paper measured program balance with MIPS R10000 hardware counters
//! and machine balance with STREAM and CacheBench on real machines.  This
//! crate is the substitute (see DESIGN.md): it consumes exact memory-access
//! traces (from the `mbb-ir` interpreter or from address-only native
//! kernels) and produces the same event counts a hardware counter would —
//!
//! * per-level cache hits, misses and writebacks ([`cache`], [`hierarchy`]),
//! * bytes moved on every channel of the hierarchy (registers↔L1, L1↔L2,
//!   L2↔memory),
//!
//! plus the machine side of the model:
//!
//! * published machine configurations for the paper's two platforms — SGI
//!   Origin2000 (R10K) and HP/Convex Exemplar (PA-8000) — and a synthetic
//!   "future machine" for scaling studies ([`machine`]),
//! * a roofline-style bottleneck timing model: execution time is set by the
//!   most-saturated channel, plus an exposed-latency term ([`timing`]),
//! * STREAM and CacheBench ports that run *against the simulator* to
//!   "measure" machine bandwidth exactly the way the paper did
//!   ([`stream`], [`cachebench`]),
//! * an address [`arena`], so address-only native (non-IR) kernels such
//!   as the FFT lay their buffers out as the interpreter lays out arrays.

pub mod arena;
pub mod cache;
pub mod cachebench;
pub mod events;
pub mod hierarchy;
pub mod machine;
pub mod stream;
pub mod timing;
pub mod tracefile;

pub use arena::Arena;
pub use cache::{Cache, CacheConfig, LevelStats, WritePolicy};
pub use hierarchy::{Hierarchy, TrafficReport};
pub use machine::MachineModel;
pub use timing::{effective_bandwidth_mbs, predict, Prediction};

// The whole simulation stack is shipped across threads by the parallel
// experiment runner (`mbb-bench`): one worker owns one simulation end to
// end.  Keep it `Send` — no `Rc`, no thread-affine interior mutability.
// (`Sync` is *not* required: workers never share a live simulation.)
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Hierarchy>();
    assert_send::<Cache>();
    assert_send::<MachineModel>();
    assert_send::<TrafficReport>();
    assert_send::<Arena>();
};
