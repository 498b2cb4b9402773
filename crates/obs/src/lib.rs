//! # mbb-obs — hierarchical span observability
//!
//! A std-only tracing layer threaded through the whole stack: regions of
//! interest open a [`SpanGuard`] (`span!("interp")`), and while a
//! [`Collector`] is installed on the thread, closing a span yields an
//! *attributed* record — wall and on-CPU time plus the delta of a
//! thread-local odometer of simulation counters (accesses, per-level
//! bytes/misses/writebacks, memory traffic, TLB misses, flops) over
//! exactly that region.  `mbb-memsim` ticks the odometer from its
//! hierarchy walk; `mbb-ir` opens one span per loop nest; `mbb-core`
//! wraps transformation passes — so a profile decomposes a whole
//! analysis into the paper's per-nest, per-channel balance terms.
//!
//! This crate sits *below* `mbb-ir`/`mbb-memsim` in the dependency graph
//! (it depends on nothing), which is what lets both the interpreter and
//! the simulator tick into it without a cycle.  It is also the one home of
//! the std-only infrastructure every layer above shares: the [`json`]
//! value, parser and writers (the service's wire format and every
//! machine-readable report), the [`Meter`] around a measured region, the
//! [`chrometrace`] export of a [`Profile`], and the SplitMix64 mixer
//! ([`splitmix64`], [`mix64`]).
//!
//! ## Cost when disabled
//!
//! Two global flags gate everything, both read with one relaxed atomic
//! load:
//!
//! * [`timing_enabled`] — true while *any* collector exists.  A span site
//!   with no collector anywhere is one load and one branch: no clock
//!   read, no allocation.
//! * [`counters_enabled`] — true while a [`Mode::Full`] collector exists.
//!   Gates the per-event odometer ticks on the simulator hot path.  The
//!   one exception is the demand-access count ([`accesses`]), which is
//!   always on: one thread-local add per access, block or run.
//!
//! The `repro gate` perf budget is protected by exactly this property:
//! tracing is compiled in everywhere but costs ~one relaxed load per
//! site until someone collects.
//!
//! ## Attribution invariant
//!
//! Counter deltas are *inclusive* (a parent span's delta covers its
//! children), and the odometer is monotone within a thread, so for any
//! span the children's deltas plus the gap outside them partition the
//! parent's delta exactly — no double counting, no leakage.  The
//! span-correctness suites in `mbb-memsim` and `mbb-core` pin this down
//! against the real simulator.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub mod chrometrace;
pub mod json;
mod meter;
mod splitmix;

pub use meter::{mev_per_sec, Measure, Meter};
pub use splitmix::{mix64, splitmix64, GOLDEN_GAMMA};

/// Fixed capacity of the per-level counter rows.  Real hierarchies in
/// this repository have 2–3 channels; 8 leaves headroom for scaled
/// models while keeping the odometer a flat `Copy` block.
pub const MAX_CHANNELS: usize = 8;

// ---------------------------------------------------------------------------
// Enable flags
// ---------------------------------------------------------------------------

/// Live collectors anywhere in the process (any [`Mode`]).
static TIMING: AtomicU32 = AtomicU32::new(0);
/// Live [`Mode::Full`] collectors anywhere in the process.
static FULL: AtomicU32 = AtomicU32::new(0);
/// Monotonic collector identifier, used to pair guards with the
/// collector that was innermost when they opened.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// True while any collector is live: span sites should record.
/// One relaxed load — this is the *entire* cost of a span site when
/// nobody is collecting.
#[inline]
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed) != 0
}

/// True while a [`Mode::Full`] collector is live: odometer tick sites
/// (the simulator hot path) should count.  One relaxed load when idle.
#[inline]
pub fn counters_enabled() -> bool {
    FULL.load(Ordering::Relaxed) != 0
}

// ---------------------------------------------------------------------------
// The counter odometer
// ---------------------------------------------------------------------------

/// A snapshot (or delta) of the thread-local simulation odometer.
///
/// All fields only ever grow (wrapping, i.e. never in practice), so a
/// delta between two snapshots taken on one thread is race-free by
/// construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Demand accesses consumed by a hierarchy (always counted; see
    /// [`accesses`]).
    pub accesses: u64,
    /// Floating-point operations executed by the interpreter.
    pub flops: u64,
    /// Bytes entering each channel: index 0 is register↔L1 traffic, the
    /// highest used index is the memory channel.
    pub channel_bytes: [u64; MAX_CHANNELS],
    /// Demand misses per cache level.
    pub misses: [u64; MAX_CHANNELS],
    /// Dirty-line writebacks leaving each cache level.
    pub writebacks: [u64; MAX_CHANNELS],
    /// Bytes read from memory.
    pub mem_read_bytes: u64,
    /// Bytes written to memory.
    pub mem_write_bytes: u64,
    /// TLB misses.
    pub tlb_misses: u64,
}

impl Counters {
    /// The field-wise difference `self − earlier` (wrapping).
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        let mut out = Counters {
            accesses: self.accesses.wrapping_sub(earlier.accesses),
            flops: self.flops.wrapping_sub(earlier.flops),
            mem_read_bytes: self.mem_read_bytes.wrapping_sub(earlier.mem_read_bytes),
            mem_write_bytes: self.mem_write_bytes.wrapping_sub(earlier.mem_write_bytes),
            tlb_misses: self.tlb_misses.wrapping_sub(earlier.tlb_misses),
            ..Counters::default()
        };
        for k in 0..MAX_CHANNELS {
            out.channel_bytes[k] = self.channel_bytes[k].wrapping_sub(earlier.channel_bytes[k]);
            out.misses[k] = self.misses[k].wrapping_sub(earlier.misses[k]);
            out.writebacks[k] = self.writebacks[k].wrapping_sub(earlier.writebacks[k]);
        }
        out
    }

    /// Field-wise accumulation (for summing sibling spans).
    pub fn add(&mut self, other: &Counters) {
        self.accesses = self.accesses.wrapping_add(other.accesses);
        self.flops = self.flops.wrapping_add(other.flops);
        self.mem_read_bytes = self.mem_read_bytes.wrapping_add(other.mem_read_bytes);
        self.mem_write_bytes = self.mem_write_bytes.wrapping_add(other.mem_write_bytes);
        self.tlb_misses = self.tlb_misses.wrapping_add(other.tlb_misses);
        for k in 0..MAX_CHANNELS {
            self.channel_bytes[k] = self.channel_bytes[k].wrapping_add(other.channel_bytes[k]);
            self.misses[k] = self.misses[k].wrapping_add(other.misses[k]);
            self.writebacks[k] = self.writebacks[k].wrapping_add(other.writebacks[k]);
        }
    }

    /// Number of channels with any traffic (the hierarchy depth + 1 once
    /// a simulation ran).
    pub fn channels_used(&self) -> usize {
        (0..MAX_CHANNELS).rev().find(|&k| self.channel_bytes[k] != 0).map_or(0, |k| k + 1)
    }
}

/// Display names for `n` channels: the register channel first, `Mem`
/// last, `Lk↔Lk+1` between.
pub fn channel_names(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| {
            if k == 0 {
                "Reg↔L1".to_string()
            } else if k + 1 == n {
                "Mem".to_string()
            } else {
                format!("L{}↔L{}", k, k + 1)
            }
        })
        .collect()
}

struct Odometer {
    accesses: Cell<u64>,
    flops: Cell<u64>,
    mem_read_bytes: Cell<u64>,
    mem_write_bytes: Cell<u64>,
    tlb_misses: Cell<u64>,
    channel_bytes: [Cell<u64>; MAX_CHANNELS],
    misses: [Cell<u64>; MAX_CHANNELS],
    writebacks: [Cell<u64>; MAX_CHANNELS],
}

thread_local! {
    // `const`-initialised: no lazy-init check on the simulator hot path.
    static ODO: Odometer = const {
        Odometer {
            accesses: Cell::new(0),
            flops: Cell::new(0),
            mem_read_bytes: Cell::new(0),
            mem_write_bytes: Cell::new(0),
            tlb_misses: Cell::new(0),
            channel_bytes: [const { Cell::new(0) }; MAX_CHANNELS],
            misses: [const { Cell::new(0) }; MAX_CHANNELS],
            writebacks: [const { Cell::new(0) }; MAX_CHANNELS],
        }
    };
}

#[inline]
fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get().wrapping_add(n));
}

/// Reads the current thread's odometer.
pub fn snapshot() -> Counters {
    ODO.with(|o| Counters {
        accesses: o.accesses.get(),
        flops: o.flops.get(),
        mem_read_bytes: o.mem_read_bytes.get(),
        mem_write_bytes: o.mem_write_bytes.get(),
        tlb_misses: o.tlb_misses.get(),
        channel_bytes: std::array::from_fn(|k| o.channel_bytes[k].get()),
        misses: std::array::from_fn(|k| o.misses[k].get()),
        writebacks: std::array::from_fn(|k| o.writebacks[k].get()),
    })
}

/// Demand accesses simulated on this thread so far.  Unlike the other
/// odometer fields this count is always on: it is the events odometer
/// behind [`Meter`] and the experiment runner's per-job throughput, read
/// before and after a region **on the thread that runs it**.
pub fn accesses() -> u64 {
    ODO.with(|o| o.accesses.get())
}

/// Ticks `n` demand accesses (called by the `mbb-memsim` hierarchy once
/// per access, block or run).  Always counts: one thread-local add.
#[inline]
pub fn tick_accesses(n: u64) {
    ODO.with(|o| bump(&o.accesses, n));
}

// The remaining tick sites are gated on `counters_enabled` *inside* the
// callee so call sites in the simulator stay a plain function call; when
// disabled the inlined body is one relaxed load and a taken branch.

/// Ticks interpreter flops attributed to the current span.
#[inline]
pub fn add_flops(n: u64) {
    if counters_enabled() {
        ODO.with(|o| bump(&o.flops, n));
    }
}

/// Ticks bytes entering channel `level`.
#[inline]
pub fn tick_channel_bytes(level: usize, bytes: u64) {
    if counters_enabled() {
        ODO.with(|o| bump(&o.channel_bytes[level.min(MAX_CHANNELS - 1)], bytes));
    }
}

/// Ticks one demand miss at cache level `level`.
#[inline]
pub fn tick_miss(level: usize) {
    if counters_enabled() {
        ODO.with(|o| bump(&o.misses[level.min(MAX_CHANNELS - 1)], 1));
    }
}

/// Ticks one dirty-line writeback leaving cache level `level`.
#[inline]
pub fn tick_writeback(level: usize) {
    if counters_enabled() {
        ODO.with(|o| bump(&o.writebacks[level.min(MAX_CHANNELS - 1)], 1));
    }
}

/// Ticks bytes read from memory.
#[inline]
pub fn tick_mem_read(bytes: u64) {
    if counters_enabled() {
        ODO.with(|o| bump(&o.mem_read_bytes, bytes));
    }
}

/// Ticks bytes written to memory.
#[inline]
pub fn tick_mem_write(bytes: u64) {
    if counters_enabled() {
        ODO.with(|o| bump(&o.mem_write_bytes, bytes));
    }
}

/// Ticks one TLB miss.
#[inline]
pub fn tick_tlb_miss() {
    if counters_enabled() {
        ODO.with(|o| bump(&o.tlb_misses, 1));
    }
}

// ---------------------------------------------------------------------------
// On-CPU time
// ---------------------------------------------------------------------------

/// Time this thread has spent on-CPU, from the kernel's per-thread CPU
/// clock (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`): one syscall, exact to
/// the nanosecond for the running thread, including the slice it is in
/// now.  Unlike wall-clock it does not count time stolen by other
/// processes, which is what makes span CPU attribution (and the perf gate
/// that reads it through [`Meter`]) usable on busy shared runners.
/// `None` off Linux.
#[cfg(target_os = "linux")]
pub fn thread_on_cpu() -> Option<Duration> {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec, the only memory the call
    // writes; std already links the C library that defines it.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return None;
    }
    Some(Duration::new(u64::try_from(ts.tv_sec).ok()?, u32::try_from(ts.tv_nsec).ok()?))
}

/// Time this thread has spent on-CPU: `None` off Linux.
#[cfg(not(target_os = "linux"))]
pub fn thread_on_cpu() -> Option<Duration> {
    None
}

// ---------------------------------------------------------------------------
// Spans and collectors
// ---------------------------------------------------------------------------

/// What a collector records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Span wall/CPU timing only: the odometer stays off, so the
    /// simulator hot path pays nothing beyond its disabled-check loads.
    Timing,
    /// Timing plus attributed counter deltas (turns the odometer on
    /// process-wide for the collector's lifetime).
    Full,
}

/// One closed span: where it sat in the hierarchy, how long it took, and
/// what the odometer moved while it was open.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name (`"interp"`, `"nest:update"`, …).
    pub name: String,
    /// Index of the enclosing span in [`Profile::spans`], if any.
    pub parent: Option<usize>,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Wall-clock offset of the open from the collector's start.
    pub start_ns: u64,
    /// Wall-clock duration.
    pub wall_ns: u64,
    /// On-CPU duration, where the platform exposes it.
    pub cpu_ns: Option<u64>,
    /// Inclusive odometer delta over the span (children included).
    pub delta: Counters,
}

/// A finished collection: every span closed on the collecting thread, in
/// open (pre-)order, plus whole-collection timing.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Closed spans in open order (parents before children).
    pub spans: Vec<SpanRecord>,
    /// Wall-clock from [`collect`] to [`Collector::finish`].
    pub wall_ns: u64,
    /// On-CPU time over the same interval, where available.
    pub cpu_ns: Option<u64>,
}

impl Profile {
    /// Indices of the direct children of span `idx`.
    pub fn children(&self, idx: usize) -> Vec<usize> {
        (0..self.spans.len()).filter(|&k| self.spans[k].parent == Some(idx)).collect()
    }

    /// Indices of the top-level spans.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.spans.len()).filter(|&k| self.spans[k].parent.is_none()).collect()
    }

    /// First span with the given name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// True when `ancestor` lies on `idx`'s parent chain (or equals it).
    pub fn has_ancestor(&self, mut idx: usize, ancestor: usize) -> bool {
        loop {
            if idx == ancestor {
                return true;
            }
            match self.spans[idx].parent {
                Some(p) => idx = p,
                None => return false,
            }
        }
    }
}

struct CollectorState {
    generation: u64,
    mode: Mode,
    epoch: Instant,
    cpu_epoch: Option<Duration>,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

thread_local! {
    static COLLECTORS: RefCell<Vec<CollectorState>> = const { RefCell::new(Vec::new()) };
}

/// Installs a collector on the current thread until
/// [`finish`](Collector::finish) (or drop).  Collectors nest: spans
/// record into the innermost one.
pub fn collect(mode: Mode) -> Collector {
    let generation = GENERATION.fetch_add(1, Ordering::Relaxed);
    TIMING.fetch_add(1, Ordering::Relaxed);
    if mode == Mode::Full {
        FULL.fetch_add(1, Ordering::Relaxed);
    }
    COLLECTORS.with(|c| {
        c.borrow_mut().push(CollectorState {
            generation,
            mode,
            epoch: Instant::now(),
            cpu_epoch: thread_on_cpu(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
    Collector { generation, mode, armed: true, _not_send: PhantomData }
}

/// A live collection on this thread.  Deliberately `!Send`: spans and the
/// odometer are thread-local.
pub struct Collector {
    generation: u64,
    mode: Mode,
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

impl Collector {
    /// Stops collecting and returns the profile.  Spans still open when
    /// the collector finishes are discarded (their guards become inert).
    pub fn finish(mut self) -> Profile {
        self.armed = false;
        self.teardown().unwrap_or_default()
    }

    fn teardown(&self) -> Option<Profile> {
        TIMING.fetch_sub(1, Ordering::Relaxed);
        if self.mode == Mode::Full {
            FULL.fetch_sub(1, Ordering::Relaxed);
        }
        COLLECTORS.with(|c| {
            let mut stack = c.borrow_mut();
            let pos = stack.iter().rposition(|s| s.generation == self.generation)?;
            let state = stack.remove(pos);
            Some(Profile {
                wall_ns: state.epoch.elapsed().as_nanos() as u64,
                cpu_ns: state
                    .cpu_epoch
                    .and_then(|e| Some(thread_on_cpu()?.saturating_sub(e).as_nanos() as u64)),
                spans: state.spans,
            })
        })
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.teardown();
        }
    }
}

/// RAII guard for one span.  Inert (a single branch) when no collector is
/// live on this thread.  Deliberately `!Send`.
pub struct SpanGuard {
    /// `(collector generation, span index)` when recording.
    slot: Option<(u64, usize)>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens a span with a static name.  The global [`timing_enabled`]
    /// check comes first, so a disabled site never reaches the
    /// thread-local.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !timing_enabled() {
            return SpanGuard { slot: None, _not_send: PhantomData };
        }
        Self::open(|| name.to_string())
    }

    /// Opens a span with a computed name.  The closure runs only when a
    /// collector is present, so callers can format names (`nest:{id}`)
    /// without paying the allocation when disabled.
    #[inline]
    pub fn enter_with(name: impl FnOnce() -> String) -> SpanGuard {
        if !timing_enabled() {
            return SpanGuard { slot: None, _not_send: PhantomData };
        }
        Self::open(name)
    }

    fn open(name: impl FnOnce() -> String) -> SpanGuard {
        COLLECTORS.with(|c| {
            let mut stack = c.borrow_mut();
            let Some(top) = stack.last_mut() else {
                return SpanGuard { slot: None, _not_send: PhantomData };
            };
            let idx = top.spans.len();
            // `cpu_ns` and `delta` temporarily hold the *opening* readings;
            // `Drop` rewrites them as differences.
            top.spans.push(SpanRecord {
                name: name(),
                parent: top.open.last().copied(),
                depth: top.open.len(),
                start_ns: top.epoch.elapsed().as_nanos() as u64,
                wall_ns: 0,
                cpu_ns: top.cpu_epoch.and_then(|_| thread_on_cpu()).map(|d| d.as_nanos() as u64),
                delta: match top.mode {
                    Mode::Full => snapshot(),
                    Mode::Timing => Counters::default(),
                },
            });
            top.open.push(idx);
            SpanGuard { slot: Some((top.generation, idx)), _not_send: PhantomData }
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((generation, idx)) = self.slot else { return };
        COLLECTORS.with(|c| {
            let mut stack = c.borrow_mut();
            // The collector may have finished (or been nested over and
            // gone) while we were open; match by generation, not position.
            let Some(state) = stack.iter_mut().rev().find(|s| s.generation == generation) else {
                return;
            };
            if state.open.last() == Some(&idx) {
                state.open.pop();
            } else if let Some(pos) = state.open.iter().rposition(|&k| k == idx) {
                // Out-of-order drop (should not happen with lexical
                // guards); close this span without disturbing the rest.
                state.open.remove(pos);
            } else {
                return;
            }
            let now_ns = state.epoch.elapsed().as_nanos() as u64;
            let closing = match state.mode {
                Mode::Full => snapshot(),
                Mode::Timing => Counters::default(),
            };
            let cpu_now =
                state.cpu_epoch.and_then(|_| thread_on_cpu()).map(|d| d.as_nanos() as u64);
            let rec = &mut state.spans[idx];
            rec.wall_ns = now_ns.saturating_sub(rec.start_ns);
            rec.cpu_ns = match (rec.cpu_ns, cpu_now) {
                (Some(open), Some(close)) => Some(close.saturating_sub(open)),
                _ => None,
            };
            rec.delta = closing.delta_since(&rec.delta);
        });
    }
}

/// Opens a span in the current scope: `let _s = span!("interp");`.
/// A single literal is taken verbatim (no inline captures); with extra
/// arguments it formats like `format!("nest:{}", id)`, and the
/// formatting only runs when a collector is live.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::SpanGuard::enter($name)
    };
    ($($arg:tt)*) => {
        $crate::SpanGuard::enter_with(|| format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that open collectors or assert on the
    /// process-wide enable flags, which a concurrent test would flip.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _serial = serial();
        assert!(!timing_enabled());
        let before = snapshot();
        {
            let _s = span!("noop");
            tick_channel_bytes(0, 100);
            tick_miss(1);
            add_flops(5);
        }
        assert_eq!(snapshot(), before, "ticks must be inert without a Full collector");
    }

    #[test]
    fn spans_nest_and_partition_deltas() {
        let _serial = serial();
        let c = collect(Mode::Full);
        {
            let _outer = span!("outer");
            tick_channel_bytes(0, 10);
            {
                let _a = span!("a");
                tick_channel_bytes(0, 3);
                tick_miss(0);
            }
            {
                let _b = span!("b");
                tick_channel_bytes(0, 4);
                add_flops(2);
            }
            tick_channel_bytes(1, 7);
        }
        let p = c.finish();
        assert_eq!(p.spans.len(), 3);
        let outer = p.find("outer").unwrap();
        let a = p.find("a").unwrap();
        let b = p.find("b").unwrap();
        assert_eq!(p.spans[a].parent, Some(outer));
        assert_eq!(p.spans[b].parent, Some(outer));
        assert_eq!(p.spans[outer].depth, 0);
        assert_eq!(p.spans[a].depth, 1);
        // Inclusive deltas: outer covers its own ticks plus the children.
        assert_eq!(p.spans[outer].delta.channel_bytes[0], 17);
        assert_eq!(p.spans[outer].delta.channel_bytes[1], 7);
        assert_eq!(p.spans[a].delta.channel_bytes[0], 3);
        assert_eq!(p.spans[a].delta.misses[0], 1);
        assert_eq!(p.spans[b].delta.channel_bytes[0], 4);
        assert_eq!(p.spans[b].delta.flops, 2);
        // Children + the gap outside them == parent, exactly.
        let mut kids = Counters::default();
        kids.add(&p.spans[a].delta);
        kids.add(&p.spans[b].delta);
        let gap = p.spans[outer].delta.delta_since(&kids);
        assert_eq!(gap.channel_bytes[0], 10);
        assert_eq!(gap.channel_bytes[1], 7);
        assert_eq!(gap.misses[0], 0);
    }

    #[test]
    fn timing_mode_leaves_the_odometer_off() {
        let _serial = serial();
        let c = collect(Mode::Timing);
        assert!(timing_enabled());
        assert!(!counters_enabled());
        let before = snapshot();
        {
            let _s = span!("t");
            tick_channel_bytes(0, 9);
        }
        assert_eq!(snapshot(), before);
        let p = c.finish();
        assert_eq!(p.spans.len(), 1);
        assert_eq!(p.spans[0].delta, Counters::default());
        assert!(!timing_enabled());
    }

    #[test]
    fn counters_are_per_thread() {
        let _serial = serial();
        let c = collect(Mode::Full);
        let accesses_before = accesses();
        std::thread::spawn(|| {
            // The sibling thread ticks (the flag is global) but into its
            // own odometer; nothing leaks into our spans or access count.
            tick_channel_bytes(0, 1_000_000);
            tick_accesses(7);
        })
        .join()
        .unwrap();
        assert_eq!(accesses(), accesses_before);
        {
            let _s = span!("here");
            tick_channel_bytes(0, 5);
        }
        let p = c.finish();
        assert_eq!(p.spans[0].delta.channel_bytes[0], 5);
    }

    #[test]
    fn formatted_names_and_find() {
        let _serial = serial();
        let c = collect(Mode::Timing);
        let nest = "update";
        {
            let _s = span!("nest:{}", nest);
        }
        let p = c.finish();
        assert_eq!(p.spans[0].name, "nest:update");
        assert!(p.find("nest:update").is_some());
        assert!(p.find("absent").is_none());
    }

    #[test]
    fn guard_outliving_its_collector_is_inert() {
        let _serial = serial();
        let c = collect(Mode::Timing);
        let g = SpanGuard::enter("orphan");
        let p = c.finish();
        // The still-open span was discarded, and dropping the guard after
        // the collector finished must not touch another collector.
        assert_eq!(p.spans.len(), 1);
        assert_eq!(p.spans[0].wall_ns, 0, "never closed");
        let c2 = collect(Mode::Timing);
        drop(g);
        let p2 = c2.finish();
        assert!(p2.spans.is_empty(), "orphan guard must not close into a newer collector");
    }

    #[test]
    fn nested_collectors_record_into_the_innermost() {
        let _serial = serial();
        let outer = collect(Mode::Full);
        {
            let _s = span!("outer-span");
            let inner = collect(Mode::Full);
            {
                let _t = span!("inner-span");
                tick_channel_bytes(0, 2);
            }
            let pi = inner.finish();
            assert_eq!(pi.spans.len(), 1);
            assert_eq!(pi.spans[0].name, "inner-span");
        }
        let po = outer.finish();
        assert_eq!(po.spans.len(), 1);
        assert_eq!(po.spans[0].name, "outer-span");
        // The outer span was open across the inner collection; its delta
        // still covers the inner ticks (odometer is shared per thread).
        assert_eq!(po.spans[0].delta.channel_bytes[0], 2);
    }

    #[test]
    fn channels_used_reports_the_high_water_mark() {
        let mut c = Counters::default();
        assert_eq!(c.channels_used(), 0);
        c.channel_bytes[0] = 1;
        c.channel_bytes[2] = 9;
        assert_eq!(c.channels_used(), 3);
    }

    #[test]
    fn profile_ancestry_helpers() {
        let _serial = serial();
        let c = collect(Mode::Timing);
        {
            let _a = span!("a");
            let _b = span!("b");
            let _d = span!("c");
        }
        let p = c.finish();
        let (a, b, cc) = (p.find("a").unwrap(), p.find("b").unwrap(), p.find("c").unwrap());
        assert!(p.has_ancestor(cc, a));
        assert!(p.has_ancestor(cc, b));
        assert!(!p.has_ancestor(a, cc));
        assert_eq!(p.roots(), vec![a]);
        assert_eq!(p.children(a), vec![b]);
    }
}
