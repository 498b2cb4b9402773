//! Memory-access traces.
//!
//! The interpreter (and the address-only FFT in `mbb-workloads`) emit a
//! stream of [`Access`] events — byte address, size, read/write — into an
//! [`AccessSink`].  The memory-hierarchy simulator in `mbb-memsim` is one
//! such sink; counting and recording sinks are provided here for tests.
//!
//! This stream is the reproduction's substitute for the paper's hardware
//! counters: balance is computed from exact event counts either way.

/// Whether an access reads or writes memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Byte address in the program's virtual address space.
    pub addr: u64,
    /// Access width in bytes (8 for the IR's `f64` cells).
    pub size: u32,
    /// Read or write.
    pub kind: AccessKind,
}

impl Access {
    /// A read of `size` bytes at `addr`.
    pub fn read(addr: u64, size: u32) -> Self {
        Access { addr, size, kind: AccessKind::Read }
    }

    /// A write of `size` bytes at `addr`.
    pub fn write(addr: u64, size: u32) -> Self {
        Access { addr, size, kind: AccessKind::Write }
    }
}

/// One strided access stream inside a run: the accesses
/// `{base + k·stride : 0 ≤ k < count}` of a fixed size and kind, where
/// `count` is supplied by [`AccessSink::access_runs`] for the whole group
/// of interleaved streams.
///
/// This is the compiled form of an affine array reference inside an
/// innermost loop: the producer resolves the subscript expressions once
/// and the consumer advances per cache line instead of per element.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunRef {
    /// Byte address of iteration 0's access.
    pub base: u64,
    /// Byte distance between consecutive iterations' accesses (may be
    /// negative or zero).
    pub stride: i64,
    /// Access width in bytes.
    pub size: u32,
    /// Read or write.
    pub kind: AccessKind,
}

impl RunRef {
    /// The concrete access this stream makes at iteration `k`.
    #[inline]
    pub fn at(&self, k: u64) -> Access {
        Access {
            addr: self.base.wrapping_add(self.stride.wrapping_mul(k as i64) as u64),
            size: self.size,
            kind: self.kind,
        }
    }
}

/// Consumes a stream of memory accesses.
///
/// Sinks are driven *on-line* — traces for out-of-cache workloads run to
/// hundreds of millions of events and are never materialised unless a test
/// explicitly uses [`VecSink`].
pub trait AccessSink {
    /// Records one access.
    fn access(&mut self, a: Access);

    /// Records `count` interleaved iterations of a group of strided
    /// streams: iteration `k` performs `refs[0].at(k)`, `refs[1].at(k)`, …
    /// in order, then iteration `k+1` follows.
    ///
    /// The interleaving is part of the contract — feeding each stream
    /// separately would reorder the trace and change conflict behaviour in
    /// a set-associative sink.  Semantically identical to the element-wise
    /// expansion the default performs; simulators override it to advance
    /// per cache line instead of per element.
    fn access_runs(&mut self, refs: &[RunRef], count: u64) {
        for k in 0..count {
            for r in refs {
                self.access(r.at(k));
            }
        }
    }
}

/// A sink that discards every access (for pure flop counting).
#[derive(Default, Debug)]
pub struct NullSink;

impl AccessSink for NullSink {
    fn access(&mut self, _a: Access) {}

    fn access_runs(&mut self, _refs: &[RunRef], _count: u64) {}
}

/// A sink that counts accesses and bytes by kind.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl CountingSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved between registers and the first cache level: this
    /// is the numerator of the paper's L1–register balance.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

impl AccessSink for CountingSink {
    fn access(&mut self, a: Access) {
        match a.kind {
            AccessKind::Read => {
                self.reads += 1;
                self.bytes_read += u64::from(a.size);
            }
            AccessKind::Write => {
                self.writes += 1;
                self.bytes_written += u64::from(a.size);
            }
        }
    }

    fn access_runs(&mut self, refs: &[RunRef], count: u64) {
        for r in refs {
            match r.kind {
                AccessKind::Read => {
                    self.reads += count;
                    self.bytes_read += count * u64::from(r.size);
                }
                AccessKind::Write => {
                    self.writes += count;
                    self.bytes_written += count * u64::from(r.size);
                }
            }
        }
    }
}

/// A sink that records the full trace (tests and small programs only).
#[derive(Default, Debug)]
pub struct VecSink {
    /// The recorded accesses in program order.
    pub events: Vec<Access>,
}

impl VecSink {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AccessSink for VecSink {
    fn access(&mut self, a: Access) {
        self.events.push(a);
    }
}

impl<S: AccessSink + ?Sized> AccessSink for &mut S {
    fn access(&mut self, a: Access) {
        (**self).access(a)
    }

    fn access_runs(&mut self, refs: &[RunRef], count: u64) {
        (**self).access_runs(refs, count)
    }
}

/// Adapter that strips the run fast path off a sink: runs passed through a
/// `Scalarize` reach the inner sink as element-wise [`AccessSink::access`]
/// calls (the trait-default expansion), never as [`AccessSink::access_runs`].
///
/// This is how `engine=scalar` turns a run-emitting producer back into the
/// oracle element walk without touching the producer: wrap the sink, and
/// the simulator under test sees the identical event stream one access at
/// a time.
pub struct Scalarize<'a, S: AccessSink + ?Sized> {
    inner: &'a mut S,
}

impl<'a, S: AccessSink + ?Sized> Scalarize<'a, S> {
    /// Wraps `sink`.
    pub fn new(sink: &'a mut S) -> Self {
        Scalarize { inner: sink }
    }
}

impl<S: AccessSink + ?Sized> AccessSink for Scalarize<'_, S> {
    fn access(&mut self, a: Access) {
        self.inner.access(a);
    }
    // access_runs deliberately NOT overridden: the trait default expands
    // it through `self.access`, which forwards.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_accumulates() {
        let mut c = CountingSink::new();
        c.access(Access::read(0, 8));
        c.access(Access::read(8, 8));
        c.access(Access::write(0, 8));
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.bytes_read, 16);
        assert_eq!(c.bytes_written, 8);
        assert_eq!(c.total(), 3);
        assert_eq!(c.total_bytes(), 24);
    }

    #[test]
    fn vec_sink_preserves_order() {
        let mut v = VecSink::new();
        v.access(Access::write(16, 8));
        v.access(Access::read(0, 4));
        assert_eq!(v.events.len(), 2);
        assert_eq!(v.events[0], Access::write(16, 8));
        assert_eq!(v.events[1], Access::read(0, 4));
    }

    #[test]
    fn run_ref_walks_its_stride() {
        let r = RunRef { base: 64, stride: -16, size: 8, kind: AccessKind::Write };
        assert_eq!(r.at(0), Access::write(64, 8));
        assert_eq!(r.at(2), Access::write(32, 8));
    }

    #[test]
    fn run_expansion_interleaves_streams() {
        let refs = [
            RunRef { base: 0, stride: 8, size: 8, kind: AccessKind::Read },
            RunRef { base: 1024, stride: 8, size: 8, kind: AccessKind::Write },
        ];
        let mut v = VecSink::new();
        v.access_runs(&refs, 3);
        let addrs: Vec<(u64, AccessKind)> = v.events.iter().map(|a| (a.addr, a.kind)).collect();
        assert_eq!(
            addrs,
            [
                (0, AccessKind::Read),
                (1024, AccessKind::Write),
                (8, AccessKind::Read),
                (1032, AccessKind::Write),
                (16, AccessKind::Read),
                (1040, AccessKind::Write),
            ]
        );
    }

    #[test]
    fn counting_sink_bulk_matches_expansion() {
        let refs = [
            RunRef { base: 0, stride: 8, size: 8, kind: AccessKind::Read },
            RunRef { base: 512, stride: -8, size: 4, kind: AccessKind::Write },
        ];
        let mut bulk = CountingSink::new();
        bulk.access_runs(&refs, 17);
        let mut scalar = CountingSink::new();
        for k in 0..17 {
            for r in &refs {
                scalar.access(r.at(k));
            }
        }
        assert_eq!(bulk, scalar);
    }

    #[test]
    fn scalarize_expands_runs_elementwise() {
        // A sink that panics on the run path proves Scalarize strips it.
        struct NoRuns(VecSink);
        impl AccessSink for NoRuns {
            fn access(&mut self, a: Access) {
                self.0.access(a);
            }
            fn access_runs(&mut self, _refs: &[RunRef], _count: u64) {
                panic!("run fast path must not be reachable through Scalarize");
            }
        }
        let mut inner = NoRuns(VecSink::new());
        {
            let mut s = Scalarize::new(&mut inner);
            s.access_runs(&[RunRef { base: 0, stride: 8, size: 8, kind: AccessKind::Read }], 3);
        }
        assert_eq!(inner.0.events.len(), 3);
    }
}
