//! Address arena and traced buffers for native kernels.
//!
//! Workloads that do not fit the affine IR (the FFT's bit-reversal, the
//! Sweep3D wavefront) are written as ordinary Rust, but still need to emit
//! the same byte-accurate access traces as interpreted programs.
//! [`TracedArray`] is a `Vec<f64>` with a base address from an [`Arena`];
//! every `get`/`set` performs the real computation *and* reports the access
//! to a sink.

use mbb_ir::trace::{Access, AccessKind, AccessSink, RunRef};

/// Assigns non-overlapping base addresses to buffers.
#[derive(Clone, Debug)]
pub struct Arena {
    next: u64,
    align: u64,
}

impl Default for Arena {
    fn default() -> Self {
        Arena { next: 0x10_0000, align: 64 }
    }
}

impl Arena {
    /// An arena with the default base and 64-byte alignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena with explicit base and alignment (alignment must be a
    /// power of two).  Deliberately mis-aligned bases are how the conflict
    /// ablations provoke direct-mapped collisions.
    pub fn with_layout(base: u64, align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        Arena { next: base, align }
    }

    /// Reserves space for `n` f64 cells and returns the base address.
    pub fn alloc_f64(&mut self, n: usize) -> u64 {
        let mask = self.align - 1;
        let base = (self.next + mask) & !mask;
        self.next = base + (n as u64) * 8;
        base
    }

    /// Skips `bytes` of address space (padding between buffers).
    pub fn pad(&mut self, bytes: u64) {
        self.next += bytes;
    }
}

/// A buffer of `f64` cells with a simulated base address.
#[derive(Clone, Debug)]
pub struct TracedArray {
    base: u64,
    data: Vec<f64>,
}

impl TracedArray {
    /// Allocates a buffer initialised by `f(index)`.
    pub fn from_fn(arena: &mut Arena, n: usize, f: impl Fn(usize) -> f64) -> Self {
        TracedArray { base: arena.alloc_f64(n), data: (0..n).map(f).collect() }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The simulated base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Loads cell `i`, reporting the access.
    ///
    /// Generic over the sink so kernels driving a concrete sink (a
    /// hierarchy, a counter) get an inlined call; `&mut dyn AccessSink`
    /// works too.
    #[inline]
    pub fn get(&self, i: usize, sink: &mut (impl AccessSink + ?Sized)) -> f64 {
        sink.access(Access::read(self.base + (i as u64) * 8, 8));
        self.data[i]
    }

    /// Stores cell `i`, reporting the access.
    #[inline]
    pub fn set(&mut self, i: usize, value: f64, sink: &mut (impl AccessSink + ?Sized)) {
        sink.access(Access::write(self.base + (i as u64) * 8, 8));
        self.data[i] = value;
    }

    /// Direct untraced view (for checking results, not for kernels).
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Direct untraced mutable view, for kernels that emit their access
    /// stream separately as runs (see [`TracedArray::run_ref`]) and do the
    /// arithmetic on the raw cells.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A run descriptor over this buffer for [`AccessSink::access_runs`]:
    /// the walk starts at cell `i` and advances `step` cells per iteration.
    pub fn run_ref(&self, i: usize, step: i64, kind: AccessKind) -> RunRef {
        RunRef { base: self.base + (i as u64) * 8, stride: step * 8, size: 8, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_ir::trace::{AccessKind, VecSink};

    #[test]
    fn arena_alignment_and_disjointness() {
        let mut a = Arena::new();
        let b1 = a.alloc_f64(3); // 24 bytes
        let b2 = a.alloc_f64(1);
        assert_eq!(b1 % 64, 0);
        assert_eq!(b2 % 64, 0);
        assert!(b2 >= b1 + 24);
        a.pad(100);
        let b3 = a.alloc_f64(1);
        assert!(b3 >= b2 + 8 + 100);
    }

    #[test]
    fn traced_accesses_report_addresses() {
        let mut arena = Arena::new();
        let mut t = TracedArray::from_fn(&mut arena, 4, |_| 0.0);
        let mut sink = VecSink::new();
        t.set(2, 7.0, &mut sink);
        assert_eq!(t.get(2, &mut sink), 7.0);
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].addr, t.base() + 16);
        assert_eq!(sink.events[0].kind, AccessKind::Write);
        assert_eq!(sink.events[1].kind, AccessKind::Read);
    }

    #[test]
    fn from_fn_initialises() {
        let mut arena = Arena::new();
        let t = TracedArray::from_fn(&mut arena, 3, |i| i as f64 * 2.0);
        assert_eq!(t.values(), &[0.0, 2.0, 4.0]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }
}
