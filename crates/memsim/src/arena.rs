//! An address arena for address-only kernels.
//!
//! Workloads that do not fit the affine IR (the FFT's bit-reversal) and
//! the machine benchmarks (STREAM, the perf gate's triad) emit their
//! access streams straight into a sink, without values, over base
//! addresses an [`Arena`] hands out the way the interpreter's layout
//! places arrays.

/// Assigns non-overlapping, 64-byte-aligned base addresses to buffers,
/// from the interpreter's default base (`LayoutOpts::default`).
#[derive(Clone, Debug)]
pub struct Arena {
    next: u64,
}

impl Default for Arena {
    fn default() -> Self {
        Arena { next: 0x10_0000 }
    }
}

impl Arena {
    /// An arena at the default base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves space for `n` f64 cells and returns the base address.
    pub fn alloc_f64(&mut self, n: usize) -> u64 {
        let base = self.next.next_multiple_of(64);
        self.next = base + (n as u64) * 8;
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_alignment_and_disjointness() {
        let mut a = Arena::new();
        let b1 = a.alloc_f64(3); // 24 bytes
        let b2 = a.alloc_f64(1);
        assert_eq!(b1, 0x10_0000);
        assert_eq!(b2 % 64, 0);
        assert!(b2 >= b1 + 24);
    }
}
