//! The host-speed reference.  A shared VM runs slow and fast phases of
//! seconds to minutes, in which every process on it slows alike; a run
//! times this fixed piece of work between its passes, and its timings are
//! reported as if the host had run the reference in [`NOMINAL_S`].  The
//! work is the benchmark's own and calls nothing in the repository, so a
//! change to the code under test cannot move it.

use std::ffi::{c_int, c_long, c_void};
use std::hint::black_box;
use std::ops::{Deref, DerefMut};
use std::time::Instant;

/// The reference's median time on the reference host (a 2-vCPU Xeon VM
/// shared with other tenants, over 20 minutes).
pub const NOMINAL_S: f64 = 0.38;

/// Entries in the ring the memory half walks: 16 MiB of `u32`, more than
/// a core's L2 cache, as the simulator's working sets are.
const RING: usize = 1 << 22;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_READ_WRITE: c_int = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;

/// A zeroed `[u32]` mapped for this call alone and unmapped on drop.  The
/// allocator would keep a freed buffer this size in the heap, and every
/// process the benchmark forks afterwards, each server under test
/// included, would pay for copying its page tables.
struct Mapped {
    ptr: *mut u32,
    len: usize,
}

impl Mapped {
    fn zeroed(len: usize) -> Mapped {
        let bytes = len * size_of::<u32>();
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks; no existing memory is touched.
        let ptr = unsafe {
            mmap(std::ptr::null_mut(), bytes, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0)
        };
        assert!(ptr as isize != -1, "mmap of {bytes} bytes failed");
        Mapped { ptr: ptr.cast(), len }
    }
}

impl Deref for Mapped {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        // SAFETY: `ptr` is a live, zero-filled, page-aligned mapping of
        // `len` `u32`s owned by `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl DerefMut for Mapped {
    fn deref_mut(&mut self) -> &mut [u32] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for Mapped {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `zeroed` made; no borrow of it
        // outlives `self`.
        unsafe { munmap(self.ptr.cast(), self.len * size_of::<u32>()) };
    }
}

/// One dependent step of the integer half: xorshift64.
fn mix(x: u64) -> u64 {
    let x = x ^ (x << 13);
    let x = x ^ (x >> 7);
    x ^ (x << 17)
}

/// A ring through every entry, in a fixed random order (Sattolo's
/// shuffle): entry `i` holds the next index.
fn ring() -> Mapped {
    let mut ring = Mapped::zeroed(RING);
    for (i, e) in ring.iter_mut().enumerate() {
        *e = i as u32;
    }
    let mut x = 0x9e37_79b9_7f4a_7c15;
    for i in (1..RING).rev() {
        x = mix(x);
        ring.swap(i, (x % i as u64) as usize);
    }
    ring
}

/// Times the reference work once, in seconds: a dependent integer chain,
/// which slows when the core runs slower, and a dependent walk over the
/// ring, which slows when the caches and memory other tenants share are
/// contended.  Each half took about equally long on the reference host.
/// The ring is built untimed and unmapped before returning.
pub fn time() -> f64 {
    let ring = ring();
    let t = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1d_u64);
    for i in 0..60_000_000 {
        x = mix(x).wrapping_add(i);
    }
    let mut at = black_box(0_u32);
    for _ in 0..1_500_000 {
        at = ring[at as usize];
    }
    black_box((x, at));
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle() {
        let r = ring();
        let (mut at, mut steps) = (r[0], 1);
        while at != 0 {
            at = r[at as usize];
            steps += 1;
        }
        assert_eq!(steps, RING);
    }
}
