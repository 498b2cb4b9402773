//! # mbb-workloads — the paper's kernels, applications and figure examples
//!
//! Everything §2 and §3 measure, as loop-IR programs (or an address-only
//! native kernel where the access pattern is not affine):
//!
//! * [`kernels`] — convolution, dmxpy, matrix multiply in the `jki` order
//!   (the paper's `-O2` shape) and blocked (`-O3`, Carr–Kennedy);
//! * [`fft`] — a radix-2 Cooley–Tukey FFT as an address-only native
//!   kernel (bit-reversal is not affine);
//! * [`stream_kernels`] — the Figure-3 stride-one read/write kernels
//!   (`1w1r` … `0w3r`);
//! * [`nas_sp`] — a scaled-down proxy of the NAS/SP scalar-pentadiagonal
//!   ADI benchmark with its seven major subroutines;
//! * [`sweep3d`] — a 3-D wavefront transport-sweep proxy;
//! * [`figures`] — the paper's running examples: the §2.1 two-loop
//!   demonstration, the Figure-4 six-loop fusion graph, the Figure-6
//!   shrink/peel program and the Figure-7 store-elimination program.

pub mod fft;
pub mod figures;
pub mod kernels;
pub mod nas_sp;
pub mod stream_kernels;
pub mod sweep3d;
