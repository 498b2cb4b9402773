//! Radix-2 Cooley–Tukey FFT as an address-only native kernel.
//!
//! The FFT's bit-reversal permutation and power-of-two strides are not
//! affine, so this workload lives outside the loop IR.  Its balance is a
//! function of event counts alone, so, like STREAM, it moves no values:
//! [`emit`] streams the byte-accurate access sequence of an in-place
//! transform over [`Arena`] addresses and returns the exact flop count.
//! This is the `FFT` row of Figure 1.

use mbb_ir::runs::emit_runs;
use mbb_ir::trace::{Access, AccessKind, AccessSink, RunRef};
use mbb_memsim::arena::Arena;

/// One step of the transform over complex points, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// The bit-reversal swap of points `i` and `j`.
    Swap(usize, usize),
    /// `half` butterflies: point `base + k` pairs with `base + half + k`
    /// under twiddle `e^{-iπk/half}`, stacked at entry `half + k`.
    Block { base: usize, half: usize },
}

/// The steps of an iterative radix-2 DIT FFT over `n = 2^k` points: the
/// bit-reversal swaps, then each stage's butterfly blocks.
fn steps(n: usize) -> impl Iterator<Item = Step> {
    let bits = n.trailing_zeros();
    let swaps = (0..n).filter_map(move |i| {
        let j = (i as u64).reverse_bits().wrapping_shr(64 - bits) as usize;
        (j > i).then_some(Step::Swap(i, j))
    });
    let blocks = (0..bits).flat_map(move |stage| {
        let half = 1usize << stage;
        (0..n).step_by(2 * half).map(move |base| Step::Block { base, half })
    });
    swaps.chain(blocks)
}

/// Streams into `sink` every array access of an in-place iterative
/// radix-2 DIT FFT over `n = 2^k` points, and returns its flops (real
/// additions and multiplications).
///
/// The data is interleaved complex (`d[2k]` = re, `d[2k+1]` = im), as
/// real FFT libraries store it — separate re/im planes at power-of-two
/// distances would conflict in the cache.  The twiddles are precomputed
/// into a table (as a library implementation would), so they take part
/// in the traffic: stacked per stage and interleaved, the stage with
/// half-length `h` reads entries `h..2h` sequentially (the layout
/// production FFTs use; a strided walk of one big table would thrash).
///
/// # Panics
/// Panics unless `n` is a power of two ≥ 2.
pub fn emit(n: usize, sink: &mut (impl AccessSink + ?Sized)) -> u64 {
    assert!(n.is_power_of_two() && n >= 2, "n must be a power of two ≥ 2");
    let mut arena = Arena::new();
    let (d, tw) = (arena.alloc_f64(2 * n), arena.alloc_f64(2 * n));
    let cell = |base: u64, i: usize| base + 8 * i as u64;
    let run = |base, i, kind| RunRef { base: cell(base, i), stride: 16, size: 8, kind };
    let mut flops = 0u64;
    for step in steps(n) {
        match step {
            // Load both points, store them crossed: real parts, then
            // imaginary parts.
            Step::Swap(i, j) => {
                for part in [0, 1] {
                    let (a, b) = (cell(d, 2 * i + part), cell(d, 2 * j + part));
                    sink.access(Access::read(a, 8));
                    sink.access(Access::read(b, 8));
                    sink.access(Access::write(a, 8));
                    sink.access(Access::write(b, 8));
                }
            }
            // Every reference of a block advances by one complex point per
            // butterfly, so the body's ten accesses (twiddle, a and b
            // loaded; a and b stored) are ten run descriptors.
            Step::Block { base, half } => {
                use AccessKind::{Read, Write};
                let (a, b, w) = (2 * base, 2 * (base + half), 2 * half);
                let refs = [
                    run(tw, w, Read),
                    run(tw, w + 1, Read),
                    run(d, a, Read),
                    run(d, a + 1, Read),
                    run(d, b, Read),
                    run(d, b + 1, Read),
                    run(d, a, Write),
                    run(d, a + 1, Write),
                    run(d, b, Write),
                    run(d, b + 1, Write),
                ];
                emit_runs(sink, &refs, half as u64);
                // t = w · b (4 mul + 2 add); a ± t (4 add).
                flops += 10 * half as u64;
            }
        }
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_ir::trace::{CountingSink, NullSink};

    /// O(n²) reference DFT.
    fn dft(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let mut or_ = vec![0.0; n];
        let mut oi = vec![0.0; n];
        for k in 0..n {
            for t in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                or_[k] += re[t] * c - im[t] * s;
                oi[k] += re[t] * s + im[t] * c;
            }
        }
        (or_, oi)
    }

    #[test]
    fn fft_matches_reference_dft() {
        // The kernel's own steps, carried out on values.
        let n = 64;
        let input: Vec<f64> = (0..n)
            .map(|k| mbb_ir::interp::input_value(mbb_ir::SourceId(100), k as u64) - 0.5)
            .collect();
        let mut d: Vec<f64> = input.iter().flat_map(|&re| [re, 0.0]).collect();
        for step in steps(n) {
            match step {
                Step::Swap(i, j) => {
                    d.swap(2 * i, 2 * j);
                    d.swap(2 * i + 1, 2 * j + 1);
                }
                Step::Block { base, half } => {
                    for k in 0..half {
                        let angle = -std::f64::consts::PI * k as f64 / half as f64;
                        let (wr, wi) = (angle.cos(), angle.sin());
                        let (a, b) = (2 * (base + k), 2 * (base + half + k));
                        let tr = wr * d[b] - wi * d[b + 1];
                        let ti = wr * d[b + 1] + wi * d[b];
                        let (ar, ai) = (d[a], d[a + 1]);
                        d[a] = ar + tr;
                        d[a + 1] = ai + ti;
                        d[b] = ar - tr;
                        d[b + 1] = ai - ti;
                    }
                }
            }
        }
        let (rr, ri) = dft(&input, &vec![0.0; n]);
        for k in 0..n {
            assert!((d[2 * k] - rr[k]).abs() < 1e-9, "re[{k}]");
            assert!((d[2 * k + 1] - ri[k]).abs() < 1e-9, "im[{k}]");
        }
    }

    #[test]
    fn flop_count_is_5nlogn() {
        let n = 256u64;
        let flops = emit(n as usize, &mut NullSink);
        assert_eq!(flops, 10 * (n / 2) * n.trailing_zeros() as u64);
    }

    #[test]
    fn trace_volume_matches_butterflies() {
        let n = 128u64;
        let mut c = CountingSink::new();
        emit(n as usize, &mut c);
        // Each butterfly: 6 reads + 4 writes; each swap 4 of each.
        let butterflies = (n / 2) * n.trailing_zeros() as u64;
        let swaps = steps(n as usize).filter(|s| matches!(s, Step::Swap(..))).count() as u64;
        assert_eq!(c.reads, 6 * butterflies + 4 * swaps);
        assert_eq!(c.writes, 4 * butterflies + 4 * swaps);
    }

    /// Records a sink's calls as bytes: each access as `0, addr, size,
    /// kind` and each run bundle as `1, count`, then per run `base,
    /// stride, size, kind`.
    #[derive(Default)]
    struct Record(Vec<u8>);

    impl Record {
        fn words(&mut self, words: &[u64]) {
            for w in words {
                self.0.extend_from_slice(&w.to_le_bytes());
            }
        }
    }

    fn kind_word(kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        }
    }

    impl AccessSink for Record {
        fn access(&mut self, a: Access) {
            self.words(&[0, a.addr, u64::from(a.size), kind_word(a.kind)]);
        }

        fn access_runs(&mut self, refs: &[RunRef], count: u64) {
            self.words(&[1, count]);
            for r in refs {
                self.words(&[r.base, r.stride as u64, u64::from(r.size), kind_word(r.kind)]);
            }
        }
    }

    #[test]
    fn access_stream_matches_the_recorded_digest() {
        // Recorded from the value-carrying kernel this one replaced: the
        // same addresses, swap accesses and run bundles, call for call.
        let mut r = Record::default();
        let _g = mbb_ir::runs::install(mbb_ir::Engine::Runs);
        let flops = emit(1024, &mut r);
        assert_eq!(flops, 51_200);
        assert_eq!(r.0.len(), 470_704);
        assert_eq!(mbb_core::canon::fnv1a(&r.0), 0x72cb_525c_627d_98e6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        emit(100, &mut NullSink);
    }

    #[test]
    fn fft_traffic_is_engine_invariant() {
        let machine = mbb_memsim::machine::MachineModel::origin2000();
        let per_engine = |e| {
            let _g = mbb_ir::runs::install(e);
            let mut h = machine.hierarchy();
            let flops = emit(512, &mut h);
            h.flush();
            (h.report(), flops)
        };
        assert_eq!(per_engine(mbb_ir::Engine::Runs), per_engine(mbb_ir::Engine::Scalar));
    }
}
