//! Radix-2 Cooley–Tukey FFT as a traced native kernel.
//!
//! The FFT's bit-reversal permutation and power-of-two strides are not
//! affine, so this workload lives outside the loop IR: it is ordinary Rust
//! over [`TracedArray`]s, emitting the same byte-accurate access stream the
//! interpreter would, plus an exact flop count.  This is the `FFT` row of
//! Figure 1.

use mbb_ir::runs::emit_runs;
use mbb_ir::trace::{AccessKind, AccessSink};
use mbb_memsim::arena::{Arena, TracedArray};

/// Result of one traced FFT run.
#[derive(Clone, Debug)]
pub struct FftRun {
    /// Flops executed (real additions + multiplications).
    pub flops: u64,
    /// Final spectrum (interleaved re/im), for correctness checks.
    pub re: Vec<f64>,
    /// Imaginary parts.
    pub im: Vec<f64>,
}

/// In-place iterative radix-2 DIT FFT over `n = 2^k` points, streaming
/// every array access into `sink`.
///
/// Twiddle factors are precomputed into traced tables (as a library
/// implementation would), so they participate in the traffic measurement.
///
/// # Panics
/// Panics unless `n` is a power of two ≥ 2.
pub fn fft_traced(n: usize, sink: &mut (impl AccessSink + ?Sized)) -> FftRun {
    assert!(n.is_power_of_two() && n >= 2, "n must be a power of two ≥ 2");
    let mut arena = Arena::new();
    // Interleaved complex data (`d[2k]` = re, `d[2k+1]` = im), as real FFT
    // libraries store it — separate re/im planes at power-of-two distances
    // would conflict in the cache.
    let mut d = TracedArray::from_fn(&mut arena, 2 * n, |k| {
        if k % 2 == 0 {
            mbb_ir::interp::input_value(mbb_ir::SourceId(100), (k / 2) as u64) - 0.5
        } else {
            0.0
        }
    });
    // Stacked per-stage twiddles, interleaved (re, im): the stage with
    // half-length `h` reads entries `2h..4h` sequentially (the layout
    // production FFTs use; a strided walk of one big table would thrash).
    let angle = |h: usize, k: usize| -2.0 * std::f64::consts::PI * k as f64 / (2 * h) as f64;
    let tw = TracedArray::from_fn(&mut arena, 2 * n, |idx| {
        let (pos, is_im) = (idx / 2, idx % 2 == 1);
        if pos == 0 {
            return if is_im { 0.0 } else { 1.0 };
        }
        let h = 1usize << (usize::BITS - 1 - pos.leading_zeros());
        let a = angle(h, pos - h);
        if is_im {
            a.sin()
        } else {
            a.cos()
        }
    });

    let mut flops = 0u64;

    // Bit-reversal permutation (reads and writes traced via swaps).
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits().wrapping_shr(64 - bits) as usize;
        if j > i {
            let (ri, rj) = (d.get(2 * i, sink), d.get(2 * j, sink));
            d.set(2 * i, rj, sink);
            d.set(2 * j, ri, sink);
            let (ii, ij) = (d.get(2 * i + 1, sink), d.get(2 * j + 1, sink));
            d.set(2 * i + 1, ij, sink);
            d.set(2 * j + 1, ii, sink);
        }
    }

    // Butterfly stages.  Within one `(len, base)` block every reference
    // advances by one complex element (two cells) per butterfly, so the
    // ten accesses of the loop body compile to ten run descriptors; the
    // iteration-major expansion order of `access_runs` is exactly the
    // order the per-element loop used to emit.  The arithmetic runs on
    // the raw cells — the trace it would have produced is the run bundle.
    let mut len = 2usize;
    while len <= n {
        let halflen = len / 2;
        let mut base = 0;
        while base < n {
            let (pa0, pb0) = (2 * base, 2 * (base + halflen));
            let tw0 = 2 * halflen; // stacked layout: sequential
            let refs = [
                tw.run_ref(tw0, 2, AccessKind::Read),
                tw.run_ref(tw0 + 1, 2, AccessKind::Read),
                d.run_ref(pa0, 2, AccessKind::Read),
                d.run_ref(pa0 + 1, 2, AccessKind::Read),
                d.run_ref(pb0, 2, AccessKind::Read),
                d.run_ref(pb0 + 1, 2, AccessKind::Read),
                d.run_ref(pa0, 2, AccessKind::Write),
                d.run_ref(pa0 + 1, 2, AccessKind::Write),
                d.run_ref(pb0, 2, AccessKind::Write),
                d.run_ref(pb0 + 1, 2, AccessKind::Write),
            ];
            emit_runs(sink, &refs, halflen as u64);
            let twv = tw.values();
            for k in 0..halflen {
                let tw_idx = tw0 + 2 * k;
                let (wr, wi) = (twv[tw_idx], twv[tw_idx + 1]);
                let (pa, pb) = (pa0 + 2 * k, pb0 + 2 * k);
                let dv = d.values_mut();
                let (ar, ai) = (dv[pa], dv[pa + 1]);
                let (br, bi) = (dv[pb], dv[pb + 1]);
                // t = w · b  (4 mul + 2 add)
                let tr = wr * br - wi * bi;
                let ti = wr * bi + wi * br;
                // a' = a + t, b' = a − t  (4 add)
                dv[pa] = ar + tr;
                dv[pa + 1] = ai + ti;
                dv[pb] = ar - tr;
                dv[pb + 1] = ai - ti;
                flops += 10;
            }
            base += len;
        }
        len *= 2;
    }

    let re = d.values().iter().step_by(2).copied().collect();
    let im = d.values().iter().skip(1).step_by(2).copied().collect();
    FftRun { flops, re, im }
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
        let n = 64;
        let input: Vec<f64> = (0..n)
            .map(|k| mbb_ir::interp::input_value(mbb_ir::SourceId(100), k as u64) - 0.5)
            .collect();
        let run = fft_traced(n, &mut NullSink);
        let (rr, ri) = dft(&input, &vec![0.0; n]);
        for k in 0..n {
            assert!((run.re[k] - rr[k]).abs() < 1e-9, "re[{k}]");
            assert!((run.im[k] - ri[k]).abs() < 1e-9, "im[{k}]");
        }
    }

    #[test]
    fn flop_count_is_5nlogn() {
        let n = 256u64;
        let run = fft_traced(n as usize, &mut NullSink);
        assert_eq!(run.flops, 10 * (n / 2) * n.trailing_zeros() as u64);
    }

    #[test]
    fn trace_volume_matches_butterflies() {
        let n = 128u64;
        let mut c = CountingSink::new();
        let run = fft_traced(n as usize, &mut c);
        // Each butterfly: 6 reads + 4 writes; plus the bit-reversal swaps.
        let butterflies = (n / 2) * n.trailing_zeros() as u64;
        assert!(c.reads >= 6 * butterflies);
        assert!(c.writes >= 4 * butterflies);
        assert!(run.flops > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = fft_traced(100, &mut NullSink);
    }

    #[test]
    fn fft_traffic_is_engine_invariant() {
        let machine = mbb_memsim::machine::MachineModel::origin2000();
        let per_engine = |e| {
            let _g = mbb_ir::runs::install(e);
            let mut h = machine.hierarchy();
            let run = fft_traced(512, &mut h);
            h.flush();
            (h.report(), run.flops)
        };
        assert_eq!(per_engine(mbb_ir::Engine::Runs), per_engine(mbb_ir::Engine::Scalar));
    }
}
