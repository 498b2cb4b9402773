//! End-to-end and per-layer benchmark of the shipped `mbbc serve` and
//! `repro` binaries.  `README.md` explains the workloads and metrics;
//! `benchmark/run.sh` builds everything and runs [`run`].

mod calib;
mod child;
pub mod inputs;
mod replay;
mod repro;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mbb_bench::json::Json;

pub use inputs::Workload;

/// The end-to-end metrics: every untraced run reports each one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics: every traced run reports each one, and a layer
/// the workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("server.cpu_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("protocol.decode_us", "us"),
    ("ir.load_us", "us"),
    ("core.canon_us", "us"),
    ("cache.lookup_us", "us"),
    ("protocol.encode_us", "us"),
    ("analysis.report_ms", "ms"),
    ("analysis.search_ms", "ms"),
    ("analysis.sim_passes", "count"),
    ("memsim.setup_ms", "ms"),
    ("ir.interp_ms", "ms"),
    ("memsim.walk_ms", "ms"),
    ("memsim.flush_ms", "ms"),
    ("memsim.events", "count"),
    ("memsim.walk_mev_s", "Mev/s"),
    ("search.search_ms", "ms"),
    ("search.visited", "count"),
    ("search.scored", "count"),
    ("search.pruned_ratio", "ratio"),
    ("search.score_hit_ratio", "ratio"),
    ("search.ms_per_scored", "ms"),
    ("core.balance_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("runner.sec21_s", "s"),
    ("runner.sec21_mev_s", "Mev/s"),
    ("runner.fig1_s", "s"),
    ("runner.fig1_mev_s", "Mev/s"),
    ("runner.fig3_s", "s"),
    ("runner.fig3_mev_s", "Mev/s"),
    ("runner.sp_s", "s"),
    ("runner.sp_mev_s", "Mev/s"),
    ("runner.opt_s", "s"),
    ("runner.opt_mev_s", "Mev/s"),
    ("runner.fig8_s", "s"),
    ("runner.fig8_mev_s", "Mev/s"),
    ("perfgate.triad_mev_s", "Mev/s"),
    ("perfgate.fft_mev_s", "Mev/s"),
    ("perfgate.sweep3d_mev_s", "Mev/s"),
    ("perfgate.search_mev_s", "Mev/s"),
    // The ledger invariant: replayed layer self-times ÷ the clients' mean
    // latency for the same requests.
    ("replay.coverage", "ratio"),
];

/// The binaries under test and a scratch directory beside them.
pub struct Bins {
    dir: PathBuf,
}

impl Bins {
    /// Binaries in `dir` (a Cargo `release` directory).
    pub fn new(dir: impl Into<PathBuf>) -> Bins {
        Bins { dir: dir.into() }
    }

    /// `mbbc`.
    pub fn mbbc(&self) -> PathBuf {
        self.dir.join("mbbc")
    }

    /// `repro`.
    pub fn repro(&self) -> PathBuf {
        self.dir.join("repro")
    }

    /// Refuses missing or stale binaries.
    pub fn check_fresh(&self) -> Result<(), String> {
        child::check_fresh(&self.mbbc())?;
        child::check_fresh(&self.repro())
    }

    /// A private scratch directory for files the binaries write.
    pub fn scratch(&self) -> std::io::Result<PathBuf> {
        let d = self.dir.join("benchmark-scratch");
        std::fs::create_dir_all(&d)?;
        Ok(d)
    }
}

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests, or reproductions.
    pub attempted: u64,
    /// Failed operations and failed output checks.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
    /// The identity digest of the workload's inputs.
    pub digest: String,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// How much slower than on the reference host an untraced run found
    /// the host; its timings are divided by this.
    pub slowdown: Option<f64>,
}

impl Outcome {
    fn new(digest: String) -> Outcome {
        Outcome { digest, ..Outcome::default() }
    }

    /// Records one failure.
    fn fail(&mut self, note: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    /// Records a failure unless `ok`.
    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.fail(note());
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// True when every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric table the run reports: every end-to-end metric, or with
    /// `trace` every per-layer metric.
    pub fn reported(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let names: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        names
            .iter()
            .map(|&(name, unit)| (name, self.metrics.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self, trace: bool) -> Json {
        let metrics = self.reported(trace).into_iter().map(|(name, value, unit)| {
            (name, Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Aborts a run whose default-seed inputs no longer match the recorded
/// digest: a change to the generator templates or to request rendering
/// would otherwise silently swap the workload.
fn guard_inputs(w: Workload, seed: u64, digest: &str) -> Result<(), String> {
    let want = inputs::expected_digest(w);
    if seed == inputs::DEFAULT_SEED && digest != want {
        return Err(format!(
            "{} inputs changed: digest {digest}, expected {want} (benchmark/expected_digests.json)",
            w.name()
        ));
    }
    Ok(())
}

/// Runs one workload for `seconds`: untraced for the end-to-end metrics,
/// or traced for the per-layer ones.
pub fn run(
    bins: &Bins,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    match w {
        Workload::Repro => repro::run(bins, seconds, trace),
        _ => serve::run(bins, w, seed, seconds, trace),
    }
}

/// Milliseconds in `d`.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of `xs`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied().unwrap_or(0.0)
}

/// Passes every run makes, however long a pass takes: two, so that every
/// run can compare a pass's outputs with another's.
const MIN_PASSES: usize = 2;

/// Calls `pass` with 0, 1, 2, … until at least [`MIN_PASSES`] have run and
/// the next, if it took as long as the last, would end more than `seconds`
/// after the first began.  A run thus lasts about `seconds` on any host,
/// and a faster commit fits more passes of the same operations.  Calls
/// `reference` before the first pass and after each, and returns what
/// those calls returned.
fn for_passes(
    seconds: f64,
    mut reference: impl FnMut() -> f64,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut references = vec![reference()];
    for i in 0.. {
        let t = Instant::now();
        pass(i)?;
        references.push(reference());
        let next_end = start.elapsed() + t.elapsed();
        if i + 1 >= MIN_PASSES && next_end.as_secs_f64() > seconds {
            break;
        }
    }
    Ok(references)
}

/// Runs the passes of an untraced run (see [`for_passes`]) with the host
/// reference timed around them, and returns how much slower than
/// [`calib::NOMINAL_S`] the host ran it on average.
fn timed_passes(
    seconds: f64,
    pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let times = for_passes(seconds, calib::time, pass)?;
    Ok(times.iter().sum::<f64>() / times.len() as f64 / calib::NOMINAL_S)
}

/// What the passes of an untraced run measured.  Every pass sends the
/// same operations in the same order after a fresh set-up.  A shared host
/// runs slow and fast phases of seconds to minutes, so every metric is a
/// mean or median over the whole run rather than its best moment: an
/// operation's latency is its mean over the passes, and throughput counts
/// every pass.  Every timing is then divided by the host's slowdown on
/// the reference work in the same run (see [`calib`]).
#[derive(Debug, Default)]
struct Passes {
    setups_s: Vec<f64>,
    /// Per operation, in the order sent, its summed latency over the passes.
    sum_ms: Vec<f64>,
    passes: u32,
    ops: u64,
    busy: Duration,
    peak_rss: Vec<f64>,
}

impl Passes {
    /// Adds one pass: its set-up time, its operations' latencies in the
    /// order sent, its wall time, and the peak RSS of what it measured.
    fn add(&mut self, setup_s: f64, latencies_ms: &[f64], wall: Duration, peak_rss: u64) {
        self.setups_s.push(setup_s);
        self.sum_ms.resize(latencies_ms.len().max(self.sum_ms.len()), 0.0);
        for (sum, &l) in self.sum_ms.iter_mut().zip(latencies_ms) {
            *sum += l;
        }
        self.passes += 1;
        self.ops += latencies_ms.len() as u64;
        self.busy += wall;
        self.peak_rss.push(peak_rss as f64);
    }

    /// Records the end-to-end metrics, each timing divided by the host's
    /// `slowdown` on the reference work.
    fn report(&self, slowdown: f64, out: &mut Outcome) {
        let passes = f64::from(self.passes.max(1));
        let mean_ms: Vec<f64> = self.sum_ms.iter().map(|s| s / passes / slowdown).collect();
        let busy_s = self.busy.as_secs_f64() / slowdown;
        out.slowdown = Some(slowdown);
        out.set("setup_s", quantile(&self.setups_s, 0.5) / slowdown);
        out.set("throughput_ops", self.ops as f64 / busy_s.max(f64::MIN_POSITIVE));
        out.set("latency_p50_ms", quantile(&mean_ms, 0.5));
        out.set("latency_p90_ms", quantile(&mean_ms, 0.9));
        out.set("peak_rss_mb", quantile(&self.peak_rss, 0.5) / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_average_each_operation_and_count_every_pass() {
        let mut p = Passes::default();
        p.add(0.3, &[4.0, 1.0, 9.0], Duration::from_secs(2), 10);
        p.add(0.1, &[2.0, 3.0, 9.5], Duration::from_secs(1), 30);
        p.add(0.2, &[6.0, 2.0, 8.5], Duration::from_secs(3), 20);
        let mut out = Outcome::default();
        p.report(1.0, &mut out);
        assert_eq!(out.metrics["setup_s"], 0.2);
        assert_eq!(out.metrics["throughput_ops"], 9.0 / 6.0);
        assert_eq!(out.metrics["latency_p50_ms"], 4.0);
        assert_eq!(out.metrics["latency_p90_ms"], 9.0);
        assert_eq!(out.metrics["peak_rss_mb"], 20.0 / 1e6);

        // On a host running the reference twice as slowly, every timing
        // reads half, and memory is unchanged.
        let mut slow = Outcome::default();
        p.report(2.0, &mut slow);
        assert_eq!(slow.metrics["setup_s"], 0.1);
        assert_eq!(slow.metrics["throughput_ops"], 3.0);
        assert_eq!(slow.metrics["latency_p50_ms"], 2.0);
        assert_eq!(slow.metrics["latency_p90_ms"], 4.5);
        assert_eq!(slow.metrics["peak_rss_mb"], 20.0 / 1e6);
    }

    #[test]
    fn passes_run_until_the_next_would_overrun() {
        let mut ran = 0;
        let refs = for_passes(
            0.0,
            || 1.0,
            |_| {
                ran += 1;
                Ok(())
            },
        )
        .expect("no pass fails");
        assert_eq!(ran, MIN_PASSES);
        assert_eq!(refs.len(), MIN_PASSES + 1, "the reference runs around every pass");
        let mut ran = 0;
        for_passes(
            0.05,
            || 1.0,
            |_| {
                ran += 1;
                std::thread::sleep(Duration::from_millis(10));
                Ok(())
            },
        )
        .expect("no pass fails");
        assert!((MIN_PASSES..=5).contains(&ran), "{ran} passes");
        let err = for_passes(1.0, || 1.0, |i| if i == 1 { Err("boom".into()) } else { Ok(()) });
        assert_eq!(err, Err("boom".to_string()));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.9), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
