//! The workloads and their inputs: request streams that are a pure
//! function of the seed, and the digests that pin them.

use mbb_gen::templates::{generate, Params, FAMILY_COUNT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed `benchmark/run.sh` uses when none is given; its stream
/// digests are recorded in `expected_digests.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Programs in the `hit` pool (each sent as `report` and as `optimize`).
pub const HIT_PROGRAMS: usize = 16;

/// Request lines a stream digest covers.
const DIGEST_LINES: usize = 64;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two clients alternate `report`/`optimize` over a warmed pool: every
    /// request is a cache hit.
    Hit,
    /// One client sends `optimize-search` on distinct small programs:
    /// every request is a miss, a cache insert, a beam search and the
    /// balance simulations around it.
    SearchCold,
    /// Sequential `repro all --quick --jobs 1` runs, each a fresh process.
    Repro,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Hit, Workload::SearchCold, Workload::Repro];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hit => "hit",
            Workload::SearchCold => "search-cold",
            Workload::Repro => "repro",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The operations (requests, or reproductions) in one pass of a run of
    /// `seconds`.  The count follows from `seconds` alone, never from the
    /// clock, so two commits send identical passes; only how many passes
    /// fit in the run depends on their speed.  On a 2-core Xeon VM a `hit`
    /// pass takes about a tenth of the run.  A `search-cold` pass takes
    /// about a quarter: its mean cost is set by a few heavy programs, and
    /// which of them a seed draws moved the mean of 180 programs by 8%
    /// between seeds, so a pass holds as many distinct programs as leave
    /// room for three passes.
    pub fn pass_len(self, seconds: f64) -> usize {
        let (per_second, least) = match self {
            Workload::Hit => (1_750.0, 2),
            Workload::SearchCold => (10.0, 1),
            Workload::Repro => return 1,
        };
        ((seconds * per_second).round() as usize).max(least)
    }

    /// Extents `n` and chain lengths `k` the workload's programs cycle
    /// through (see [`cell`]).
    fn grid(self) -> (&'static [u32], &'static [u32]) {
        match self {
            Workload::Hit => (&[8, 24], &[1, 2, 4]),
            Workload::SearchCold => (&[4, 10, 16], &[1, 2, 3]),
            Workload::Repro => (&[], &[]),
        }
    }
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// The wire line, newline included.
    pub line: String,
    /// The program source it carries.
    pub program: String,
}

/// The template coordinates of request `i`: family, extent and length
/// follow a fixed cycle over the workload's grid, so every seed has the
/// same mix of program shapes and costs; only the `detail` draw (operators,
/// guards, shifts) comes from the seed.  The spread between seeds is then
/// not set by how many large programs a seed happened to draw.
fn cell(w: Workload, i: usize, detail: u64) -> Params {
    let (ns, ks) = w.grid();
    let families = usize::from(FAMILY_COUNT);
    let r = i / families;
    Params {
        family: (i % families) as u8,
        n: ns[(r / ks.len()) % ns.len()],
        k: ks[r % ks.len()],
        detail,
    }
}

fn request(kind: &str, program: String) -> Request {
    let mut line = mbb_server::client::request(kind, Some(&program), "").render_compact();
    line.push('\n');
    Request { line, program }
}

/// The request stream of a server workload: the 32-line pool for `hit`
/// (program `j` as `report` at `2j`, as `optimize` at `2j + 1`), or the
/// first `len` requests for a cold workload.
pub fn stream(w: Workload, seed: u64, len: usize) -> Vec<Request> {
    let salt = mbb_core::canon::fnv1a(w.name().as_bytes());
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let programs = if w == Workload::Hit { HIT_PROGRAMS } else { len };
    let mut out = Vec::with_capacity(programs * 2);
    for i in 0..programs {
        let src = mbb_ir::pretty::program(&generate(cell(w, i, rng.next_u64()), 1));
        match w {
            Workload::Hit => {
                out.push(request("report", src.clone()));
                out.push(request("optimize", src));
            }
            Workload::SearchCold => out.push(request("optimize-search", src)),
            Workload::Repro => unreachable!("repro sends no requests"),
        }
    }
    out
}

/// FNV-1a of `text`, as the 16-hex-digit string the digest file records.
pub fn digest(text: &str) -> String {
    format!("{:016x}", mbb_core::canon::fnv1a(text.as_bytes()))
}

/// The identity digest of a server workload's stream: its first request
/// lines, which fix the generator templates and the request rendering.
pub fn stream_digest(w: Workload, seed: u64) -> String {
    digest(&stream(w, seed, DIGEST_LINES).iter().map(|r| r.line.as_str()).collect::<String>())
}

/// The recorded default-seed digest of `w`.
pub fn expected_digest(w: Workload) -> String {
    let doc = mbb_bench::json::Json::parse(include_str!("../expected_digests.json"))
        .expect("expected_digests.json is valid JSON");
    let seed = doc.get("seed").and_then(|s| s.as_f64());
    assert_eq!(seed, Some(DEFAULT_SEED as f64), "expected_digests.json records the default seed");
    doc.get(w.name()).and_then(|d| d.as_str()).unwrap_or_default().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        for w in [Workload::Hit, Workload::SearchCold] {
            let a = stream_digest(w, 7);
            assert_eq!(a, stream_digest(w, 7), "{w:?}");
            assert_ne!(a, stream_digest(w, 8), "{w:?}");
        }
    }

    #[test]
    fn default_seed_digests_match_the_record() {
        for w in [Workload::Hit, Workload::SearchCold] {
            assert_eq!(stream_digest(w, DEFAULT_SEED), expected_digest(w), "{w:?}");
        }
    }

    #[test]
    fn cold_streams_cover_their_grid_in_each_cycle() {
        let w = Workload::SearchCold;
        let (ns, ks) = w.grid();
        let cycle = usize::from(FAMILY_COUNT) * ns.len() * ks.len();
        let mut cells: Vec<_> =
            (0..cycle).map(|i| cell(w, i, 0)).map(|p| (p.family, p.n, p.k)).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), cycle);
    }

    #[test]
    fn search_programs_stay_small() {
        for i in 0..90 {
            let p = cell(Workload::SearchCold, i, 0);
            assert!(p.n <= 16 && p.k <= 3, "{p:?}");
        }
    }

    #[test]
    fn hit_pool_pairs_report_and_optimize() {
        let pool = stream(Workload::Hit, 3, 0);
        assert_eq!(pool.len(), 2 * HIT_PROGRAMS);
        assert!(pool[0].line.contains("\"kind\":\"report\""));
        assert!(pool[1].line.contains("\"kind\":\"optimize\""));
        assert_eq!(pool[0].program, pool[1].program);
    }
}
