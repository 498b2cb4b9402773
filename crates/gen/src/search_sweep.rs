//! Corpus-scale autotuner sweeps (schema `mbb-search-sweep/1`).
//!
//! A search sweep generates a batch of programs across all template
//! families and runs the `mbb-search` beam search on each, recording the
//! fixed pipeline's balance next to the search winner's and whether the
//! search ever landed above its fixed-pipeline floor.  The nightly
//! `search-sweep` job archives one `SEARCH_<run_id>.json` per night, so
//! the autotuner's win-rate over generated program space accumulates a
//! trajectory alongside the `BENCH_*.json` perf-gate artifacts.
//!
//! Worker threads share one score cache (the concurrent single-flight
//! path the server exercises), but every recorded field is a pure
//! function of `(params, beam, steps, seed)`: rows carry no cache or
//! timing counters, so documents produced under different `--jobs` are
//! byte-identical — the `search-smoke` CI lane diffs them.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use mbb_core::balance::measure_program_balance;
use mbb_ir::runs::{self, Engine};
use mbb_memsim::MachineModel;
use mbb_obs::json::Json;
use mbb_search::{ScoreCache, SearchOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::templates::{self, Params};

/// The search-sweep document schema identifier.
pub const SCHEMA: &str = "mbb-search-sweep/1";

/// Settings for one search sweep.
#[derive(Clone, Copy, Debug)]
pub struct SearchSweepConfig {
    /// Number of programs to generate.
    pub count: u32,
    /// Base seed (each program gets an independent derived stream).
    pub seed: u64,
    /// Extent multiplier.
    pub scale: u32,
    /// Beam width handed to the search.
    pub beam: usize,
    /// Expansion steps handed to the search.
    pub steps: usize,
    /// Worker threads (affects wall clock only, never the document).
    pub jobs: usize,
}

impl Default for SearchSweepConfig {
    fn default() -> Self {
        SearchSweepConfig {
            count: 50,
            seed: crate::fuzz::DEFAULT_SEED,
            scale: 1,
            beam: mbb_search::engine::DEFAULT_BEAM,
            steps: mbb_search::engine::DEFAULT_STEPS,
            jobs: 1,
        }
    }
}

/// One program's sweep record, or the error that stopped it.
fn sweep_one(
    params: Params,
    cfg: &SearchSweepConfig,
    machine: &MachineModel,
    cache: &ScoreCache,
) -> Result<Json, String> {
    let prog = templates::generate(params, cfg.scale);
    let before = {
        let _g = runs::install(Engine::Runs);
        measure_program_balance(&prog, machine).map_err(|e| e.to_string())?
    };
    let sopts = SearchOptions {
        machine: machine.clone(),
        beam: cfg.beam,
        steps: cfg.steps,
        ..SearchOptions::default()
    };
    let out = mbb_search::search_with_cache(&prog, &sopts, cache).map_err(|e| e.to_string())?;
    let fixed = out.fixed_score.memory();
    let best = out.best_score.memory();
    Ok(Json::obj([
        ("name", Json::str(prog.name.clone())),
        ("family", Json::str(params.family_name())),
        ("n", Json::UInt(u64::from(params.n))),
        ("k", Json::UInt(u64::from(params.k))),
        ("detail", Json::str(format!("{:#x}", params.detail))),
        ("nests", Json::UInt(prog.nests.len() as u64)),
        ("balance_before", Json::num(before.memory())),
        ("balance_fixed", Json::num(fixed)),
        ("balance_best", Json::num(best)),
        ("fixed_spec", Json::str(out.trace.fixed_spec.clone())),
        ("best_spec", Json::str(out.trace.best_spec.clone())),
        ("improved", Json::Bool(out.trace.improved)),
        ("never_worse", Json::Bool(best <= fixed)),
        ("visited", Json::UInt(out.trace.visited)),
        ("pruned", Json::UInt(out.trace.pruned)),
        ("steps_run", Json::UInt(out.trace.steps_run as u64)),
        (
            "replay",
            Json::str(format!(
                "cargo run --release -p mbb-gen --bin gen -- replay --family {} \
                 --n {} --k {} --detail {:#x} --scale {}",
                params.family_name(),
                params.n,
                params.k,
                params.detail,
                cfg.scale
            )),
        ),
    ]))
}

/// Runs a search sweep and returns the `mbb-search-sweep/1` document.
/// Rows are ordered by generation index regardless of which worker
/// finished first.
pub fn search_sweep(cfg: &SearchSweepConfig, progress: impl Fn(u32, Params) + Sync) -> Json {
    let machine = MachineModel::origin2000();
    // One fresh cache shared by all workers: concurrent searches
    // single-flight duplicate scorings, and nothing from earlier sweeps
    // can leak in.
    let cache = ScoreCache::new(1 << 14, 8);
    let rows: Mutex<Vec<(u32, Json)>> = Mutex::new(Vec::with_capacity(cfg.count as usize));
    let next = AtomicU32::new(0);
    let jobs = cfg.jobs.max(1);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= cfg.count {
                    break;
                }
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed ^ (u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                let params = templates::sample_params(&mut rng);
                progress(k, params);
                let rec = match sweep_one(params, cfg, &machine, &cache) {
                    Ok(rec) => rec,
                    Err(e) => Json::obj([
                        ("family", Json::str(params.family_name())),
                        ("detail", Json::str(format!("{:#x}", params.detail))),
                        ("error", Json::str(e)),
                    ]),
                };
                rows.lock().unwrap_or_else(|p| p.into_inner()).push((k, rec));
            });
        }
    });
    let mut rows = rows.into_inner().unwrap_or_else(|p| p.into_inner());
    rows.sort_by_key(|(k, _)| *k);

    let mut improved = 0u64;
    let mut never_worse = true;
    let mut errors = 0u64;
    for (_, rec) in &rows {
        if rec.get("error").is_some() {
            errors += 1;
            continue;
        }
        if rec.get("improved") == Some(&Json::Bool(true)) {
            improved += 1;
        }
        if rec.get("never_worse") == Some(&Json::Bool(false)) {
            never_worse = false;
        }
    }
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("seed", Json::UInt(cfg.seed)),
        ("count", Json::UInt(u64::from(cfg.count))),
        ("scale", Json::UInt(u64::from(cfg.scale))),
        ("beam", Json::UInt(cfg.beam as u64)),
        ("steps", Json::UInt(cfg.steps as u64)),
        (
            "summary",
            Json::obj([
                ("improved", Json::UInt(improved)),
                ("never_worse", Json::Bool(never_worse)),
                ("errors", Json::UInt(errors)),
            ]),
        ),
        ("programs", Json::Arr(rows.into_iter().map(|(_, rec)| rec).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_sweep_document_shape_and_floor() {
        let cfg = SearchSweepConfig { count: 4, seed: 7, beam: 2, steps: 2, ..Default::default() };
        let doc = search_sweep(&cfg, |_, _| {});
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let Some(Json::Arr(programs)) = doc.get("programs") else { panic!("missing programs") };
        assert_eq!(programs.len(), 4);
        for p in programs {
            assert!(p.get("error").is_none(), "unexpected sweep error: {}", p.render());
            assert_eq!(p.get("never_worse"), Some(&Json::Bool(true)), "{}", p.render());
        }
        assert_eq!(doc.get("summary").and_then(|s| s.get("never_worse")), Some(&Json::Bool(true)));
        // The document survives its own parser (CI consumes it with jq).
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn search_sweep_is_byte_identical_across_job_counts() {
        let serial = SearchSweepConfig {
            count: 6,
            seed: 11,
            beam: 2,
            steps: 2,
            jobs: 1,
            ..Default::default()
        };
        let threaded = SearchSweepConfig { jobs: 3, ..serial };
        let a = search_sweep(&serial, |_, _| {}).render();
        let b = search_sweep(&threaded, |_, _| {}).render();
        assert_eq!(a, b, "worker count must never reach the document");
    }
}
