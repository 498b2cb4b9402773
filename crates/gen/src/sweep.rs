//! Corpus-scale benchmark sweeps (schema `mbb-gen-sweep/1`).
//!
//! A sweep generates a batch of programs across all template families,
//! optimizes each, runs both engines, and records per-program traffic and
//! balance before/after optimization as one JSON document.  The nightly
//! `corpus-sweep` job archives these next to the `BENCH_*.json` perf-gate
//! artifacts, so the optimizer's win-rate over the generated program
//! space accumulates one trajectory point per night.

use mbb_core::balance::measure_program_balance;
use mbb_core::pipeline::{optimize, OptimizeOptions};
use mbb_ir::runs::{self, Engine};
use mbb_memsim::MachineModel;
use mbb_obs::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fuzz::replay_command;
use crate::templates::{self, Params};

/// The sweep document schema identifier.
pub const SCHEMA: &str = "mbb-gen-sweep/1";

/// Settings for one sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Number of programs to generate.
    pub count: u32,
    /// Base seed (each program gets an independent derived stream).
    pub seed: u64,
    /// Extent multiplier (the nightly passes a large factor; per-rank caps
    /// in the generator keep rank-2/3 programs simulable).
    pub scale: u32,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { count: 50, seed: crate::fuzz::DEFAULT_SEED, scale: 1 }
    }
}

/// One program's sweep record, or the error that stopped it.
fn sweep_one(params: Params, scale: u32, machine: &MachineModel) -> Result<Json, String> {
    let prog = templates::generate(params, scale);
    let before = measure_program_balance(&prog, machine).map_err(|e| e.to_string())?;
    let optimized = optimize(&prog, OptimizeOptions::default()).program;
    let after = measure_program_balance(&optimized, machine).map_err(|e| e.to_string())?;

    // Engine agreement on the optimized program, recorded rather than
    // asserted: the sweep is a survey, the fuzz lane is the gate.
    let obs_runs = {
        let _g = runs::install(Engine::Runs);
        mbb_ir::run(&optimized).map_err(|e| e.to_string())?.observation
    };
    let obs_scalar = {
        let _g = runs::install(Engine::Scalar);
        mbb_ir::run(&optimized).map_err(|e| e.to_string())?.observation
    };
    let engines_agree = obs_scalar.diff(&obs_runs, 0.0).is_none();

    let mem_before = before.report.mem_bytes();
    let mem_after = after.report.mem_bytes();
    Ok(Json::obj([
        ("name", Json::str(prog.name.clone())),
        ("family", Json::str(params.family_name())),
        ("n", Json::UInt(u64::from(params.n))),
        ("k", Json::UInt(u64::from(params.k))),
        ("detail", Json::str(format!("{:#x}", params.detail))),
        ("nests", Json::UInt(prog.nests.len() as u64)),
        ("arrays", Json::UInt(prog.arrays.len() as u64)),
        ("storage_bytes", Json::UInt(prog.storage_bytes() as u64)),
        ("flops", Json::UInt(before.flops)),
        ("mem_bytes_before", Json::UInt(mem_before)),
        ("mem_bytes_after", Json::UInt(mem_after)),
        ("balance_before", Json::num(before.memory())),
        ("balance_after", Json::num(after.memory())),
        ("improved", Json::Bool(mem_after < mem_before)),
        ("engines_agree", Json::Bool(engines_agree)),
        (
            "replay",
            Json::str(replay_command(params, &crate::fuzz::Config { scale, ..Default::default() })),
        ),
    ]))
}

/// Runs a sweep and returns the `mbb-gen-sweep/1` document.
pub fn sweep(cfg: &SweepConfig, mut progress: impl FnMut(u32, Params)) -> Json {
    let machine = MachineModel::origin2000();
    let mut programs = Vec::new();
    let mut improved = 0u64;
    let mut agree = 0u64;
    let mut errors = 0u64;
    for k in 0..cfg.count {
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ (u64::from(k).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let params = templates::sample_params(&mut rng);
        progress(k, params);
        match sweep_one(params, cfg.scale, &machine) {
            Ok(rec) => {
                if rec.get("improved") == Some(&Json::Bool(true)) {
                    improved += 1;
                }
                if rec.get("engines_agree") == Some(&Json::Bool(true)) {
                    agree += 1;
                }
                programs.push(rec);
            }
            Err(e) => {
                errors += 1;
                programs.push(Json::obj([
                    ("family", Json::str(params.family_name())),
                    ("detail", Json::str(format!("{:#x}", params.detail))),
                    ("error", Json::str(e)),
                ]));
            }
        }
    }
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("seed", Json::UInt(cfg.seed)),
        ("count", Json::UInt(u64::from(cfg.count))),
        ("scale", Json::UInt(u64::from(cfg.scale))),
        (
            "summary",
            Json::obj([
                ("improved", Json::UInt(improved)),
                ("engines_agree", Json::UInt(agree)),
                ("errors", Json::UInt(errors)),
            ]),
        ),
        ("programs", Json::Arr(programs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_document_shape() {
        let cfg = SweepConfig { count: 4, seed: 7, scale: 1 };
        let doc = sweep(&cfg, |_, _| {});
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let Some(Json::Arr(programs)) = doc.get("programs") else { panic!("missing programs") };
        assert_eq!(programs.len(), 4);
        for p in programs {
            assert!(p.get("error").is_none(), "unexpected sweep error: {}", p.render());
            assert_eq!(p.get("engines_agree"), Some(&Json::Bool(true)));
        }
        // The document survives its own parser (CI consumes it with jq).
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
