//! Smoke test: every workload, untraced and traced, at tiny sizes against
//! freshly built binaries; plus the checks that keep `BENCHMARK.json` and
//! the build profile honest.

use std::path::{Path, PathBuf};
use std::process::Command;

use mbb_bench::json::Json;
use mbb_benchmark::{run, Bins, Workload, END_TO_END, PER_LAYER};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ sits in the repository")
}

/// Builds the shipped binaries into the root's own `target/` (never the
/// directory this test was built in, whose lock Cargo may hold).
fn bins() -> Bins {
    let target = root().join("target");
    let status = Command::new(env!("CARGO"))
        .current_dir(root())
        .env("CARGO_TARGET_DIR", &target)
        .args(["build", "--release", "--offline", "--quiet", "-p", "mbb-cli", "-p", "mbb-bench"])
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building mbbc and repro failed");
    let bins = Bins::new(target.join("release"));
    bins.check_fresh().expect("fresh binaries");
    bins
}

/// The `name`/`unit` pairs of one metric list in `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else { panic!("BENCHMARK.json lacks {key}") };
    items
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_exactly_what_the_runs_report() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
        xs.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    let Some(Json::Arr(ws)) = doc.get("workloads") else { panic!("workloads") };
    let names: Vec<_> = ws.iter().filter_map(|w| w.get("name").and_then(Json::as_str)).collect();
    let want: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, want);
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest");
    text.lines()
        .map(|l| l.split('#').next().unwrap_or_default().trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect()
}

#[test]
fn release_profile_matches_the_shipped_binaries() {
    let ours = release_profile(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    assert!(!ours.is_empty());
    assert_eq!(ours, release_profile(&root().join("Cargo.toml")));
}

#[test]
fn every_workload_runs_checks_and_reports_at_tiny_sizes() {
    let bins = bins();
    for w in Workload::ALL {
        let out = run(&bins, w, mbb_benchmark::inputs::DEFAULT_SEED, 0.05, false)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(out.correct(), "{}: {:?}", w.name(), out.notes);
        assert_eq!(out.failed, 0, "{}: error rate must be 0", w.name());
        for (name, value, _) in out.reported(false) {
            assert!(value > 0.0, "{}: {name} = {value}", w.name());
        }
        let line = out.to_json(false).render_compact();
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{line}");
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "{line}");
        }

        let traced = run(&bins, w, mbb_benchmark::inputs::DEFAULT_SEED, 0.05, true)
            .unwrap_or_else(|e| panic!("{} traced: {e}", w.name()));
        assert!(traced.correct(), "{} traced: {:?}", w.name(), traced.notes);
        let reported = traced.reported(true);
        assert_eq!(reported.len(), PER_LAYER.len());
        let coverage = reported.iter().find(|m| m.0 == "replay.coverage").expect("coverage").1;
        // Only the reproduction's ledger is complete yet; a server request
        // spends part of its latency in stages the replay does not reach.
        let least = if w == Workload::Repro { 0.95 } else { f64::MIN_POSITIVE };
        assert!(
            coverage >= least && coverage.is_finite(),
            "{}: replay.coverage {coverage}",
            w.name()
        );
    }
}
