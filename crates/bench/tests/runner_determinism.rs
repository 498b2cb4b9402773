//! The parallel runner's contract: worker count changes wall-clock, never
//! output.  These tests run *real* paper jobs (the fast ones) at several
//! worker counts and require byte-identical reports and JSON modulo the
//! timing fields.  (Job ordering and panic propagation are covered by the
//! runner's unit tests with toy jobs.)

use std::time::Duration;

use mbb_bench::experiments::Sizes;
use mbb_bench::runner::{
    paper_jobs, render_report, render_timing, results_to_json, run_jobs, strip_timing, Ctx, Job,
};
use mbb_obs::json::Json;

fn ctx() -> Ctx {
    Ctx { sizes: Sizes::quick(), quick: true }
}

/// The sub-second registry entries — enough to exercise real simulations
/// without running the multi-second figures in a debug-build test.
fn fast_jobs() -> Vec<Job> {
    paper_jobs().into_iter().filter(|j| matches!(j.name, "sec21" | "fig4" | "fig6")).collect()
}

#[test]
fn registry_names_are_unique_and_complete() {
    let jobs = paper_jobs();
    assert_eq!(jobs.len(), 10);
    let mut names: Vec<_> = jobs.iter().map(|j| j.name).collect();
    assert_eq!(
        names,
        ["sec21", "fig1", "fig2", "fig3", "sp", "scaling", "fig4", "fig6", "opt", "fig8"],
        "registry must keep the paper's presentation order"
    );
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), jobs.len(), "selector names must be unique");
}

#[test]
fn tables_are_byte_identical_across_worker_counts() {
    let jobs = fast_jobs();
    let serial = render_report(&run_jobs(&jobs, &ctx(), 1));
    for threads in [2, 4] {
        let parallel = render_report(&run_jobs(&jobs, &ctx(), threads));
        assert_eq!(serial, parallel, "report changed at --jobs {threads}");
    }
    for j in &jobs {
        assert!(serial.contains(&format!("-- {} --", j.title)), "{serial}");
    }
}

#[test]
fn json_is_identical_across_worker_counts_modulo_timing() {
    let jobs = fast_jobs();
    let total = Duration::from_secs(1);
    let mut serial = results_to_json(&run_jobs(&jobs, &ctx(), 1), "quick", 1, total);
    strip_timing(&mut serial);
    let mut parallel = results_to_json(&run_jobs(&jobs, &ctx(), 4), "quick", 4, total);
    strip_timing(&mut parallel);
    assert_eq!(serial, parallel);
    assert_eq!(serial.render(), parallel.render(), "rendered documents must match too");

    // The stripped document still carries the experiment payloads.
    let Some(Json::Arr(exps)) = serial.get("experiments") else { panic!("experiments") };
    assert_eq!(exps.len(), jobs.len());
    let fig4 = exps.iter().find(|e| e.get("name") == Some(&Json::str("fig4"))).unwrap();
    assert_eq!(
        fig4.get("data").and_then(|d| d.get("bandwidth_minimal")),
        Some(&Json::UInt(7)),
        "fig4 payload must survive stripping with the paper's value"
    );
}

#[test]
fn timing_report_covers_every_job_plus_total() {
    let jobs = fast_jobs();
    let results = run_jobs(&jobs, &ctx(), 2);
    let timing = render_timing(&results, Duration::from_millis(100), 2);
    for j in &jobs {
        assert!(timing.contains(j.name), "{timing}");
    }
    assert!(timing.contains("total (2 workers)"), "{timing}");
    // Real simulations must have ticked the odometer.
    assert!(results.iter().any(|r| r.events > 0), "no simulated events recorded");
}
