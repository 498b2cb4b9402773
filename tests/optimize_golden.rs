//! Every `optimize` front-end pinned byte for byte.
//!
//! For every `tests/corpus/*.loop` program and three inline ones (Figure 7
//! at N = 64, where `--regroup` fires; a one-nest program; a program with
//! no loop nests) the test records:
//!
//! * `analysis::optimize` text and compact `data` under the default
//!   pipeline and each of its flags;
//! * `analysis::optimize_search` text and data;
//! * the `mbbc optimize --pipeline SPEC` replay's text (without its
//!   per-execution `simulation:` line) for the search's fixed and winning
//!   specs, each with and without `--regroup`.
//!
//! `{text, data}` is exactly the server's result payload, so the document
//! pins the served bytes too.  It must equal `tests/golden/optimize.txt`;
//! on a mismatch the actual document is written under the Cargo target
//! tmpdir and the failure prints the `cp` command that updates the golden.
//!
//! The same programs check that the fixed pipeline is the spec it
//! returns: replaying that spec reproduces the pipeline's program.

mod common;

use common::{assert_golden, programs, record, NO_NESTS};
use mbb::core::pipeline::{optimize, FusionStrategy, OptimizeOptions};
use mbb::core::spec::Candidate;
use mbb_server::analysis::{self, Analysis, Options, SearchParams};

/// The pipeline configurations `mbbc optimize` exposes, by their flags.
fn pipeline_flags() -> Vec<(&'static str, OptimizeOptions)> {
    let d = OptimizeOptions::default();
    vec![
        ("", d),
        ("--normalize", OptimizeOptions { normalize: true, ..d }),
        ("--bisection", OptimizeOptions { fusion: FusionStrategy::Bisection, ..d }),
        ("--exhaustive", OptimizeOptions { fusion: FusionStrategy::Exhaustive, ..d }),
        ("--no-fuse", OptimizeOptions { fusion: FusionStrategy::None, ..d }),
        (
            "--no-shrink --no-store-elim",
            OptimizeOptions { shrink: false, eliminate_stores: false, ..d },
        ),
    ]
}

/// An analysis as the server serves it: the text, then the compact data.
fn served(a: Analysis) -> String {
    format!("{}data: {}\n", a.text, a.data.render_compact())
}

fn document() -> String {
    let mut doc = String::new();
    for (name, src) in programs() {
        let p = analysis::load(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut configs: Vec<(&str, Options)> = pipeline_flags()
            .into_iter()
            .map(|(flags, pipeline)| (flags, Options { pipeline, ..Options::default() }))
            .collect();
        configs.push(("--regroup", Options { regroup: true, ..Options::default() }));
        for (flags, opts) in &configs {
            let title = format!("{name}: optimize {flags}");
            record(
                &mut doc,
                title.trim_end(),
                analysis::optimize(&p, opts).map(|(a, _)| served(a)),
            );
        }

        let search = analysis::optimize_search(&p, &Options::default(), &SearchParams::default())
            .map(|(a, _)| a);
        let specs = search.as_ref().ok().map(|a| {
            let spec = |key: &str| {
                let s = a.data.get("search").and_then(|s| s.get(key)).and_then(|s| s.as_str());
                s.expect("search data carries both specs").to_string()
            };
            [spec("fixed_spec"), spec("best_spec")]
        });
        record(&mut doc, &format!("{name}: optimize --search"), search.map(served));

        for spec in specs.iter().flatten() {
            for regroup in [false, true] {
                let opts = Options { regroup, ..Options::default() };
                let flags = if regroup { " --regroup" } else { "" };
                let replay = mbb_cli::cmd_optimize_pipeline(&src, &opts, spec).map(|(text, _)| {
                    let kept = text.lines().filter(|l| !l.starts_with("  simulation:"));
                    kept.map(|l| format!("{l}\n")).collect()
                });
                record(&mut doc, &format!("{name}: optimize --pipeline {spec}{flags}"), replay);
            }
        }
    }
    doc
}

#[test]
fn optimize_front_ends_match_the_golden_document() {
    assert_golden("optimize.txt", &document());
}

#[test]
fn the_pipeline_replays_as_the_spec_it_returns() {
    for (name, src) in programs() {
        let p = analysis::load(&src).unwrap();
        for (flags, opts) in pipeline_flags() {
            let out = optimize(&p, opts);
            let spec = out.candidate.spec();
            let parsed = Candidate::parse(&spec)
                .unwrap_or_else(|e| panic!("{name} {flags}: `{spec}` does not parse: {e}"));
            assert_eq!(parsed, out.candidate, "{name} {flags}: `{spec}`");
            let replayed = parsed
                .apply(&p)
                .unwrap_or_else(|e| panic!("{name} {flags}: `{spec}` does not apply: {e}"));
            assert_eq!(
                mbb::ir::pretty::program(&replayed),
                mbb::ir::pretty::program(&out.program),
                "{name} {flags}: replaying `{spec}` diverges from the pipeline"
            );
        }
    }
    // A program without nests reports its empty partition, but fusing
    // nothing is no move.
    let p = analysis::load(NO_NESTS).unwrap();
    let out = optimize(&p, OptimizeOptions::default());
    assert_eq!(out.partitioning.map(|part| part.groups.len()), Some(0));
    assert_eq!(out.candidate.spec(), "shrink;store-elim");
}
