//! Every `mbbc` analysis command pinned byte for byte.
//!
//! For every program of the optimize golden (the corpus plus Figure 7 at
//! N = 64, a one-nest program and a program with no loop nests) the test
//! records what `mbbc` prints for `report`, `advise`, `trace-stats`,
//! `optimize`, `optimize --emit` and `optimize --search`, each with and
//! without `--profile`, as the `mbb_cli` library produces it.
//!
//! Two lines describe one execution rather than the analysis: the
//! `simulation:` timing line and the `search cache:` line (what the
//! process-wide score cache already held).  Their text is masked; where
//! they appear is pinned.  The document must equal `tests/golden/cli.txt`;
//! on a mismatch the failure prints the `cp` command that updates it.

mod common;

use common::{assert_golden, programs, record};
use mbb_cli::{cmd_analyze, Kind, Options, SearchParams, ServeError};

/// The analysis commands: the arguments `mbbc` takes after `FILE`, the
/// kind they run and whether they `--emit` the optimised program.
const COMMANDS: [(&str, Kind, bool); 6] = [
    ("report", Kind::Report, false),
    ("advise", Kind::Advise, false),
    ("trace-stats", Kind::TraceStats, false),
    ("optimize", Kind::Optimize, false),
    ("optimize --emit", Kind::Optimize, true),
    ("optimize --search", Kind::OptimizeSearch, false),
];

/// What `mbbc` prints for `src`, as its `main` assembles it.
fn mbbc(kind: Kind, emit: bool, profile: bool, src: &str) -> Result<String, ServeError> {
    let opts = Options { profile, ..Options::default() };
    let out = cmd_analyze(kind, src, &opts, &SearchParams::default())?;
    Ok(match out.optimized {
        Some(program) if emit => format!("{}\n{program}", out.text),
        _ => out.text,
    })
}

/// Masks the per-execution lines, keeping where they appear.
fn masked(text: String) -> String {
    let mut out = String::new();
    for line in text.split_inclusive('\n') {
        match ["  simulation:", "  search cache:"].into_iter().find(|p| line.starts_with(p)) {
            Some(prefix) => {
                out.push_str(prefix);
                out.push_str(" (masked)\n");
            }
            None => out.push_str(line),
        }
    }
    out
}

fn document() -> String {
    let mut doc = String::new();
    for (name, src) in programs() {
        for (command, kind, emit) in COMMANDS {
            for profile in [false, true] {
                let flag = if profile { " --profile" } else { "" };
                let title = format!("{name}: {command}{flag}");
                record(&mut doc, &title, mbbc(kind, emit, profile, &src).map(masked));
            }
        }
    }
    doc
}

#[test]
fn mbbc_analysis_commands_match_the_golden_document() {
    assert_golden("cli.txt", &document());
}
