//! The committed corpus driven through the `mbb-search` autotuner: the
//! search-vs-fixed invariants of `mbbc optimize --search`, replayed as a
//! tier-1 test so the CI `search-smoke` lane has an in-tree twin.
//!
//! For every `tests/corpus/*.loop` program the beam search must return a
//! program that is observably equivalent to the original, whose honest
//! balance never exceeds the fixed pipeline's (the fixed candidate is
//! seeded into the beam, so this holds by construction — the test pins
//! that construction), and whose entire outcome is deterministic across
//! runs with fresh score caches.

use std::path::PathBuf;

use mbb_search::{ScoreCache, SearchOptions};

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "loop").then_some(p)
        })
        .collect();
    out.sort();
    assert!(out.len() >= 6, "expected one corpus seed per template family, found {out:?}");
    out
}

fn search(p: &mbb::ir::program::Program) -> mbb_search::SearchOutcome {
    let cache = ScoreCache::new(1 << 12, 2);
    mbb_search::search_with_cache(p, &SearchOptions::default(), &cache)
        .expect("unbudgeted search completes")
}

#[test]
fn search_is_equivalent_and_never_worse_on_every_corpus_program() {
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let p = mbb::ir::parse::parse(&src).unwrap();
        let out = search(&p);
        mbb::ir::validate::validate(&out.program)
            .unwrap_or_else(|e| panic!("{}: invalid search winner: {e}", path.display()));
        mbb::core::pipeline::verify_equivalent(&p, &out.program, 1e-9)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            out.best_score.memory() <= out.fixed_score.memory(),
            "{}: search winner at {} bytes/flop is worse than the fixed pipeline's {}",
            path.display(),
            out.best_score.memory(),
            out.fixed_score.memory()
        );
        // The winning spec replays onto the winning program.
        let cand = mbb::core::spec::Candidate::parse(&out.trace.best_spec)
            .unwrap_or_else(|e| panic!("{}: spec `{}`: {e}", path.display(), out.trace.best_spec));
        let replayed = cand
            .apply(&p)
            .unwrap_or_else(|e| panic!("{}: replaying `{}`: {e}", path.display(), cand.spec()));
        assert_eq!(
            mbb::ir::pretty::program(&replayed),
            mbb::ir::pretty::program(&out.program),
            "{}: --pipeline replay of the winning spec diverges",
            path.display()
        );
    }
}

#[test]
fn search_is_deterministic_across_fresh_caches() {
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let p = mbb::ir::parse::parse(&src).unwrap();
        let a = search(&p);
        let b = search(&p);
        assert_eq!(a.trace, b.trace, "{}: trace differs between runs", path.display());
        assert_eq!(
            mbb::ir::pretty::program(&a.program),
            mbb::ir::pretty::program(&b.program),
            "{}: winner differs between runs",
            path.display()
        );
    }
}
