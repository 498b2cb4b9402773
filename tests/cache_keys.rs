//! Canonical-hash agreement across the three cache-key producers.
//!
//! The server's result cache, the CLI (which reuses the server's
//! analysis layer), and the search crate's score cache all key on
//! `fnv1a(kind \0 machine \0 flags \0 canonical-program)`.  Historically
//! the server carried its own private fnv1a and canonicalizer; all three
//! now key through `mbb_core::canon`, and this test pins the agreement
//! byte-for-byte so the three can never drift apart again — a drift
//! would silently split the caches (correct but slow) or, worse, collide
//! keys across kinds.  The server's memo misses and the search key with
//! `canon::program_key`, which hashes the printer's output as it is
//! written; it must equal `cache_key` over the rendered text bit for bit.

use std::path::PathBuf;

use mbb::ir::parse::parse;
use mbb::ir::program::Program;
use mbb_core::canon;
use mbb_gen::templates::{generate, Params, FAMILY_COUNT};

const PROGRAM: &str = "array a[64]\n\
                       scalar s = 0  // printed\n\
                       for i = 0, 63\n\
                       \x20 s = (s + a[i])\n\
                       end for\n";

/// Same program modulo formatting: extra blanks, a comment, different
/// indentation.
const NOISY: &str = "array   a[64]   // demand\n\n\
                     scalar s = 0  // printed\n\
                     for i = 0, 63\n\
                     \x20     s = (s + a[i])\n\
                     end for\n";

#[test]
fn server_canonical_source_is_the_shared_canonicalizer() {
    let p = parse(PROGRAM).unwrap();
    assert_eq!(mbb_server::analysis::canonical_source(&p), canon::program(&p));
}

#[test]
fn cache_key_reproduces_the_server_key_layout_byte_for_byte() {
    let p = parse(PROGRAM).unwrap();
    let canon_text = canon::program(&p);
    let flags = "fusion=Greedy;normalize=false";
    let by_helper = canon::cache_key("report", "origin", flags, &canon_text);
    let by_hand = canon::fnv1a(format!("report\0origin\0{flags}\0{canon_text}").as_bytes());
    assert_eq!(by_helper, by_hand, "cache_key must be fnv1a over the historical layout");
}

#[test]
fn search_score_keys_use_the_same_helper_as_the_server() {
    let p = parse(PROGRAM).unwrap();
    let canon_text = canon::program(&p);
    // The search crate keys scores as (SCORE_KIND, machine, "", canon):
    // identical inputs must give identical keys whichever crate computes
    // them.
    let search_key = canon::cache_key(mbb_search::engine::SCORE_KIND, "origin", "", &canon_text);
    let server_style = canon::fnv1a(
        format!("{}\0origin\0\0{canon_text}", mbb_search::engine::SCORE_KIND).as_bytes(),
    );
    assert_eq!(search_key, server_style);
}

#[test]
fn formatting_noise_collapses_to_one_key() {
    let p = parse(PROGRAM).unwrap();
    let q = parse(NOISY).unwrap();
    assert_eq!(canon::program(&p), canon::program(&q), "canonical text must ignore formatting");
    assert_eq!(
        canon::cache_key("optimize-search", "origin", "beam=4", &canon::program(&p)),
        canon::cache_key("optimize-search", "origin", "beam=4", &canon::program(&q)),
    );
    // Distinct kinds, machines or flags must not collide on the same
    // program.
    let c = canon::program(&p);
    let base = canon::cache_key("optimize", "origin", "f", &c);
    assert_ne!(base, canon::cache_key("optimize-search", "origin", "f", &c));
    assert_ne!(base, canon::cache_key("optimize", "origin/64", "f", &c));
    assert_ne!(base, canon::cache_key("optimize", "origin", "g", &c));
}

/// Every `tests/corpus` program, then one generated program per template
/// family.
fn key_programs() -> Vec<Program> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "loop").then_some(p)
        })
        .collect();
    files.sort();
    let mut out: Vec<Program> =
        files.iter().map(|f| parse(&std::fs::read_to_string(f).unwrap()).unwrap()).collect();
    assert!(!out.is_empty(), "tests/corpus holds programs");
    for family in 0..FAMILY_COUNT {
        out.push(generate(Params { family, n: 10, k: 3, detail: 0x5eed + u64::from(family) }, 1));
    }
    out
}

#[test]
fn program_key_hashes_exactly_the_canonical_text() {
    let layouts = [
        ("report", "origin", "fusion=Greedy;normalize=false"),
        (mbb_search::engine::SCORE_KIND, "Origin2000 (R10K)", ""),
        ("", "", ""),
    ];
    for p in key_programs() {
        let text = canon::program(&p);
        for (kind, machine, flags) in layouts {
            assert_eq!(
                canon::program_key(kind, machine, flags, &p),
                canon::cache_key(kind, machine, flags, &text),
                "{}: program_key must equal cache_key over the canonical text",
                p.name
            );
        }
    }
}
