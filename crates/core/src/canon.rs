//! The one canonicalizer every content-addressed cache keys through.
//!
//! Three layers hash programs: the server's result cache, the search
//! crate's score cache, and (transitively) the CLI, which delegates to
//! the server's analysis entry points.  Before this module each of them
//! could reasonably have pretty-printed "its own way" — the latent
//! ordering hazard being that two byte-different renderings of the same
//! AST silently split one logical cache line into two, defeating the
//! cross-search work sharing the caches exist for.  Every key is
//! therefore built from the functions here: [`program`] (the canonical
//! text), [`cache_key`] (the FNV-1a composition) and [`program_key`]
//! (the same key hashed straight from the printer, without the text), and
//! a workspace test pins the cli/server/search keys byte-for-byte.  The
//! keys index [`crate::cache::Cache`].

use std::fmt;

use mbb_ir::{pretty, Program};

/// The canonical cache-key form of a program: the pretty-printer's stable
/// rendering of the parsed AST.  Formatting differences in source text
/// (whitespace, comments) collapse onto one canonical string, and the
/// round-trip property (`parse(pretty(p)) == p`, fuzzed continuously)
/// makes the rendering injective on validated programs.
pub fn program(p: &Program) -> String {
    pretty::program(p)
}

/// 64-bit FNV-1a over `bytes` — the workspace's one content-address hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.0
}

/// A running FNV-1a state.  As a [`fmt::Write`] sink it hashes what is
/// written and keeps none of it.
struct Fnv1a(u64);

impl Fnv1a {
    const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The state after the key's leading parts, each followed by its NUL.
    fn key_prefix(kind: &str, machine: &str, flags: &str) -> Self {
        let mut h = Fnv1a::new();
        for part in [kind, machine, flags] {
            h.update(part.as_bytes());
            h.update(b"\0");
        }
        h
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Composes a cache key from its addressed parts: the request kind, the
/// machine name, a stable flags rendering and the canonical program text,
/// NUL-separated so no field can masquerade as a neighbour.
pub fn cache_key(kind: &str, machine: &str, flags: &str, canon: &str) -> u64 {
    let mut h = Fnv1a::key_prefix(kind, machine, flags);
    h.update(canon.as_bytes());
    h.0
}

/// `cache_key(kind, machine, flags, &program(p))`, bit for bit, without
/// rendering the text: the printer writes straight into the hash.
pub fn program_key(kind: &str, machine: &str, flags: &str, p: &Program) -> u64 {
    let mut h = Fnv1a::key_prefix(kind, machine, flags);
    // Writing into the hash cannot fail.
    let _ = pretty::write_program(&mut h, p);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors (64-bit).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn formatting_noise_collapses_onto_one_key() {
        let a = mbb_ir::parse::parse("array a[8]\nfor i = 0, 7\n  a[i] = 1\nend for\n").unwrap();
        let b = mbb_ir::parse::parse("array a[8]   \n\nfor i = 0, 7\n    a[ i ] = 1\nend for\n")
            .unwrap();
        assert_eq!(program(&a), program(&b));
        assert_eq!(
            cache_key("optimize", "m", "f", &program(&a)),
            cache_key("optimize", "m", "f", &program(&b))
        );
    }

    #[test]
    fn every_key_part_is_significant() {
        let base = cache_key("k", "m", "f", "p");
        assert_ne!(base, cache_key("x", "m", "f", "p"));
        assert_ne!(base, cache_key("k", "x", "f", "p"));
        assert_ne!(base, cache_key("k", "m", "x", "p"));
        assert_ne!(base, cache_key("k", "m", "f", "x"));
        // NUL separation: shifting a byte across a field boundary must
        // change the key.
        assert_ne!(cache_key("ab", "c", "", ""), cache_key("a", "bc", "", ""));
    }

    #[test]
    fn program_key_hashes_the_canonical_text() {
        let p = mbb_ir::parse::parse(
            "array a[8]  // live-out\nscalar s = 0.5  // printed\nfor i = 1, 7, 2\n  \
             if (i <= 5)\n    a[i] = max(sqrt(a[i-1]), 2)\n  else\n    s = (s + a[(i) mod 3])\n  \
             end if\nend for\n",
        )
        .unwrap();
        assert_eq!(program_key("k", "m", "f", &p), cache_key("k", "m", "f", &program(&p)));
        assert_eq!(program_key("", "", "", &p), cache_key("", "", "", &program(&p)));
    }
}
