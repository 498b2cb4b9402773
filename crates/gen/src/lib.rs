//! # mbb-gen — seeded workload generation and differential fuzzing
//!
//! The optimizer's properties (bandwidth-minimal fusion, storage
//! reduction, store elimination) and the two execution engines (runs vs
//! scalar oracle) were historically proven only on the paper's handful of
//! figure programs.  This crate builds the *space* those properties live
//! in: a template-driven generator over valid `.loop` programs
//! ([`templates`]), a differential fuzz driver that cross-checks every
//! generated program through parse/pretty, both engines, the optimizer
//! and the balance model, shrinking failures to minimal counterexamples
//! ([`mod@fuzz`]), corpus-scale benchmark sweeps for the nightly
//! ([`mod@sweep`]), autotuner sweeps pitting the `mbb-search` beam
//! search against the fixed pipeline ([`mod@search_sweep`]), and a
//! capacity-storm load generator for the analysis server's overload
//! controls ([`mod@load`]).
//!
//! The `gen` binary exposes all but the last:
//!
//! ```text
//! gen one    --seed S [--template chain]     print one generated program
//! gen corpus --count N [--dir D]             emit a program corpus
//! gen fuzz   --iters N [--mutate M]          differential fuzz, shrink on failure
//! gen sweep  --count N [--json F] [--full]   corpus benchmark sweep (mbb-gen-sweep/1)
//! gen search-sweep --count N [--beam B] [--steps K] [--jobs J]
//!                                            autotuner sweep (mbb-search-sweep/1)
//! gen replay --family F --n N --k K --detail D   re-run one exact case
//! ```
//!
//! The `mbb-load` binary drives the storm lane:
//!
//! ```text
//! mbb-load (--addr HOST:PORT | --spawn) [--clients N] [--deadline-ms MS]
//!          [--json PATH] [--assert]     seeded capacity storm (mbb-load-capacity/1)
//! ```
//!
//! Everything is seeded splitmix64: the same seed always reproduces the
//! same programs, and every failure prints the exact replay command.  Both
//! binaries parse their flags with [`Args`], read numbers with
//! [`parse_u64`] and their seed with [`resolve_seed`].

use std::collections::BTreeMap;

pub mod fuzz;
pub mod load;
pub mod search_sweep;
pub mod sweep;
pub mod templates;

pub use fuzz::{check, fuzz, Config, Counterexample, Failure, FailureKind};
pub use search_sweep::{search_sweep, SearchSweepConfig};
pub use sweep::{sweep, SweepConfig};
pub use templates::{generate, Params};

/// Parses a number given in decimal or as `0x…` hex (replay commands
/// print details in hex).
pub fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The seed a run uses: the `--seed` value when one was given, else the
/// `GEN_SEED` environment variable (CI lanes set it to the run id), else
/// `default`.
pub fn resolve_seed(flag: Option<&str>, default: u64) -> Result<u64, String> {
    if let Some(v) = flag {
        return parse_u64(v).ok_or_else(|| format!("--seed wants a number, got `{v}`"));
    }
    if let Ok(v) = std::env::var("GEN_SEED") {
        return parse_u64(&v).ok_or_else(|| format!("GEN_SEED wants a number, got `{v}`"));
    }
    Ok(default)
}

/// A command line's flags: `--flag value` pairs and bare switches, each
/// one the command names.  An unknown flag is an error that names it.
#[derive(Debug)]
pub struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses `raw` against the flags a command takes: `valued` ones are
    /// followed by a value, `switches` stand alone.
    pub fn parse(raw: &[String], valued: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut k = 0;
        while k < raw.len() {
            let flag = raw[k].as_str();
            if switches.contains(&flag) {
                flags.insert(flag.to_string(), String::new());
                k += 1;
            } else if valued.contains(&flag) {
                let Some(value) = raw.get(k + 1) else {
                    return Err(format!("{flag} needs a value"));
                };
                flags.insert(flag.to_string(), value.clone());
                k += 2;
            } else if flag.starts_with("--") {
                return Err(format!("unknown flag `{flag}`"));
            } else {
                return Err(format!("unexpected argument `{flag}`"));
            }
        }
        Ok(Args { flags })
    }

    /// The value of a valued flag, when given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// True when the flag was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// A number flag, or `default` when absent.
    pub fn u64_or(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => parse_u64(v).ok_or_else(|| format!("{flag} wants a number, got `{v}`")),
        }
    }

    /// As [`Args::u64_or`], for a `u32`.
    pub fn u32_or(&self, flag: &str, default: u32) -> Result<u32, String> {
        self.u64_or(flag, u64::from(default))
            .and_then(|n| u32::try_from(n).map_err(|_| format!("{flag} value {n} is out of range")))
    }

    /// As [`Args::u64_or`], for a `usize`.
    pub fn usize_or(&self, flag: &str, default: usize) -> Result<usize, String> {
        self.u64_or(flag, default as u64).and_then(|n| {
            usize::try_from(n).map_err(|_| format!("{flag} value {n} is out of range"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &str) -> Result<Args, String> {
        let raw: Vec<String> = raw.split_whitespace().map(String::from).collect();
        Args::parse(&raw, &["--seed", "--count"], &["--full"])
    }

    #[test]
    fn only_the_named_flags_parse() {
        let a = args("--seed 0x10 --full --count 3").unwrap();
        assert_eq!((a.u64_or("--seed", 7), a.u32_or("--count", 1)), (Ok(16), Ok(3)));
        assert!(a.has("--full") && !a.has("--json"));
        assert_eq!(a.usize_or("--jobs", 2), Ok(2));
        assert_eq!(args("--iter 3").unwrap_err(), "unknown flag `--iter`");
        assert_eq!(args("--seed").unwrap_err(), "--seed needs a value");
        assert_eq!(args("seven").unwrap_err(), "unexpected argument `seven`");
        assert_eq!(
            args("--count x").unwrap().u32_or("--count", 1),
            Err("--count wants a number, got `x`".into())
        );
    }

    #[test]
    fn numbers_parse_in_decimal_and_hex() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0x2a"), Some(42));
        assert_eq!(parse_u64("0X603E09006EA32459"), Some(0x603e_0900_6ea3_2459));
        for bad in ["", "0x", "-1", "4x2", "0xg", "18446744073709551616"] {
            assert_eq!(parse_u64(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn a_seed_flag_wins_and_a_bad_one_is_named() {
        assert_eq!(resolve_seed(Some("0x10"), 7), Ok(16));
        assert_eq!(
            resolve_seed(Some("seven"), 7),
            Err("--seed wants a number, got `seven`".into())
        );
    }
}
