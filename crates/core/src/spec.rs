//! Specs: replayable transformation sequences.
//!
//! A [`Candidate`] is an ordered list of [`Move`]s applied to an input
//! program.  It is the one representation of a transformation sequence:
//! [`crate::pipeline::optimize`] returns the candidate it applied, the
//! search explores candidates, and `mbbc optimize --pipeline <spec>`
//! replays one.  Every candidate prints as a compact spec
//! (`fuse=0.1|2;shrink;store-elim`) that [`Candidate::parse`] reads back,
//! so reproducibility is a property of the representation, not of
//! rerunning whatever produced it.
//!
//! The spec grammar:
//!
//! ```text
//! spec  := "identity" | move (";" move)*
//! move  := "normalize"
//!        | "fuse=" group ("|" group)*        group := idx ("." idx)*
//!        | "interchange=" nest ":" idx ("." idx)*
//!        | "shrink"
//!        | "store-elim"
//! ```
//!
//! `fuse=0.1|2` fuses nests {0,1} and leaves {2}; `interchange=0:1.0`
//! permutes nest 0's loops so original level 1 becomes outermost.  Moves
//! apply strictly in spec order, and nest indices in later moves refer to
//! the program produced by the earlier ones.

use std::fmt;

use mbb_ir::Program;

use crate::interchange::interchange;
use crate::pipeline::normalize;
use crate::storage::{shrink_storage, ShrinkAction};
use crate::stores::{eliminate_all_stores, StoreElimination};
use crate::transform::fuse_nests;

/// One transformation step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Move {
    /// The pipeline's normalisation pre-pass (scalar expansion + maximal
    /// distribution).
    Normalize,
    /// Fuse nests according to the given partition (groups of nest
    /// indices, in execution order).
    Fuse(Vec<Vec<usize>>),
    /// Permute one nest's loop levels: `perm[k]` is the original level
    /// that becomes level `k`.
    Interchange {
        /// Nest index in the program the move applies to.
        nest: usize,
        /// The level permutation.
        perm: Vec<usize>,
    },
    /// Array shrinking / peeling (storage reduction).
    Shrink,
    /// Store elimination.
    StoreElim,
}

impl Move {
    /// The canonical stage order the search enforces (mirroring the
    /// paper's pipeline): normalize < fuse < interchange < shrink <
    /// store-elim.  Sequences are only ever extended in nondecreasing
    /// stage order, which prunes permutations of commuting moves.
    pub fn stage(&self) -> u8 {
        match self {
            Move::Normalize => 0,
            Move::Fuse(_) => 1,
            Move::Interchange { .. } => 2,
            Move::Shrink => 3,
            Move::StoreElim => 4,
        }
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Normalize => f.write_str("normalize"),
            Move::Fuse(groups) => {
                f.write_str("fuse=")?;
                for (gi, g) in groups.iter().enumerate() {
                    if gi > 0 {
                        f.write_str("|")?;
                    }
                    for (k, n) in g.iter().enumerate() {
                        if k > 0 {
                            f.write_str(".")?;
                        }
                        write!(f, "{n}")?;
                    }
                }
                Ok(())
            }
            Move::Interchange { nest, perm } => {
                write!(f, "interchange={nest}:")?;
                for (k, l) in perm.iter().enumerate() {
                    if k > 0 {
                        f.write_str(".")?;
                    }
                    write!(f, "{l}")?;
                }
                Ok(())
            }
            Move::Shrink => f.write_str("shrink"),
            Move::StoreElim => f.write_str("store-elim"),
        }
    }
}

/// A transformation sequence.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Candidate {
    /// The moves, in application order.
    pub moves: Vec<Move>,
}

/// A spec that failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A candidate that failed to apply to a concrete program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApplyError(pub String);

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn parse_indices(s: &str, sep: char, what: &str) -> Result<Vec<usize>, SpecError> {
    s.split(sep)
        .map(|tok| {
            tok.parse::<usize>()
                .map_err(|_| SpecError(format!("bad {what} index `{tok}` in `{s}`")))
        })
        .collect()
}

impl Candidate {
    /// The empty sequence (the unmodified program).
    pub fn identity() -> Candidate {
        Candidate::default()
    }

    /// The canonical spec string; the empty sequence prints as
    /// `identity`.
    pub fn spec(&self) -> String {
        if self.moves.is_empty() {
            return "identity".to_string();
        }
        self.moves.iter().map(|m| m.to_string()).collect::<Vec<_>>().join(";")
    }

    /// Parses a spec produced by [`Candidate::spec`].
    pub fn parse(spec: &str) -> Result<Candidate, SpecError> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "identity" {
            return Ok(Candidate::identity());
        }
        let mut moves = Vec::new();
        for tok in spec.split(';') {
            let tok = tok.trim();
            let mv = match tok {
                "normalize" => Move::Normalize,
                "shrink" => Move::Shrink,
                "store-elim" => Move::StoreElim,
                _ => {
                    if let Some(rest) = tok.strip_prefix("fuse=") {
                        let groups = rest
                            .split('|')
                            .map(|g| parse_indices(g, '.', "nest"))
                            .collect::<Result<Vec<_>, _>>()?;
                        if groups.iter().any(|g| g.is_empty()) {
                            return Err(SpecError(format!("empty fusion group in `{tok}`")));
                        }
                        Move::Fuse(groups)
                    } else if let Some(rest) = tok.strip_prefix("interchange=") {
                        let (nest, perm) = rest.split_once(':').ok_or_else(|| {
                            SpecError(format!("expected `interchange=NEST:PERM`, got `{tok}`"))
                        })?;
                        let nest = nest
                            .parse::<usize>()
                            .map_err(|_| SpecError(format!("bad nest index `{nest}`")))?;
                        Move::Interchange { nest, perm: parse_indices(perm, '.', "level")? }
                    } else {
                        return Err(SpecError(format!(
                            "unknown move `{tok}` (expected normalize, fuse=…, \
                             interchange=…, shrink or store-elim)"
                        )));
                    }
                }
            };
            moves.push(mv);
        }
        Ok(Candidate { moves })
    }

    /// Applies the sequence to `prog`, move by move.
    pub fn apply(&self, prog: &Program) -> Result<Program, ApplyError> {
        let mut cur = prog.clone();
        for mv in &self.moves {
            cur = apply_move(&cur, mv)?.program;
        }
        Ok(cur)
    }
}

/// What one applied move produced: the program, plus the reports of a
/// `shrink` or `store-elim` move (empty for every other move).
#[derive(Clone, Debug)]
pub struct Applied {
    /// The transformed program.
    pub program: Program,
    /// Storage-reduction actions.
    pub shrink_actions: Vec<ShrinkAction>,
    /// Store eliminations.
    pub store_eliminations: Vec<StoreElimination>,
}

/// Applies one move to a concrete program.  The pipeline applies the
/// moves it picks through this function, the search engine uses it
/// incrementally (a beam state keeps its transformed program), and
/// [`Candidate::apply`] replays whole sequences through the same code, so
/// a replayed spec cannot drift from what produced it.
pub fn apply_move(prog: &Program, mv: &Move) -> Result<Applied, ApplyError> {
    let (mut shrink_actions, mut store_eliminations) = (Vec::new(), Vec::new());
    let program = match mv {
        Move::Normalize => normalize(prog),
        // `fuse_nests` checks the partition, each pair's legality and the
        // dependence order itself: the same conditions as the fusion
        // graph's `check_legal`, without building the graph again.
        Move::Fuse(groups) => {
            fuse_nests(prog, groups).map_err(|e| ApplyError(format!("fusion rejected: {e}")))?
        }
        Move::Interchange { nest, perm } => {
            if *nest >= prog.nests.len() {
                return Err(ApplyError(format!(
                    "interchange names nest {nest} but the program has {}",
                    prog.nests.len()
                )));
            }
            interchange(prog, *nest, perm)
                .map_err(|e| ApplyError(format!("interchange rejected: {e:?}")))?
        }
        Move::Shrink => {
            let (next, actions) = shrink_storage(prog);
            shrink_actions = actions;
            next
        }
        Move::StoreElim => {
            let (next, reports) = eliminate_all_stores(prog);
            store_eliminations = reports;
            next
        }
    };
    Ok(Applied { program, shrink_actions, store_eliminations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbb_ir::builder::*;

    fn two_nest() -> Program {
        let n = 64;
        let mut b = ProgramBuilder::new("two");
        let a = b.array_in("a", &[n]);
        let t = b.array("t", &[n]);
        let s = b.scalar_printed("s", 0.0);
        let (i, j) = (b.var("i"), b.var("j"));
        b.nest(
            "produce",
            &[(i, 0, n as i64 - 1)],
            vec![assign(t.at([v(i)]), ld(a.at([v(i)])) + lit(1.0))],
        );
        b.nest("consume", &[(j, 0, n as i64 - 1)], vec![accumulate(s, ld(t.at([v(j)])))]);
        b.finish()
    }

    #[test]
    fn spec_round_trips() {
        let c = Candidate {
            moves: vec![
                Move::Normalize,
                Move::Fuse(vec![vec![0, 1], vec![2]]),
                Move::Interchange { nest: 0, perm: vec![1, 0] },
                Move::Shrink,
                Move::StoreElim,
            ],
        };
        let spec = c.spec();
        assert_eq!(spec, "normalize;fuse=0.1|2;interchange=0:1.0;shrink;store-elim");
        assert_eq!(Candidate::parse(&spec).unwrap(), c);
        assert_eq!(Candidate::parse("identity").unwrap(), Candidate::identity());
        assert_eq!(Candidate::identity().spec(), "identity");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in ["frob", "fuse=", "fuse=0.x", "interchange=0", "interchange=a:0", "fuse=0||1"] {
            assert!(Candidate::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn apply_replays_a_fusion_sequence() {
        let p = two_nest();
        let c =
            Candidate { moves: vec![Move::Fuse(vec![vec![0, 1]]), Move::Shrink, Move::StoreElim] };
        let out = c.apply(&p).unwrap();
        assert_eq!(out.nests.len(), 1, "nests fused");
        crate::pipeline::verify_equivalent(&p, &out, 1e-9).unwrap();
    }

    #[test]
    fn apply_rejects_illegal_moves() {
        let p = two_nest();
        // Backward dependence: consumer before producer.
        let c = Candidate { moves: vec![Move::Fuse(vec![vec![1], vec![0]])] };
        assert!(c.apply(&p).is_err());
        let c = Candidate { moves: vec![Move::Interchange { nest: 7, perm: vec![0] }] };
        assert!(c.apply(&p).is_err());
    }
}
