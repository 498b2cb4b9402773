//! # mbb-ir — a loop-program intermediate representation
//!
//! This crate is the compiler substrate for the reproduction of Ding &
//! Kennedy, *"The Memory Bandwidth Bottleneck and its Amelioration by a
//! Compiler"* (IPPS 2000).  The paper's transformations — bandwidth-minimal
//! loop fusion, array shrinking/peeling and store elimination — operate on
//! sequences of rectangular loop nests that access dense arrays through
//! affine subscripts.  This crate provides exactly that program class:
//!
//! * [`Program`]: a sequence of [`LoopNest`]s over declared arrays and
//!   scalars, with explicit observable outputs (printed scalars, live-out
//!   arrays) so that transformations can be checked for semantic
//!   equivalence;
//! * an exact [`interp`] interpreter that executes a program, counts
//!   floating-point operations, and emits a byte-accurate memory-access
//!   trace (the substitute for the paper's hardware counters);
//! * the static analyses the transformations need: loop-level
//!   [`deps`] (dependence) analysis, whole-program array [`liveness`], and
//!   per-element live-[`ranges`] inside a nest;
//! * structural [`mod@validate`] checks and a [`pretty`] printer.
//!
//! The IR is deliberately *not* a general compiler IR: subscripts are affine,
//! loops are countable `for` loops, and control flow inside a nest is limited
//! to affine `if` conditions.  That is the program class for which the
//! paper's legality arguments hold, and the restriction is what lets every
//! analysis in this workspace be exact rather than heuristic.

pub mod budget;
pub mod builder;
pub mod deps;
pub mod expr;
pub mod interp;
pub mod liveness;
pub mod parse;
pub mod pretty;
pub mod program;
pub mod ranges;
pub mod runs;
pub mod trace;
pub mod validate;

pub use budget::{Budget, BudgetExceeded};
pub use builder::ProgramBuilder;
pub use expr::{Affine, BinOp, CmpOp, Cond, Expr, Ref, UnOp};
pub use interp::{
    input_value, run, ExecStats, InterpError, Interpreter, LayoutOpts, Observation, RunResult,
};
pub use parse::{parse, ParseError};
pub use program::{
    ArrayDecl, ArrayId, Init, Loop, LoopNest, Program, ScalarDecl, ScalarId, SourceId, Stmt, VarId,
};
pub use runs::Engine;
pub use trace::{Access, AccessKind, AccessSink, CountingSink, NullSink, RunRef, VecSink};
pub use validate::{validate, ValidateError};

// The parallel experiment runner (`mbb-bench`) executes whole simulations
// — program, interpreter, trace sinks — inside worker threads, so the
// interpretation stack must stay `Send` (no `Rc`, no thread-affine state).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Program>();
    assert_send::<Interpreter<'static>>();
    assert_send::<RunResult>();
    assert_send::<VecSink>();
};
