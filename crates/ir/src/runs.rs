//! Run compilation: lowering loop nests to pre-resolved strided runs.
//!
//! The scalar interpreter re-evaluates every subscript expression tree and
//! emits every element access one at a time.  For the affine program class
//! this crate models, that work is redundant: within one execution of an
//! innermost loop, every array reference walks a *run* — a base address
//! plus a constant per-iteration byte stride — and every subscript is a
//! linear function of the iteration number.  This module compiles each
//! eligible nest once into
//!
//! * a flat access plan (one [`RunRef`] descriptor per textual reference,
//!   in per-iteration access order), emitted per innermost execution via
//!   [`AccessSink::access_runs`] so a simulating sink can advance per
//!   cache line instead of per element; and
//! * a postfix op sequence (`VOp`) for the value semantics, executed
//!   with running linear indices instead of per-iteration subscript
//!   evaluation.
//!
//! Nests the lowering cannot express — conditional bodies, modular
//! subscripts, rank-mismatched references, nests without loops — fall back
//! to the scalar interpreter per nest, into the same sink.
//!
//! ## The oracle invariant
//!
//! For every program and sink, the runs engine must be observably
//! identical to the scalar engine: same [`RunResult`] (stats bit-exact,
//! observation value-exact), same access stream (addresses, sizes, kinds,
//! *order*), same error kind and payload on failure, and same budget
//! charge points (see [`crate::budget`]).  The scalar engine is kept
//! intact as the differential-testing oracle; CI runs every workload under
//! both and diffs the reports byte-for-byte.  The single tolerated
//! divergence: when a run aborts with an error, accesses the scalar engine
//! would have emitted *within the failing iteration* (and the failing
//! nest's partial side effects on the sink) may be absent — every caller
//! discards sink state on error, so this is unobservable through the
//! public API.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::expr::{Affine, BinOp, Expr, Ref, UnOp};
use crate::interp::{input_key, input_value, InterpError, Interpreter, RunResult};
use crate::program::{ArrayId, LoopNest, Program, SourceId, Stmt};
use crate::trace::{AccessKind, AccessSink, RunRef, Scalarize};

/// Which execution engine [`Interpreter::run`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(u8)]
pub enum Engine {
    /// Let the implementation choose (currently: the runs engine).
    #[default]
    Auto = 0,
    /// Run-compiled execution with symbolic per-line simulation.
    Runs = 1,
    /// The original per-element interpreter — the differential oracle.
    Scalar = 2,
}

impl Engine {
    fn from_u8(b: u8) -> Engine {
        match b {
            1 => Engine::Runs,
            2 => Engine::Scalar,
            _ => Engine::Auto,
        }
    }

    /// Canonical lowercase name, as accepted by [`Engine::from_str`].
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Auto => "auto",
            Engine::Runs => "runs",
            Engine::Scalar => "scalar",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "auto" => Ok(Engine::Auto),
            "runs" => Ok(Engine::Runs),
            "scalar" => Ok(Engine::Scalar),
            other => Err(format!("unknown engine '{other}' (expected auto, runs or scalar)")),
        }
    }
}

/// Process-wide default engine, set once from CLI flags; worker threads
/// inherit it.  `u8::MAX` in the thread-local below means "no override".
static DEFAULT_ENGINE: AtomicU8 = AtomicU8::new(Engine::Auto as u8);

thread_local! {
    static OVERRIDE: Cell<u8> = const { Cell::new(u8::MAX) };
}

/// Sets the process-wide default engine (CLI `--engine`).
pub fn set_default(e: Engine) {
    DEFAULT_ENGINE.store(e as u8, Ordering::Relaxed);
}

/// The engine [`Interpreter::run`] will use on this thread right now:
/// the innermost [`install`]ed override, or the process default.
pub fn current() -> Engine {
    let o = OVERRIDE.with(Cell::get);
    if o == u8::MAX {
        Engine::from_u8(DEFAULT_ENGINE.load(Ordering::Relaxed))
    } else {
        Engine::from_u8(o)
    }
}

/// Scoped per-thread engine override (the idiom of
/// [`crate::budget::Budget::install`]): servers install a per-request
/// engine without touching the process default.  Restored on drop.
#[must_use = "the engine override is uninstalled when the guard drops"]
pub struct EngineGuard {
    prev: u8,
    /// `!Send`: the guard must drop on the thread that installed it.
    _not_send: PhantomData<*const ()>,
}

/// Installs `e` as this thread's engine until the guard drops.
pub fn install(e: Engine) -> EngineGuard {
    let prev = OVERRIDE.with(|c| c.replace(e as u8));
    EngineGuard { prev, _not_send: PhantomData }
}

impl Drop for EngineGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        OVERRIDE.with(|c| c.set(prev));
    }
}

/// Emits one run bundle under the current engine: the scalar oracle
/// engine expands it element by element through [`Scalarize`], any other
/// engine hands the sink the bundle, which a simulator may walk per cache
/// line.  Native kernels that produce their own runs call this so that
/// `--engine scalar` checks them against the element walk too.
pub fn emit_runs(sink: &mut (impl AccessSink + ?Sized), refs: &[RunRef], count: u64) {
    if current() == Engine::Scalar {
        Scalarize::new(sink).access_runs(refs, count);
    } else {
        sink.access_runs(refs, count);
    }
}

/// One postfix op of a compiled nest body.  The sequence for a statement
/// list is its evaluation order flattened: operands push, operators pop
/// and push, stores pop — so the stack is empty between statements.
#[derive(Clone, Copy, Debug)]
enum VOp {
    Const(f64),
    /// Push the current cell of ref slot `r`.
    LoadRef(u32),
    LoadScalar(u32),
    /// Push the input value of input slot `i` at the current subscripts.
    Input(u32),
    Un(UnOp),
    Bin(BinOp),
    /// Pop into the current cell of ref slot `r`.
    StoreRef(u32),
    StoreScalar(u32),
}

/// One dimension of a compiled array reference: the subscript split into
/// its outer-variable part and its innermost-variable coefficient.
#[derive(Clone, Debug)]
struct DimPlan {
    /// The subscript with the innermost variable's term removed; evaluated
    /// once per run under the outer variables.
    outer: Affine,
    /// Coefficient of the innermost variable.
    inner_coeff: i64,
    /// Declared extent (for the analytic bounds pre-check).
    extent: i64,
    /// Fortran linear stride of this dimension, in elements.
    elem_stride: i64,
}

/// A compiled array reference: one slot per *textual occurrence*, in
/// per-iteration access order (loads in evaluation order, then the store,
/// statement by statement) — the order the scalar engine emits.
#[derive(Clone, Debug)]
struct RefPlan {
    array: ArrayId,
    kind: AccessKind,
    dims: Vec<DimPlan>,
}

/// A compiled `Expr::Input`: per-subscript outer part and inner
/// coefficient, advanced by a running add per iteration.
#[derive(Clone, Debug)]
struct InputPlan {
    src: SourceId,
    outer: Vec<Affine>,
    inner_coeff: Vec<i64>,
}

/// A loop nest lowered to runs: everything per-iteration is pre-resolved
/// to constants, running indices, and one flat op sequence.
#[derive(Clone, Debug)]
pub(crate) struct NestPlan {
    refs: Vec<RefPlan>,
    inputs: Vec<InputPlan>,
    vops: Vec<VOp>,
    flops_per_iter: u64,
    loads_per_iter: u64,
    stores_per_iter: u64,
}

/// Lowers one nest, or `None` when it is ineligible and must take the
/// scalar fallback.  Eligibility: the nest has at least one loop, its body
/// is all `Assign` (no `If` — conditional iterations would make the run
/// length data-dependent), and every element reference has plain affine
/// subscripts (`modulo == None`) of the declared rank.
pub(crate) fn compile_nest(prog: &Program, nest: &LoopNest) -> Option<NestPlan> {
    let inner = nest.loops.last()?.var;
    let mut plan = NestPlan {
        refs: Vec::new(),
        inputs: Vec::new(),
        vops: Vec::new(),
        flops_per_iter: 0,
        loads_per_iter: 0,
        stores_per_iter: 0,
    };
    for stmt in &nest.body {
        let Stmt::Assign { lhs, rhs } = stmt else {
            return None;
        };
        compile_expr(prog, inner, rhs, &mut plan)?;
        match lhs {
            Ref::Scalar(s) => plan.vops.push(VOp::StoreScalar(s.0)),
            Ref::Element(a, subs) => {
                let slot = add_ref(prog, inner, *a, subs, AccessKind::Write, &mut plan)?;
                plan.vops.push(VOp::StoreRef(slot));
            }
        }
    }
    for op in &plan.vops {
        match op {
            VOp::Un(op) => plan.flops_per_iter += op.flops(),
            VOp::Bin(op) => plan.flops_per_iter += op.flops(),
            VOp::LoadRef(_) => plan.loads_per_iter += 1,
            VOp::StoreRef(_) => plan.stores_per_iter += 1,
            _ => {}
        }
    }
    Some(plan)
}

fn compile_expr(
    prog: &Program,
    inner: crate::program::VarId,
    e: &Expr,
    plan: &mut NestPlan,
) -> Option<()> {
    match e {
        Expr::Const(c) => plan.vops.push(VOp::Const(*c)),
        Expr::Load(Ref::Scalar(s)) => plan.vops.push(VOp::LoadScalar(s.0)),
        Expr::Load(Ref::Element(a, subs)) => {
            let slot = add_ref(prog, inner, *a, subs, AccessKind::Read, plan)?;
            plan.vops.push(VOp::LoadRef(slot));
        }
        Expr::Input(src, subs) => {
            let mut outer = Vec::with_capacity(subs.len());
            let mut inner_coeff = Vec::with_capacity(subs.len());
            for sub in subs {
                inner_coeff.push(sub.coeff(inner));
                let mut o = sub.clone();
                o.terms.retain(|&(v, _)| v != inner);
                outer.push(o);
            }
            plan.inputs.push(InputPlan { src: *src, outer, inner_coeff });
            plan.vops.push(VOp::Input((plan.inputs.len() - 1) as u32));
        }
        Expr::Unary(op, x) => {
            compile_expr(prog, inner, x, plan)?;
            plan.vops.push(VOp::Un(*op));
        }
        Expr::Binary(op, l, r) => {
            compile_expr(prog, inner, l, plan)?;
            compile_expr(prog, inner, r, plan)?;
            plan.vops.push(VOp::Bin(*op));
        }
    }
    Some(())
}

fn add_ref(
    prog: &Program,
    inner: crate::program::VarId,
    a: ArrayId,
    subs: &[crate::expr::Sub],
    kind: AccessKind,
    plan: &mut NestPlan,
) -> Option<u32> {
    let decl = prog.array(a);
    if subs.len() != decl.dims.len() {
        return None;
    }
    let mut dims = Vec::with_capacity(subs.len());
    let mut stride: i64 = 1;
    for (sub, &extent) in subs.iter().zip(&decl.dims) {
        if sub.modulo.is_some() {
            return None;
        }
        let inner_coeff = sub.expr.coeff(inner);
        let mut outer = sub.expr.clone();
        outer.terms.retain(|&(v, _)| v != inner);
        dims.push(DimPlan { outer, inner_coeff, extent: extent as i64, elem_stride: stride });
        stride *= extent as i64;
    }
    plan.refs.push(RefPlan { array: a, kind, dims });
    Some((plan.refs.len() - 1) as u32)
}

/// Per-nest mutable executor state, allocated once per nest execution and
/// refilled at each innermost entry.
struct NestState {
    /// Per ref slot: `(current linear element index, per-iteration delta,
    /// array index)`.
    idx: Vec<(i64, i64, u32)>,
    inputs: Vec<InputState>,
    chunk_refs: Vec<RunRef>,
    stack: Vec<f64>,
}

struct InputState {
    cur: Vec<i64>,
    delta: Vec<i64>,
}

/// Runs a whole program under the runs engine.  Mirrors
/// [`Interpreter::run`]'s scalar body: same budget-fuel initialisation,
/// same per-nest spans and flop attribution.
pub(crate) fn run_compiled(
    mut interp: Interpreter<'_>,
    sink: &mut dyn AccessSink,
) -> Result<RunResult, InterpError> {
    if crate::budget::is_active() {
        interp.fuel = crate::budget::CHECK_BLOCK;
    }
    let prog = interp.prog;
    let plans: Vec<Option<NestPlan>> = prog.nests.iter().map(|n| compile_nest(prog, n)).collect();
    for (nest, plan) in prog.nests.iter().zip(&plans) {
        let _span = mbb_obs::span!("nest:{}", nest.name);
        let flops_before = interp.stats.flops;
        let result = match plan {
            Some(p) => exec_nest(&mut interp, nest, p, sink),
            None => interp.run_nest(nest, sink),
        };
        mbb_obs::add_flops(interp.stats.flops - flops_before);
        result?;
    }
    let observation = interp.observe();
    Ok(RunResult { stats: interp.stats, observation })
}

fn exec_nest(
    interp: &mut Interpreter<'_>,
    nest: &LoopNest,
    plan: &NestPlan,
    sink: &mut dyn AccessSink,
) -> Result<(), InterpError> {
    let mut st = NestState {
        idx: Vec::with_capacity(plan.refs.len()),
        inputs: Vec::with_capacity(plan.inputs.len()),
        chunk_refs: Vec::with_capacity(plan.refs.len()),
        stack: Vec::with_capacity(16),
    };
    walk(interp, nest, plan, &mut st, sink, 0)
}

/// Replicates [`Interpreter`]'s `run_level` over the outer loops — same
/// zero-step check order, same bound evaluation, same variable updates —
/// and hands each innermost entry to [`run_inner`].
fn walk(
    interp: &mut Interpreter<'_>,
    nest: &LoopNest,
    plan: &NestPlan,
    st: &mut NestState,
    sink: &mut dyn AccessSink,
    level: usize,
) -> Result<(), InterpError> {
    if level == nest.loops.len() - 1 {
        return run_inner(interp, nest, plan, st, sink);
    }
    let lp = &nest.loops[level];
    if lp.step == 0 {
        return Err(InterpError::ZeroStep { nest: nest.name.clone() });
    }
    let lo = interp.eval_affine_vars(&lp.lo);
    let hi = interp.eval_affine_vars(&lp.hi);
    let mut v = lo;
    while (lp.step > 0 && v <= hi) || (lp.step < 0 && v >= hi) {
        interp.vars[lp.var.0 as usize] = v;
        walk(interp, nest, plan, st, sink, level + 1)?;
        v += lp.step;
    }
    Ok(())
}

/// Executes one full innermost run: analytic bounds pre-check, budget-
/// chunked emission and value evaluation, and — when the pre-check found a
/// violation — exact replication of the scalar engine's error (including
/// its ordering against budget exhaustion).
fn run_inner(
    interp: &mut Interpreter<'_>,
    nest: &LoopNest,
    plan: &NestPlan,
    st: &mut NestState,
    sink: &mut dyn AccessSink,
) -> Result<(), InterpError> {
    let lp = nest.loops.last().expect("compiled nests have loops");
    if lp.step == 0 {
        return Err(InterpError::ZeroStep { nest: nest.name.clone() });
    }
    let lo = interp.eval_affine_vars(&lp.lo);
    let hi = interp.eval_affine_vars(&lp.hi);
    let step = lp.step;
    let len: u64 = if step > 0 {
        if hi < lo {
            0
        } else {
            ((hi as i128 - lo as i128) / step as i128 + 1) as u64
        }
    } else if hi > lo {
        0
    } else {
        ((lo as i128 - hi as i128) / (-(step as i128)) + 1) as u64
    };
    if len == 0 {
        return Ok(());
    }

    // Resolve every ref to (index₀, per-iteration element stride) and find
    // the first out-of-bounds iteration analytically.  Subscript `d` of
    // ref `r` at iteration `j` is `a + b·j`; its first bad `j` is 0 when
    // `a` already falls outside `[0, extent)`, otherwise `⌈(extent−a)/b⌉`
    // for `b > 0` / `⌊a/(−b)⌋ + 1` for `b < 0` / never for `b = 0`.  The
    // scalar engine reports the earliest bad iteration, first ref in
    // access order, first dimension — exactly the lexicographic minimum
    // of `(j, ref, dim)`.
    let mut bad: Option<(u64, usize, usize)> = None;
    st.idx.clear();
    for (ri, rp) in plan.refs.iter().enumerate() {
        let mut index0: i64 = 0;
        let mut estride: i64 = 0;
        for (d, dp) in rp.dims.iter().enumerate() {
            let a = interp.eval_affine_vars(&dp.outer) + dp.inner_coeff * lo;
            let b = dp.inner_coeff * step;
            let bad_j: Option<u64> = if a < 0 || a >= dp.extent {
                Some(0)
            } else if b > 0 {
                let j = ((dp.extent - a) + b - 1) / b;
                ((j as u64) < len).then_some(j as u64)
            } else if b < 0 {
                let j = a / (-b) + 1;
                ((j as u64) < len).then_some(j as u64)
            } else {
                None
            };
            if let Some(j) = bad_j {
                let cand = (j, ri, d);
                if bad.is_none_or(|b| cand < b) {
                    bad = Some(cand);
                }
            }
            index0 += a * dp.elem_stride;
            estride += b * dp.elem_stride;
        }
        st.idx.push((index0, estride, rp.array.0));
    }
    st.inputs.clear();
    if interp.values {
        for ip in &plan.inputs {
            let cur = ip
                .outer
                .iter()
                .zip(&ip.inner_coeff)
                .map(|(o, &c)| interp.eval_affine_vars(o) + c * lo)
                .collect();
            let delta = ip.inner_coeff.iter().map(|&c| c * step).collect();
            st.inputs.push(InputState { cur, delta });
        }
    }

    // Budget-chunked execution of the in-bounds prefix.  The scalar engine
    // decrements fuel before each iteration's body and charges a
    // CHECK_BLOCK when it reaches zero; with fuel F on entry that means
    // F−1 charge-free iterations, then a charging one, then CHECK_BLOCK−1
    // charge-free, … — replicated here as maximal charge-free chunks.
    let mut remaining = bad.map_or(len, |(j, _, _)| j);
    while remaining > 0 {
        let m = if interp.fuel == u64::MAX { remaining } else { (interp.fuel - 1).min(remaining) };
        if m > 0 {
            interp.stats.iterations += m;
            if interp.fuel != u64::MAX {
                interp.fuel -= m;
            }
            exec_chunk(interp, plan, st, sink, m);
            remaining -= m;
        }
        if remaining > 0 {
            interp.stats.iterations += 1;
            interp.fuel -= 1;
            crate::budget::charge(crate::budget::CHECK_BLOCK)?;
            interp.fuel = crate::budget::CHECK_BLOCK;
            exec_chunk(interp, plan, st, sink, 1);
            remaining -= 1;
        }
    }

    if let Some((_, ri, d)) = bad {
        // The failing iteration still pays its budget prologue first — a
        // budget error at this exact point outranks the bounds error, as
        // in the scalar engine.  Partial accesses of the failing iteration
        // are not emitted (all callers discard sink state on error).
        interp.stats.iterations += 1;
        if interp.fuel != u64::MAX {
            interp.fuel -= 1;
            if interp.fuel == 0 {
                crate::budget::charge(crate::budget::CHECK_BLOCK)?;
                interp.fuel = crate::budget::CHECK_BLOCK;
            }
        }
        let rp = &plan.refs[ri];
        let dp = &rp.dims[d];
        let a = interp.eval_affine_vars(&dp.outer) + dp.inner_coeff * lo;
        let jbad = bad.expect("checked above").0 as i64;
        let decl = interp.prog.array(rp.array);
        return Err(InterpError::OutOfBounds {
            array: decl.name.clone(),
            dim: d,
            value: a + dp.inner_coeff * step * jbad,
            extent: decl.dims[d],
        });
    }

    // The scalar loop leaves the variable at its last executed value.
    interp.vars[lp.var.0 as usize] = lo + (len as i64 - 1) * step;
    Ok(())
}

/// Emits and evaluates `m` iterations, starting at the current running
/// indices.  The access stream goes out first as one `access_runs` bundle
/// — the expansion order (iteration-major, refs in access order) is
/// exactly the scalar emission order, and the values computed afterwards
/// cannot influence the addresses, which are pre-resolved.  A trace-only
/// run stops after the bundle and the counters.
fn exec_chunk(
    interp: &mut Interpreter<'_>,
    plan: &NestPlan,
    st: &mut NestState,
    sink: &mut dyn AccessSink,
    m: u64,
) {
    st.chunk_refs.clear();
    for &(idx, estride, arr) in &st.idx {
        st.chunk_refs.push(RunRef {
            base: interp.bases[arr as usize].wrapping_add((idx as u64).wrapping_mul(8)),
            stride: estride.wrapping_mul(8),
            size: 8,
            kind: plan.refs[st.chunk_refs.len()].kind,
        });
    }
    sink.access_runs(&st.chunk_refs, m);
    interp.stats.flops += plan.flops_per_iter * m;
    interp.stats.loads += plan.loads_per_iter * m;
    interp.stats.stores += plan.stores_per_iter * m;

    if !interp.values {
        // A trace-only run needs the indices only, for the next chunk.
        for e in st.idx.iter_mut() {
            e.0 = e.0.wrapping_add(e.1.wrapping_mul(m as i64));
        }
        return;
    }
    for _ in 0..m {
        for op in &plan.vops {
            match *op {
                VOp::Const(c) => st.stack.push(c),
                VOp::LoadScalar(s) => st.stack.push(interp.scalars[s as usize]),
                VOp::LoadRef(r) => {
                    let (idx, _, arr) = st.idx[r as usize];
                    st.stack.push(interp.arrays[arr as usize][idx as usize]);
                }
                VOp::Input(i) => {
                    let is = &st.inputs[i as usize];
                    st.stack.push(input_value(plan.inputs[i as usize].src, input_key(&is.cur)));
                }
                VOp::Un(op) => {
                    let x = st.stack.pop().expect("operand on stack");
                    st.stack.push(op.apply(x));
                }
                VOp::Bin(op) => {
                    let r = st.stack.pop().expect("rhs on stack");
                    let l = st.stack.pop().expect("lhs on stack");
                    st.stack.push(op.apply(l, r));
                }
                VOp::StoreRef(r) => {
                    let v = st.stack.pop().expect("value on stack");
                    let (idx, _, arr) = st.idx[r as usize];
                    interp.arrays[arr as usize][idx as usize] = v;
                }
                VOp::StoreScalar(s) => {
                    let v = st.stack.pop().expect("value on stack");
                    interp.scalars[s as usize] = v;
                }
            }
        }
        for e in st.idx.iter_mut() {
            e.0 += e.1;
        }
        for is in st.inputs.iter_mut() {
            for (c, &d) in is.cur.iter_mut().zip(&is.delta) {
                *c += d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::interp::LayoutOpts;
    use crate::program::Loop;
    use crate::trace::{Access, VecSink};

    fn run_both(p: &Program) -> (Result<RunResult, InterpError>, Result<RunResult, InterpError>) {
        let mut vs = VecSink::new();
        let scalar = {
            let _g = install(Engine::Scalar);
            Interpreter::new(p).run(&mut vs)
        };
        let mut vr = VecSink::new();
        let runs = {
            let _g = install(Engine::Runs);
            Interpreter::new(p).run(&mut vr)
        };
        assert_eq!(vs.events, vr.events, "access streams must be identical on success");
        (scalar, runs)
    }

    /// Runs `p` under `engine` and a fresh step budget, with values or
    /// trace-only, recording the access stream up to the end or the error.
    fn run_mode(
        p: &Program,
        engine: Engine,
        values: bool,
        max_steps: Option<u64>,
    ) -> (Result<RunResult, InterpError>, Vec<Access>) {
        let _g = install(engine);
        let _b = crate::budget::Budget { max_steps, wall: None }.install();
        let mut sink = VecSink::new();
        let interp = if values {
            Interpreter::new(p)
        } else {
            Interpreter::trace_only(p, LayoutOpts::default())
        };
        (interp.run(&mut sink), sink.events)
    }

    /// Under each engine, a trace-only run fails with the value run's error
    /// after the value run's accesses: the same error at the same point.
    fn assert_fails_alike_without_values(p: &Program, max_steps: Option<u64>) -> InterpError {
        let mut first = None;
        for engine in [Engine::Scalar, Engine::Runs] {
            let (value, value_trace) = run_mode(p, engine, true, max_steps);
            let (bare, bare_trace) = run_mode(p, engine, false, max_steps);
            let value = value.expect_err("value run fails");
            assert_eq!(bare.expect_err("trace-only run fails"), value, "{engine}");
            assert_eq!(bare_trace, value_trace, "{engine}: accesses before the error");
            first.get_or_insert(value);
        }
        first.expect("two engines ran")
    }

    fn assert_identical(p: &Program) {
        let (s, r) = run_both(p);
        let (s, r) = (s.expect("scalar run"), r.expect("runs run"));
        assert_eq!(s.stats, r.stats);
        assert_eq!(s.observation.diff(&r.observation, 0.0), None);
    }

    /// A 2-D stencil-ish program with negative inner stride, a reduction
    /// scalar, an Input term and a loop-invariant reference.
    fn mixed_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new("mixed");
        let a = b.array_in("a", &[n, n]);
        let w = b.array_in("w", &[n]);
        let out = b.array_out("out", &[n, n]);
        let acc = b.scalar_printed("acc", 0.0);
        let i = b.var("i");
        let j = b.var("j");
        let src = SourceId(11);
        b.nest_general(
            "fwd",
            vec![Loop::new(j, 0, n as i64 - 1), Loop::new(i, 0, n as i64 - 1)],
            vec![
                assign(
                    out.at([v(i), v(j)]),
                    ld(a.at([v(i), v(j)])) * ld(w.at([v(j)]))
                        + Expr::Input(src, vec![v(i), v(j)])
                        + lit(0.5),
                ),
                assign(acc.r(), ld(acc.r()) + ld(out.at([v(i), v(j)]))),
            ],
        );
        b.nest_general(
            "bwd",
            vec![
                Loop::new(j, 0, n as i64 - 1),
                Loop { var: i, lo: c(n as i64 - 1), hi: c(0), step: -1 },
            ],
            vec![assign(
                out.at([v(i), v(j)]),
                ld(out.at([v(i), v(j)])) + ld(a.at([c(n as i64 - 1) - v(i), v(j)])),
            )],
        );
        b.finish()
    }

    #[test]
    fn engine_override_nests_and_restores() {
        assert_eq!(current(), Engine::from_u8(DEFAULT_ENGINE.load(Ordering::Relaxed)));
        let outer = install(Engine::Scalar);
        assert_eq!(current(), Engine::Scalar);
        {
            let _inner = install(Engine::Runs);
            assert_eq!(current(), Engine::Runs);
        }
        assert_eq!(current(), Engine::Scalar);
        drop(outer);
    }

    #[test]
    fn engine_parses_round_trip() {
        for e in [Engine::Auto, Engine::Runs, Engine::Scalar] {
            assert_eq!(e.as_str().parse::<Engine>().unwrap(), e);
        }
        assert!("fast".parse::<Engine>().is_err());
    }

    #[test]
    fn mixed_program_is_engine_invariant() {
        assert_identical(&mixed_program(13));
    }

    #[test]
    fn conditional_bodies_fall_back_and_match() {
        use crate::expr::CmpOp;
        let mut b = ProgramBuilder::new("cond");
        let a = b.array_out("a", &[32]);
        let i = b.var("i");
        b.nest(
            "guarded",
            &[(i, 0, 31)],
            vec![if_else(
                cmp(v(i), CmpOp::Le, c(15)),
                vec![assign(a.at([v(i)]), lit(1.0))],
                vec![assign(a.at([v(i)]), lit(2.0))],
            )],
        );
        let p = b.finish();
        assert!(compile_nest(&p, &p.nests[0]).is_none(), "If bodies are ineligible");
        assert_identical(&p);
    }

    #[test]
    fn modular_subscripts_fall_back_and_match() {
        use crate::expr::Sub;
        let mut b = ProgramBuilder::new("modular");
        let a = b.array_out("a", &[4]);
        let src = SourceId(23);
        let i = b.var("i");
        b.nest(
            "wrap",
            &[(i, 0, 63)],
            vec![assign(
                Ref::Element(a, vec![Sub::modular(Affine::var(i), 4)]),
                Expr::Input(src, vec![v(i)]),
            )],
        );
        let p = b.finish();
        assert!(compile_nest(&p, &p.nests[0]).is_none(), "modular subscripts are ineligible");
        assert_identical(&p);
    }

    #[test]
    fn out_of_bounds_error_is_engine_invariant() {
        let mut b = ProgramBuilder::new("oob");
        let a = b.array_out("a", &[8, 8]);
        let i = b.var("i");
        let j = b.var("j");
        // a[i, 2j − 3]: dim 0 overruns at i = 8 on the very first j trip;
        // checks error field parity precisely.
        b.nest_general(
            "oob",
            vec![Loop::new(j, 2, 7), Loop::new(i, 0, 9)],
            vec![assign(a.at([v(i), v(j).scaled(2) - 3]), lit(1.0))],
        );
        let p = b.finish();
        let (s, r) = {
            let sv = {
                let _g = install(Engine::Scalar);
                Interpreter::new(&p).run(&mut crate::trace::NullSink)
            };
            let rv = {
                let _g = install(Engine::Runs);
                Interpreter::new(&p).run(&mut crate::trace::NullSink)
            };
            (sv, rv)
        };
        let se = s.expect_err("scalar detects oob");
        let re = r.expect_err("runs detects oob");
        assert_eq!(se, re);
        match se {
            InterpError::OutOfBounds { dim, value, extent, .. } => {
                assert_eq!((dim, value, extent), (0, 8, 8));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(assert_fails_alike_without_values(&p, None), re);
    }

    #[test]
    fn oob_before_first_iteration_matches() {
        let mut b = ProgramBuilder::new("oob0");
        let a = b.array_out("a", &[4]);
        let i = b.var("i");
        b.nest("over", &[(i, 0, 7)], vec![assign(a.at([v(i)]), lit(1.0))]);
        let p = b.finish();
        let (s, r) = run_both(&p);
        let re = r.unwrap_err();
        assert_eq!(s.unwrap_err(), re);
        assert_eq!(assert_fails_alike_without_values(&p, None), re);
    }

    #[test]
    fn zero_step_error_is_engine_invariant() {
        let mut b = ProgramBuilder::new("zs");
        let a = b.array_out("a", &[4]);
        let i = b.var("i");
        let j = b.var("j");
        b.nest_general(
            "still",
            vec![Loop::new(j, 0, 3), Loop { var: i, lo: c(0), hi: c(3), step: 0 }],
            vec![assign(a.at([v(i)]), lit(1.0))],
        );
        let p = b.finish();
        let (s, r) = run_both(&p);
        let re = r.unwrap_err();
        assert_eq!(s.unwrap_err(), re);
        assert!(matches!(re, InterpError::ZeroStep { .. }));
    }

    #[test]
    fn budget_exhaustion_is_engine_invariant() {
        let p = mixed_program(24);
        let run_with_budget = |e: Engine| {
            let _g = install(e);
            let budget = crate::budget::Budget { max_steps: Some(1000), wall: None };
            let _b = budget.install();
            Interpreter::new(&p).run(&mut crate::trace::NullSink)
        };
        let s = run_with_budget(Engine::Scalar).expect_err("budget trips");
        let r = run_with_budget(Engine::Runs).expect_err("budget trips");
        assert_eq!(format!("{s}"), format!("{r}"));
        assert!(matches!(r, InterpError::Budget(_)));
        // The first charge, at iteration 1024 of 1152, trips the budget.
        assert_eq!(assert_fails_alike_without_values(&p, Some(1000)), r);
    }

    #[test]
    fn budget_survival_threshold_is_engine_invariant() {
        // The exact largest budget that still fails and smallest that
        // passes must agree across engines (charge points are identical).
        let p = mixed_program(10);
        let total = {
            let _g = install(Engine::Scalar);
            Interpreter::new(&p).run(&mut crate::trace::NullSink).unwrap().stats.iterations
        };
        for max in [total - 1, total, total + 1, 1024, 1025, 2048] {
            let outcome = |e: Engine, values: bool| run_mode(&p, e, values, Some(max)).0.is_ok();
            let scalar = outcome(Engine::Scalar, true);
            assert_eq!(scalar, outcome(Engine::Runs, true), "max_steps={max}");
            assert_eq!(scalar, outcome(Engine::Scalar, false), "max_steps={max}, no values");
            assert_eq!(scalar, outcome(Engine::Runs, false), "max_steps={max}, no values");
        }
    }

    #[test]
    fn empty_inner_trips_are_engine_invariant() {
        let mut b = ProgramBuilder::new("empty");
        let a = b.array_out("a", &[8, 8]);
        let i = b.var("i");
        let j = b.var("j");
        // Triangular: inner runs j = 0..i-1, empty for i = 0.
        b.nest_general(
            "tri",
            vec![Loop::new(i, 0, 7), Loop { var: j, lo: c(0), hi: Affine::var(i) - 1, step: 1 }],
            vec![assign(a.at([v(j), v(i)]), lit(3.0))],
        );
        assert_identical(&b.finish());
    }
}
