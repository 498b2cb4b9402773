//! An exact interpreter for loop programs.
//!
//! The interpreter plays the role of the paper's instrumented hardware: it
//! executes a [`Program`] over real `f64` storage, counts floating-point
//! operations, and emits every array-element access (with its byte address)
//! into an [`AccessSink`].  Scalars are register-resident and produce no
//! memory traffic, matching how the paper's balance model charges data
//! transfer.
//!
//! Running the same input program before and after a transformation and
//! comparing [`Observation`]s is how this workspace *proves* (dynamically)
//! that a transformation preserved semantics.

use std::fmt;

use crate::expr::{Expr, Ref};
use crate::program::{ArrayId, Init, LoopNest, Program, SourceId, Stmt};
use crate::trace::{Access, AccessSink};

/// Controls how arrays are laid out in the simulated address space.
///
/// Layout matters: the Exemplar's direct-mapped cache makes the `3w6r`
/// kernel collide (Figure 3's outlier), and that behaviour emerges from
/// address bits, not from counts.
#[derive(Clone, Copy, Debug)]
pub struct LayoutOpts {
    /// Address of the first array.
    pub base: u64,
    /// Alignment of each array's base address (power of two).
    pub align: u64,
    /// Extra padding bytes inserted after each array (use to break or to
    /// provoke cache conflicts deliberately).
    pub pad: u64,
}

impl Default for LayoutOpts {
    fn default() -> Self {
        LayoutOpts { base: 0x10_0000, align: 64, pad: 0 }
    }
}

impl LayoutOpts {
    /// Assigns a base byte address to every array, in declaration order.
    pub fn assign(&self, prog: &Program) -> Vec<u64> {
        let mut next = self.base;
        let mut bases = Vec::with_capacity(prog.arrays.len());
        for a in &prog.arrays {
            let mask = self.align.max(1) - 1;
            next = (next + mask) & !mask;
            bases.push(next);
            next += a.bytes() as u64 + self.pad;
        }
        bases
    }
}

/// Execution counters gathered by one run.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ExecStats {
    /// Floating-point operations executed (the paper's flop count).
    pub flops: u64,
    /// Array-element loads executed (register loads from memory).
    pub loads: u64,
    /// Array-element stores executed (register stores to memory).
    pub stores: u64,
    /// Innermost loop iterations executed.
    pub iterations: u64,
}

impl ExecStats {
    /// Bytes moved between registers and the L1 cache (8 bytes per access):
    /// the numerator of the paper's L1–register balance.
    pub fn reg_bytes(&self) -> u64 {
        (self.loads + self.stores) * 8
    }
}

/// The observable behaviour of a run: final values of printed scalars and
/// live-out arrays.  Two programs are considered equivalent when their
/// observations agree (up to floating-point tolerance, since fusion may
/// reassociate reductions).
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// `(name, final value)` for every printed scalar, in declaration order.
    pub scalars: Vec<(String, f64)>,
    /// `(name, final contents)` for every live-out array, in declaration
    /// order.
    pub arrays: Vec<(String, Vec<f64>)>,
}

impl Observation {
    /// Compares two observations with a relative tolerance.
    ///
    /// Returns `None` when equivalent, or `Some(description)` of the first
    /// mismatch.
    pub fn diff(&self, other: &Observation, rel_tol: f64) -> Option<String> {
        fn close(a: f64, b: f64, tol: f64) -> bool {
            if a == b {
                return true;
            }
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        }
        if self.scalars.len() != other.scalars.len() {
            return Some(format!(
                "printed-scalar count differs: {} vs {}",
                self.scalars.len(),
                other.scalars.len()
            ));
        }
        for ((an, av), (bn, bv)) in self.scalars.iter().zip(&other.scalars) {
            if an != bn {
                return Some(format!("scalar name mismatch: {an} vs {bn}"));
            }
            if !close(*av, *bv, rel_tol) {
                return Some(format!("scalar {an}: {av} vs {bv}"));
            }
        }
        if self.arrays.len() != other.arrays.len() {
            return Some(format!(
                "live-out array count differs: {} vs {}",
                self.arrays.len(),
                other.arrays.len()
            ));
        }
        for ((an, av), (bn, bv)) in self.arrays.iter().zip(&other.arrays) {
            if an != bn {
                return Some(format!("array name mismatch: {an} vs {bn}"));
            }
            if av.len() != bv.len() {
                return Some(format!("array {an}: length {} vs {}", av.len(), bv.len()));
            }
            for (k, (x, y)) in av.iter().zip(bv).enumerate() {
                if !close(*x, *y, rel_tol) {
                    return Some(format!("array {an}[{k}]: {x} vs {y}"));
                }
            }
        }
        None
    }

    /// True when [`Observation::diff`] reports no mismatch.
    pub fn approx_eq(&self, other: &Observation, rel_tol: f64) -> bool {
        self.diff(other, rel_tol).is_none()
    }
}

/// Errors surfaced by interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// An array subscript evaluated outside the declared extent.
    OutOfBounds {
        /// The offending array's name.
        array: String,
        /// The dimension whose subscript was out of range.
        dim: usize,
        /// The evaluated subscript value.
        value: i64,
        /// The declared extent of that dimension.
        extent: usize,
    },
    /// A loop with step 0 was encountered.
    ZeroStep {
        /// The offending nest's name.
        nest: String,
    },
    /// An element reference had the wrong number of subscripts.
    RankMismatch {
        /// The offending array's name.
        array: String,
        /// Number of subscripts supplied.
        got: usize,
        /// Number of dimensions declared.
        want: usize,
    },
    /// The installed execution budget ran out (see [`crate::budget`]).
    Budget(crate::budget::BudgetExceeded),
}

impl From<crate::budget::BudgetExceeded> for InterpError {
    fn from(e: crate::budget::BudgetExceeded) -> InterpError {
        InterpError::Budget(e)
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfBounds { array, dim, value, extent } => {
                write!(f, "subscript out of bounds: {array} dim {dim} = {value}, extent {extent}")
            }
            InterpError::ZeroStep { nest } => write!(f, "loop with zero step in nest {nest}"),
            InterpError::RankMismatch { array, got, want } => {
                write!(f, "rank mismatch on {array}: {got} subscripts, {want} dims")
            }
            InterpError::Budget(b) => write!(f, "{b}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The result of a complete run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Execution counters.
    pub stats: ExecStats,
    /// Observable outputs.
    pub observation: Observation,
}

/// Deterministic pseudo-random value in `[0, 1)` for input stream `src` at
/// linearised position `key` (SplitMix64 over the pair).
pub fn input_value(src: SourceId, key: u64) -> f64 {
    let z = mbb_obs::splitmix64((u64::from(src.0) << 32) ^ key ^ mbb_obs::GOLDEN_GAMMA);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Maps cell `k` of a peeled section (the array shaped like `orig_dims`
/// with dimension `dim` removed) back to the linear index it had in the
/// original array at `dim = index`, using the Fortran-order linearisation
/// (subscript 0 fastest).
pub fn section_linear(orig_dims: &[usize], dim: usize, index: usize, k: usize) -> usize {
    let mut rem = k;
    let mut coords = Vec::with_capacity(orig_dims.len());
    for (d, &extent) in orig_dims.iter().enumerate() {
        if d == dim {
            coords.push(index);
        } else {
            coords.push(rem % extent);
            rem /= extent;
        }
    }
    let mut linear = 0usize;
    let mut stride = 1usize;
    for (d, &extent) in orig_dims.iter().enumerate() {
        linear += coords[d] * stride;
        stride *= extent;
    }
    linear
}

/// Hashes a subscript vector into the 64-bit key used by [`input_value`].
pub(crate) fn input_key(subs: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &s in subs {
        h ^= s as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Interpreter state for one run of one program.
///
/// Fields are crate-visible: the run-compiled executor (see
/// [`crate::runs`]) drives the same storage, counters and fuel, falling
/// back to `Interpreter::run_nest` for nests it cannot lower.
pub struct Interpreter<'p> {
    pub(crate) prog: &'p Program,
    layout: LayoutOpts,
    pub(crate) bases: Vec<u64>,
    /// False for a [`Interpreter::trace_only`] run: no storage, no values.
    pub(crate) values: bool,
    pub(crate) arrays: Vec<Vec<f64>>,
    pub(crate) scalars: Vec<f64>,
    pub(crate) vars: Vec<i64>,
    pub(crate) stats: ExecStats,
    /// Innermost iterations left before the next budget check.  `u64::MAX`
    /// when no budget is installed, so unbudgeted runs pay only a
    /// decrement-and-branch per iteration.
    pub(crate) fuel: u64,
}

impl<'p> Interpreter<'p> {
    /// Prepares an interpreter with the default layout.
    pub fn new(prog: &'p Program) -> Self {
        Self::with_layout(prog, LayoutOpts::default())
    }

    /// Prepares an interpreter with an explicit array layout.
    pub fn with_layout(prog: &'p Program, layout: LayoutOpts) -> Self {
        let bases = layout.assign(prog);
        let arrays = prog
            .arrays
            .iter()
            .map(|a| match &a.init {
                Init::Zero => vec![0.0; a.len()],
                Init::Hash => (0..a.len()).map(|k| input_value(a.source, k as u64)).collect(),
                Init::HashSection { source, orig_dims, dim, index } => (0..a.len())
                    .map(|k| {
                        input_value(*source, section_linear(orig_dims, *dim, *index, k) as u64)
                    })
                    .collect(),
                Init::HashInterleaved { sources } => (0..a.len())
                    .map(|k| {
                        let n = sources.len();
                        input_value(sources[k % n], (k / n) as u64)
                    })
                    .collect(),
            })
            .collect();
        let scalars = prog.scalars.iter().map(|s| s.init).collect();
        Interpreter {
            prog,
            layout,
            bases,
            values: true,
            arrays,
            scalars,
            vars: vec![0; prog.vars.len()],
            stats: ExecStats::default(),
            fuel: u64::MAX,
        }
    }

    /// Prepares an interpreter that emits the access stream and counts
    /// flops, loads, stores and iterations, but computes no values: it
    /// allocates no array storage, reads every load as 0, skips stores and
    /// `Input` hashes, and returns an empty [`Observation`].
    ///
    /// The trace, the counters, every bounds error and every budget charge
    /// are those of the value run under either engine, because in this IR
    /// no address, guard, count or trip depends on a value.  Use it where
    /// only the trace and counters are read (balance measurement); run
    /// with values wherever an observation is compared.
    pub fn trace_only(prog: &'p Program, layout: LayoutOpts) -> Self {
        Interpreter {
            prog,
            layout,
            bases: layout.assign(prog),
            values: false,
            arrays: Vec::new(),
            scalars: Vec::new(),
            vars: vec![0; prog.vars.len()],
            stats: ExecStats::default(),
            fuel: u64::MAX,
        }
    }

    /// The base byte address assigned to each array.
    pub fn bases(&self) -> &[u64] {
        &self.bases
    }

    /// The layout used for this run.
    pub fn layout(&self) -> LayoutOpts {
        self.layout
    }

    /// Runs the whole program, streaming accesses into `sink` one at a
    /// time, in program order.
    pub fn run(mut self, sink: &mut dyn AccessSink) -> Result<RunResult, InterpError> {
        if crate::runs::current() != crate::runs::Engine::Scalar {
            return crate::runs::run_compiled(self, sink);
        }
        if crate::budget::is_active() {
            self.fuel = crate::budget::CHECK_BLOCK;
        }
        // Per-nest attribution: each nest gets a span, which sees exactly
        // the accesses the nest emits, and the nest's flops are attributed
        // by diffing the run's own counter.  Both are no-ops without a
        // collector.
        for nest in &self.prog.nests {
            let _span = mbb_obs::span!("nest:{}", nest.name);
            let flops_before = self.stats.flops;
            let result = self.run_nest(nest, sink);
            mbb_obs::add_flops(self.stats.flops - flops_before);
            result?;
        }
        let observation = self.observe();
        Ok(RunResult { stats: self.stats, observation })
    }

    pub(crate) fn observe(&self) -> Observation {
        if !self.values {
            return Observation::default();
        }
        let scalars = self
            .prog
            .scalars
            .iter()
            .enumerate()
            .filter(|(_, s)| s.printed)
            .map(|(k, s)| (s.name.clone(), self.scalars[k]))
            .collect();
        let arrays = self
            .prog
            .arrays
            .iter()
            .enumerate()
            .filter(|(_, a)| a.live_out)
            .map(|(k, a)| (a.name.clone(), self.arrays[k].clone()))
            .collect();
        Observation { scalars, arrays }
    }

    pub(crate) fn run_nest(
        &mut self,
        nest: &LoopNest,
        sink: &mut dyn AccessSink,
    ) -> Result<(), InterpError> {
        self.run_level(nest, 0, sink)
    }

    fn run_level(
        &mut self,
        nest: &LoopNest,
        level: usize,
        sink: &mut dyn AccessSink,
    ) -> Result<(), InterpError> {
        if level == nest.loops.len() {
            self.stats.iterations += 1;
            // Budget enforcement has block granularity: the installed
            // budget is charged once per CHECK_BLOCK iterations, never per
            // access event (see `crate::budget`).
            self.fuel -= 1;
            if self.fuel == 0 {
                crate::budget::charge(crate::budget::CHECK_BLOCK)?;
                self.fuel = crate::budget::CHECK_BLOCK;
            }
            for stmt in &nest.body {
                self.exec_stmt(stmt, sink)?;
            }
            return Ok(());
        }
        let lp = &nest.loops[level];
        if lp.step == 0 {
            return Err(InterpError::ZeroStep { nest: nest.name.clone() });
        }
        let lo = self.eval_affine_vars(&lp.lo);
        let hi = self.eval_affine_vars(&lp.hi);
        let mut v = lo;
        while (lp.step > 0 && v <= hi) || (lp.step < 0 && v >= hi) {
            self.vars[lp.var.0 as usize] = v;
            self.run_level(nest, level + 1, sink)?;
            v += lp.step;
        }
        Ok(())
    }

    pub(crate) fn eval_affine_vars(&self, a: &crate::expr::Affine) -> i64 {
        a.constant + a.terms.iter().map(|&(v, c)| c * self.vars[v.0 as usize]).sum::<i64>()
    }

    fn exec_stmt(&mut self, stmt: &Stmt, sink: &mut dyn AccessSink) -> Result<(), InterpError> {
        match stmt {
            Stmt::Assign { lhs, rhs } => {
                let value = self.eval_expr(rhs, sink)?;
                self.store(lhs, value, sink)
            }
            Stmt::If { cond, then_, else_ } => {
                let taken = cond
                    .op
                    .apply(self.eval_affine_vars(&cond.lhs), self.eval_affine_vars(&cond.rhs));
                let branch = if taken { then_ } else { else_ };
                for s in branch {
                    self.exec_stmt(s, sink)?;
                }
                Ok(())
            }
        }
    }

    fn element(&self, id: ArrayId, subs: &[crate::expr::Sub]) -> Result<(usize, u64), InterpError> {
        let decl = self.prog.array(id);
        if subs.len() != decl.dims.len() {
            return Err(InterpError::RankMismatch {
                array: decl.name.clone(),
                got: subs.len(),
                want: decl.dims.len(),
            });
        }
        // Subscript 0 is the fastest-varying (stride 1), matching the
        // Fortran `a(i, j)` convention the paper's examples use.
        let mut index = 0usize;
        let mut stride = 1usize;
        for (d, sub) in subs.iter().enumerate() {
            let raw = self.eval_affine_vars(&sub.expr);
            let val = match sub.modulo {
                None => raw,
                Some(m) => raw.rem_euclid(m as i64),
            };
            let extent = decl.dims[d];
            if val < 0 || val as usize >= extent {
                return Err(InterpError::OutOfBounds {
                    array: decl.name.clone(),
                    dim: d,
                    value: val,
                    extent,
                });
            }
            index += val as usize * stride;
            stride *= extent;
        }
        let addr = self.bases[id.0 as usize] + (index as u64) * 8;
        Ok((index, addr))
    }

    fn load(&mut self, r: &Ref, sink: &mut dyn AccessSink) -> Result<f64, InterpError> {
        match r {
            Ref::Scalar(_) if !self.values => Ok(0.0),
            Ref::Scalar(s) => Ok(self.scalars[s.0 as usize]),
            Ref::Element(a, subs) => {
                let (index, addr) = self.element(*a, subs)?;
                self.stats.loads += 1;
                sink.access(Access::read(addr, 8));
                Ok(if self.values { self.arrays[a.0 as usize][index] } else { 0.0 })
            }
        }
    }

    fn store(&mut self, r: &Ref, value: f64, sink: &mut dyn AccessSink) -> Result<(), InterpError> {
        match r {
            Ref::Scalar(_) if !self.values => Ok(()),
            Ref::Scalar(s) => {
                self.scalars[s.0 as usize] = value;
                Ok(())
            }
            Ref::Element(a, subs) => {
                let (index, addr) = self.element(*a, subs)?;
                self.stats.stores += 1;
                sink.access(Access::write(addr, 8));
                if self.values {
                    self.arrays[a.0 as usize][index] = value;
                }
                Ok(())
            }
        }
    }

    fn eval_expr(&mut self, e: &Expr, sink: &mut dyn AccessSink) -> Result<f64, InterpError> {
        match e {
            Expr::Const(c) => Ok(*c),
            Expr::Load(r) => self.load(r, sink),
            // Input subscripts are affine and unchecked: skipping them
            // cannot skip an error.
            Expr::Input(..) if !self.values => Ok(0.0),
            Expr::Input(src, subs) => {
                let vals: Vec<i64> = subs.iter().map(|s| self.eval_affine_vars(s)).collect();
                Ok(input_value(*src, input_key(&vals)))
            }
            Expr::Unary(op, x) => {
                let xv = self.eval_expr(x, sink)?;
                self.stats.flops += op.flops();
                Ok(op.apply(xv))
            }
            Expr::Binary(op, l, r) => {
                let lv = self.eval_expr(l, sink)?;
                let rv = self.eval_expr(r, sink)?;
                self.stats.flops += op.flops();
                Ok(op.apply(lv, rv))
            }
        }
    }
}

/// Runs a program with the default layout, discarding the trace.
pub fn run(prog: &Program) -> Result<RunResult, InterpError> {
    Interpreter::new(prog).run(&mut crate::trace::NullSink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Affine, BinOp, CmpOp, Cond, Expr, Ref};
    use crate::program::VarId;
    use crate::program::{ArrayDecl, Loop, LoopNest, ScalarDecl};
    use crate::trace::{CountingSink, VecSink};

    /// `for i = 0..n-1 { sum += a[i] }` over a zero/hash-initialised array.
    fn sum_program(n: usize, init: Init) -> Program {
        let mut p = Program::new("sum");
        let src = p.fresh_source();
        let a = p.add_array(ArrayDecl {
            name: "a".into(),
            dims: vec![n],
            init,
            live_out: false,
            source: src,
        });
        let s = p.add_scalar(ScalarDecl { name: "sum".into(), init: 0.0, printed: true });
        let i = p.add_var("i");
        p.nests.push(LoopNest {
            name: "sum".into(),
            loops: vec![Loop::new(i, 0, n as i64 - 1)],
            body: vec![Stmt::Assign {
                lhs: Ref::Scalar(s),
                rhs: Expr::bin(
                    BinOp::Add,
                    Expr::load(Ref::Scalar(s)),
                    Expr::load(Ref::element(a, [Affine::var(i)])),
                ),
            }],
        });
        p
    }

    #[test]
    fn sums_zeroed_array() {
        let p = sum_program(100, Init::Zero);
        let r = run(&p).unwrap();
        assert_eq!(r.observation.scalars, vec![("sum".to_string(), 0.0)]);
        assert_eq!(r.stats.loads, 100);
        assert_eq!(r.stats.stores, 0);
        assert_eq!(r.stats.flops, 100);
        assert_eq!(r.stats.iterations, 100);
    }

    #[test]
    fn hash_init_is_deterministic() {
        let p = sum_program(64, Init::Hash);
        let r1 = run(&p).unwrap();
        let r2 = run(&p).unwrap();
        assert_eq!(r1.observation.scalars[0].1, r2.observation.scalars[0].1);
        assert!(r1.observation.scalars[0].1 > 0.0);
    }

    #[test]
    fn trace_has_addresses_and_kinds() {
        let p = sum_program(4, Init::Zero);
        let mut v = VecSink::new();
        let r = Interpreter::new(&p).run(&mut v).unwrap();
        assert_eq!(r.stats.loads, 4);
        assert_eq!(v.events.len(), 4);
        let base = v.events[0].addr;
        for (k, ev) in v.events.iter().enumerate() {
            assert_eq!(ev.addr, base + 8 * k as u64, "stride-one addresses");
            assert_eq!(ev.kind, crate::trace::AccessKind::Read);
            assert_eq!(ev.size, 8);
        }
    }

    #[test]
    fn fortran_order_linearisation() {
        // a[i, j] with dims [2, 3]: element (1, 2) sits at index 1 + 2*2 = 5.
        let mut p = Program::new("lin");
        let src = p.fresh_source();
        let a = p.add_array(ArrayDecl {
            name: "a".into(),
            dims: vec![2, 3],
            init: Init::Zero,
            live_out: true,
            source: src,
        });
        let i = p.add_var("i");
        let j = p.add_var("j");
        p.nests.push(LoopNest {
            name: "w".into(),
            loops: vec![Loop::new(j, 2, 2), Loop::new(i, 1, 1)],
            body: vec![Stmt::Assign {
                lhs: Ref::element(a, [Affine::var(i), Affine::var(j)]),
                rhs: Expr::Const(7.0),
            }],
        });
        let r = run(&p).unwrap();
        let contents = &r.observation.arrays[0].1;
        assert_eq!(contents[5], 7.0);
        assert_eq!(contents.iter().filter(|&&x| x != 0.0).count(), 1);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut p = sum_program(4, Init::Zero);
        // Shift the subscript to i+1 so the last iteration runs off the end.
        if let Stmt::Assign { rhs, .. } = &mut p.nests[0].body[0] {
            *rhs = rhs.map_refs(&mut |r| match r {
                Ref::Element(a, subs) => Ref::element(*a, [subs[0].expr.clone() + 1]),
                other => other.clone(),
            });
        }
        let err = run(&p).unwrap_err();
        match err {
            InterpError::OutOfBounds { value, extent, .. } => {
                assert_eq!(value, 4);
                assert_eq!(extent, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn conditionals_select_branch() {
        // for i = 0..9 { if i <= 4 { s += 1 } else { t += 1 } }
        let mut p = Program::new("cond");
        let s = p.add_scalar(ScalarDecl { name: "s".into(), init: 0.0, printed: true });
        let t = p.add_scalar(ScalarDecl { name: "t".into(), init: 0.0, printed: true });
        let i = p.add_var("i");
        let bump = |sc| Stmt::Assign {
            lhs: Ref::Scalar(sc),
            rhs: Expr::bin(BinOp::Add, Expr::load(Ref::Scalar(sc)), Expr::Const(1.0)),
        };
        p.nests.push(LoopNest {
            name: "c".into(),
            loops: vec![Loop::new(i, 0, 9)],
            body: vec![Stmt::If {
                cond: Cond::new(Affine::var(i), CmpOp::Le, Affine::constant(4)),
                then_: vec![bump(s)],
                else_: vec![bump(t)],
            }],
        });
        let r = run(&p).unwrap();
        assert_eq!(r.observation.scalars, vec![("s".into(), 5.0), ("t".into(), 5.0)]);
        // Only the taken branch's flops are charged.
        assert_eq!(r.stats.flops, 10);
    }

    #[test]
    fn input_values_are_order_independent() {
        let a = input_value(SourceId(3), input_key(&[1, 2]));
        let b = input_value(SourceId(3), input_key(&[1, 2]));
        let c = input_value(SourceId(3), input_key(&[2, 1]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn input_values_match_known_answers() {
        // Values recorded before the mixer moved to `mbb_obs`.
        let known = [
            (0, 0, 0x3fdb_9e27_9aa8_6e58),
            (3, 7, 0x3fcb_b738_3fee_65c8),
            (100, 1023, 0x3feb_94d5_5df4_a9e4),
            (u32::MAX, u64::MAX, 0x3f42_2162_58d1_1c00),
        ];
        for (src, key, bits) in known {
            assert_eq!(input_value(SourceId(src), key).to_bits(), bits, "{src}/{key}");
        }
    }

    #[test]
    fn layout_respects_alignment_and_padding() {
        let mut p = Program::new("lay");
        let s1 = p.fresh_source();
        let s2 = p.fresh_source();
        p.add_array(ArrayDecl {
            name: "x".into(),
            dims: vec![3],
            init: Init::Zero,
            live_out: false,
            source: s1,
        });
        p.add_array(ArrayDecl {
            name: "y".into(),
            dims: vec![3],
            init: Init::Zero,
            live_out: false,
            source: s2,
        });
        let lay = LayoutOpts { base: 0, align: 64, pad: 8 };
        let bases = lay.assign(&p);
        assert_eq!(bases[0], 0);
        // x occupies 24 bytes + 8 pad = 32, rounded up to 64.
        assert_eq!(bases[1], 64);
    }

    #[test]
    fn counting_sink_matches_stats() {
        let p = sum_program(32, Init::Hash);
        let mut c = CountingSink::new();
        let r = Interpreter::new(&p).run(&mut c).unwrap();
        assert_eq!(c.reads, r.stats.loads);
        assert_eq!(c.writes, r.stats.stores);
        assert_eq!(c.total_bytes(), r.stats.reg_bytes());
    }

    #[test]
    fn downward_loop_runs() {
        let mut p = sum_program(8, Init::Zero);
        p.nests[0].loops[0] =
            Loop { var: VarId(0), lo: Affine::constant(7), hi: Affine::constant(0), step: -1 };
        let r = run(&p).unwrap();
        assert_eq!(r.stats.iterations, 8);
    }
}
