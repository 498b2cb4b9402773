//! A pretty-printer producing the paper's pseudo-code style.
//!
//! Useful for debugging transformations and for the examples, which show
//! programs before and after optimisation in a form directly comparable to
//! the paper's Figures 6 and 7.

use std::fmt::{self, Write};

use crate::expr::{Affine, BinOp, CmpOp, Cond, Expr, Ref, UnOp};
use crate::program::{Init, LoopNest, Program, Stmt};

/// Renders a whole program.
///
/// The output is itself parseable, and for programs in the parser's image
/// (plain `Hash`/`Zero` initialisers, `input#N` streams) the round trip is
/// exact: `parse(program(p)) == p` structurally.  The `mbb-gen` property
/// tests hold this invariant over generated programs.
pub fn program(prog: &Program) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_program(&mut out, prog);
    out
}

/// Writes [`program`]'s bytes into `out`, piece by piece: no string is
/// built for a term, a reference or a subexpression, so a sink that only
/// hashes what it is given (`mbb_core::canon::program_key`) never holds
/// the text.  Fails only when `out` does.
pub fn write_program<W: Write>(out: &mut W, prog: &Program) -> fmt::Result {
    writeln!(out, "program {}", prog.name)?;
    for a in &prog.arrays {
        write!(out, "  array {}[", a.name)?;
        for (k, d) in a.dims.iter().enumerate() {
            if k > 0 {
                out.write_str(", ")?;
            }
            write!(out, "{d}")?;
        }
        out.write_char(']')?;
        // `// live-out zero` is one attribute comment; the parser matches
        // attribute words, not whole comments.
        match (a.live_out, a.init == Init::Zero) {
            (true, true) => out.write_str("  // live-out zero")?,
            (true, false) => out.write_str("  // live-out")?,
            (false, true) => out.write_str("  // zero")?,
            (false, false) => {}
        }
        out.write_char('\n')?;
    }
    for s in &prog.scalars {
        writeln!(
            out,
            "  scalar {} = {}{}",
            s.name,
            s.init,
            if s.printed { "  // printed" } else { "" }
        )?;
    }
    for (k, n) in prog.nests.iter().enumerate() {
        writeln!(out, "  // nest {k}: {}", n.name)?;
        nest(out, prog, n, 1)?;
    }
    for &(a, b) in &prog.fusion_preventing {
        writeln!(out, "  prevent_fusion {a} {b}")?;
    }
    Ok(())
}

/// Two spaces per indentation level.
fn pad<W: Write>(out: &mut W, indent: usize) -> fmt::Result {
    for _ in 0..indent {
        out.write_str("  ")?;
    }
    Ok(())
}

fn nest<W: Write>(out: &mut W, prog: &Program, n: &LoopNest, indent: usize) -> fmt::Result {
    for (d, lp) in n.loops.iter().enumerate() {
        pad(out, indent + d)?;
        write!(out, "for {} = ", prog.var_name(lp.var))?;
        affine(out, prog, &lp.lo)?;
        out.write_str(", ")?;
        affine(out, prog, &lp.hi)?;
        if lp.step != 1 {
            write!(out, ", {}", lp.step)?;
        }
        out.write_char('\n')?;
    }
    for st in &n.body {
        stmt(out, prog, st, indent + n.loops.len())?;
    }
    for d in (0..n.loops.len()).rev() {
        pad(out, indent + d)?;
        out.write_str("end for\n")?;
    }
    Ok(())
}

fn stmt<W: Write>(out: &mut W, prog: &Program, st: &Stmt, indent: usize) -> fmt::Result {
    pad(out, indent)?;
    match st {
        Stmt::Assign { lhs, rhs } => {
            reference(out, prog, lhs)?;
            out.write_str(" = ")?;
            expr(out, prog, rhs)?;
            out.write_char('\n')
        }
        Stmt::If { cond, then_, else_ } => {
            out.write_str("if (")?;
            condition(out, prog, cond)?;
            out.write_str(")\n")?;
            for s in then_ {
                stmt(out, prog, s, indent + 1)?;
            }
            if !else_.is_empty() {
                pad(out, indent)?;
                out.write_str("else\n")?;
                for s in else_ {
                    stmt(out, prog, s, indent + 1)?;
                }
            }
            pad(out, indent)?;
            out.write_str("end if\n")
        }
    }
}

/// An affine expression with variable names: `3*i-j+2`.
fn affine<W: Write>(out: &mut W, prog: &Program, a: &Affine) -> fmt::Result {
    for (k, &(var, coef)) in a.terms.iter().enumerate() {
        let name = prog.var_name(var);
        match coef {
            1 if k == 0 => out.write_str(name)?,
            1 => write!(out, "+{name}")?,
            -1 => write!(out, "-{name}")?,
            c if c >= 0 && k > 0 => write!(out, "+{c}*{name}")?,
            c => write!(out, "{c}*{name}")?,
        }
    }
    if a.terms.is_empty() {
        write!(out, "{}", a.constant)
    } else if a.constant > 0 {
        write!(out, "+{}", a.constant)
    } else if a.constant < 0 {
        write!(out, "{}", a.constant)
    } else {
        Ok(())
    }
}

/// Affine expressions separated by `sep`.
fn affines<W: Write>(out: &mut W, prog: &Program, list: &[Affine], sep: &str) -> fmt::Result {
    for (k, a) in list.iter().enumerate() {
        if k > 0 {
            out.write_str(sep)?;
        }
        affine(out, prog, a)?;
    }
    Ok(())
}

fn reference<W: Write>(out: &mut W, prog: &Program, r: &Ref) -> fmt::Result {
    match r {
        Ref::Scalar(s) => out.write_str(&prog.scalar(*s).name),
        Ref::Element(a, subs) => {
            write!(out, "{}[", prog.array(*a).name)?;
            for (k, s) in subs.iter().enumerate() {
                if k > 0 {
                    out.write_char(',')?;
                }
                match s.modulo {
                    None => affine(out, prog, &s.expr)?,
                    Some(m) => {
                        out.write_char('(')?;
                        affine(out, prog, &s.expr)?;
                        write!(out, ") mod {m}")?;
                    }
                }
            }
            out.write_char(']')
        }
    }
}

fn condition<W: Write>(out: &mut W, prog: &Program, c: &Cond) -> fmt::Result {
    let op = match c.op {
        CmpOp::Eq => " = ",
        CmpOp::Ne => " != ",
        CmpOp::Lt => " < ",
        CmpOp::Le => " <= ",
        CmpOp::Gt => " > ",
        CmpOp::Ge => " >= ",
    };
    affine(out, prog, &c.lhs)?;
    out.write_str(op)?;
    affine(out, prog, &c.rhs)
}

fn expr<W: Write>(out: &mut W, prog: &Program, e: &Expr) -> fmt::Result {
    match e {
        Expr::Const(c) => write!(out, "{c}"),
        Expr::Load(r) => reference(out, prog, r),
        Expr::Input(src, subs) => {
            write!(out, "input#{}(", src.0)?;
            affines(out, prog, subs, ",")?;
            out.write_char(')')
        }
        Expr::Unary(op, x) => {
            out.write_str(match op {
                UnOp::Neg => "-(",
                UnOp::Sqrt => "sqrt(",
                UnOp::Abs => "abs(",
                UnOp::F1 => "f(",
            })?;
            expr(out, prog, x)?;
            out.write_char(')')
        }
        Expr::Binary(op, l, r) => {
            // Infix operators in parentheses, the others as calls.
            let (open, mid) = match op {
                BinOp::Add => ("(", " + "),
                BinOp::Sub => ("(", " - "),
                BinOp::Mul => ("(", " * "),
                BinOp::Div => ("(", " / "),
                BinOp::Max => ("max(", ", "),
                BinOp::Min => ("min(", ", "),
                BinOp::F => ("f(", ", "),
                BinOp::G => ("g(", ", "),
            };
            out.write_str(open)?;
            expr(out, prog, l)?;
            out.write_str(mid)?;
            expr(out, prog, r)?;
            out.write_char(')')
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn renders_paper_style() {
        let mut b = ProgramBuilder::new("demo");
        let a = b.array("a", &[10]);
        let s = b.scalar_printed("sum", 0.0);
        let i = b.var("i");
        b.nest("k", &[(i, 1, 9)], vec![accumulate(s, ld(a.at([v(i) - 1])))]);
        let text = program(&b.finish());
        assert!(text.contains("for i = 1, 9"), "{text}");
        assert!(text.contains("sum = (sum + a[i-1])"), "{text}");
        assert!(text.contains("end for"), "{text}");
        assert!(text.contains("array a[10]"), "{text}");
    }

    #[test]
    fn renders_conditionals() {
        use crate::expr::CmpOp;
        let mut b = ProgramBuilder::new("demo");
        let s = b.scalar("t", 0.0);
        let i = b.var("j");
        b.nest(
            "k",
            &[(i, 2, 9)],
            vec![if_else(
                cmp(v(i), CmpOp::Le, c(8)),
                vec![assign(s.r(), lit(1.0))],
                vec![assign(s.r(), lit(2.0))],
            )],
        );
        let text = program(&b.finish());
        assert!(text.contains("if (j <= 8)"), "{text}");
        assert!(text.contains("else"), "{text}");
        assert!(text.contains("end if"), "{text}");
    }

    #[test]
    fn affine_rendering_signs() {
        let mut p = crate::program::Program::new("t");
        let i = p.add_var("i");
        let j = p.add_var("j");
        let text = |a: &Affine| {
            let mut s = String::new();
            affine(&mut s, &p, a).unwrap();
            s
        };
        assert_eq!(text(&(v(i) - 1)), "i-1");
        assert_eq!(text(&(v(i) + 1)), "i+1");
        assert_eq!(text(&Affine::new(0, vec![(i, 1), (j, -1)])), "i-j");
        assert_eq!(text(&Affine::constant(5)), "5");
        assert_eq!(text(&Affine::new(2, vec![(i, 3)])), "3*i+2");
        assert_eq!(text(&Affine::new(-4, vec![(i, -1), (j, 2)])), "-i+2*j-4");
        assert_eq!(text(&Affine::new(0, vec![(i, -3), (j, -2)])), "-3*i-2*j");
    }
}
