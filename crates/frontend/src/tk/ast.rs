//! Typed AST of the `.tk` kernel DSL, plus the canonical pretty-printer.
//!
//! The AST is fully *resolved*: parameters are substituted, loop variables
//! and `let` names are indices, and every array read is a
//! `(dependence, component)` pair into the program's dependence-column list.
//! `parse(pretty(p)) == p` holds for every well-formed program — the
//! round-trip tests lock this.

use tilecc_loopnest::kernel::boundary_value;

/// Integer affine form over the loop variables:
/// `Σ coeffs[k]·j_k + constant`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffForm {
    pub coeffs: Vec<i64>,
    pub constant: i64,
}

impl AffForm {
    pub fn constant(dim: usize, c: i64) -> Self {
        AffForm {
            coeffs: vec![0; dim],
            constant: c,
        }
    }

    pub fn var(dim: usize, k: usize) -> Self {
        let mut coeffs = vec![0; dim];
        coeffs[k] = 1;
        AffForm {
            coeffs,
            constant: 0,
        }
    }

    pub fn add(&self, other: &AffForm) -> Self {
        AffForm {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a + b)
                .collect(),
            constant: self.constant + other.constant,
        }
    }

    pub fn sub(&self, other: &AffForm) -> Self {
        AffForm {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a - b)
                .collect(),
            constant: self.constant - other.constant,
        }
    }

    pub fn scale(&self, s: i64) -> Self {
        AffForm {
            coeffs: self.coeffs.iter().map(|c| c * s).collect(),
            constant: self.constant * s,
        }
    }

    pub fn eval(&self, j: &[i64]) -> i64 {
        self.coeffs.iter().zip(j).map(|(&c, &v)| c * v).sum::<i64>() + self.constant
    }
}

/// One loop of the nest: `iter var = max(lowers) to min(uppers)`.
/// Bounds are affine in the *outer* loop variables only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TkLoop {
    pub var: String,
    pub lowers: Vec<AffForm>,
    pub uppers: Vec<AffForm>,
}

/// A written array: component `c` of every data-space cell, with a
/// deterministic initial (boundary) expression.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDecl {
    pub name: String,
    /// Boundary expression: no reads, no `let` references.
    pub init: TkExpr,
}

/// One update statement `A[j] = expr` (identity write reference).
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// Index into [`KernelProgram::arrays`] (the component written).
    pub array: usize,
    pub rhs: TkExpr,
}

/// Resolved expression. Array reads are `(dep, comp)` pairs: the value of
/// component `comp` at point `j − d_dep`.
#[derive(Clone, Debug, PartialEq)]
pub enum TkExpr {
    Num(f64),
    /// Loop variable `k`, evaluated in *original* coordinates as `f64`.
    Coord(usize),
    /// Reference to `lets[i]` (computed once per point).
    LetRef(usize),
    /// `arrays[comp]` read at offset `deps[dep]`.
    Read {
        dep: usize,
        comp: usize,
    },
    /// `bnd()`: the framework's deterministic boundary hash of `j`.
    Bnd,
    /// `mod(affine, m)`: `affine(j).rem_euclid(m)` as `f64`.
    Mod(AffForm, i64),
    Neg(Box<TkExpr>),
    Add(Box<TkExpr>, Box<TkExpr>),
    Sub(Box<TkExpr>, Box<TkExpr>),
    Mul(Box<TkExpr>, Box<TkExpr>),
    Div(Box<TkExpr>, Box<TkExpr>),
}

impl TkExpr {
    /// Tree-walking evaluation (reference semantics; the lowered kernel uses
    /// an instruction tape with the identical post-order operation order).
    pub fn eval(&self, j: &[i64], reads: &[f64], lets: &[f64], width: usize) -> f64 {
        match self {
            TkExpr::Num(v) => *v,
            TkExpr::Coord(k) => j[*k] as f64,
            TkExpr::LetRef(i) => lets[*i],
            TkExpr::Read { dep, comp } => reads[dep * width + comp],
            TkExpr::Bnd => boundary_value(j),
            TkExpr::Mod(aff, m) => aff.eval(j).rem_euclid(*m) as f64,
            TkExpr::Neg(a) => -a.eval(j, reads, lets, width),
            TkExpr::Add(a, b) => a.eval(j, reads, lets, width) + b.eval(j, reads, lets, width),
            TkExpr::Sub(a, b) => a.eval(j, reads, lets, width) - b.eval(j, reads, lets, width),
            TkExpr::Mul(a, b) => a.eval(j, reads, lets, width) * b.eval(j, reads, lets, width),
            TkExpr::Div(a, b) => a.eval(j, reads, lets, width) / b.eval(j, reads, lets, width),
        }
    }

    /// True if the expression contains an array read or a `let` reference
    /// (both are illegal inside `array … = init` expressions).
    pub fn has_reads_or_lets(&self) -> bool {
        match self {
            TkExpr::Read { .. } | TkExpr::LetRef(_) => true,
            TkExpr::Num(_) | TkExpr::Coord(_) | TkExpr::Bnd | TkExpr::Mod(..) => false,
            TkExpr::Neg(a) => a.has_reads_or_lets(),
            TkExpr::Add(a, b) | TkExpr::Sub(a, b) | TkExpr::Mul(a, b) | TkExpr::Div(a, b) => {
                a.has_reads_or_lets() || b.has_reads_or_lets()
            }
        }
    }
}

/// A complete, resolved kernel program.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProgram {
    pub name: String,
    pub params: Vec<(String, i64)>,
    pub loops: Vec<TkLoop>,
    /// Optional unimodular skewing matrix (row-major).
    pub skew: Option<Vec<Vec<i64>>>,
    /// True iff the source carried an explicit `deps = …` line pinning the
    /// dependence-column order (otherwise it is first-occurrence order).
    pub deps_declared: bool,
    /// Dependence columns in original coordinates, all lexicographically
    /// positive.
    pub deps: Vec<Vec<i64>>,
    pub arrays: Vec<ArrayDecl>,
    pub lets: Vec<(String, TkExpr)>,
    /// Exactly one statement per array, in source order.
    pub stmts: Vec<Stmt>,
}

impl KernelProgram {
    pub fn dim(&self) -> usize {
        self.loops.len()
    }

    pub fn width(&self) -> usize {
        self.arrays.len()
    }

    /// Canonical source form; `parse(pretty(p)) == p`.
    pub fn pretty(&self) -> String {
        let mut out = format!("kernel {}\n", self.name);
        for (name, v) in &self.params {
            out.push_str(&format!("param {name} = {v}\n"));
        }
        for lp in &self.loops {
            out.push_str(&format!(
                "iter {} = {} to {}\n",
                lp.var,
                self.bound(&lp.lowers, "max"),
                self.bound(&lp.uppers, "min"),
            ));
        }
        if let Some(rows) = &self.skew {
            let body = rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join("; ");
            out.push_str(&format!("skew = [{body}]\n"));
        }
        if self.deps_declared {
            let body = self
                .deps
                .iter()
                .map(|d| {
                    format!(
                        "({})",
                        d.iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("deps = {body}\n"));
        }
        for a in &self.arrays {
            out.push_str(&format!("array {} = {}\n", a.name, self.expr(&a.init, 1)));
        }
        for (name, e) in &self.lets {
            out.push_str(&format!("let {name} = {}\n", self.expr(e, 1)));
        }
        for s in &self.stmts {
            let idx = self
                .loops
                .iter()
                .map(|l| l.var.clone())
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "{}[{idx}] = {}\n",
                self.arrays[s.array].name,
                self.expr(&s.rhs, 1)
            ));
        }
        out
    }

    fn bound(&self, forms: &[AffForm], combiner: &str) -> String {
        if forms.len() == 1 {
            self.aff(&forms[0])
        } else {
            format!(
                "{combiner}({})",
                forms
                    .iter()
                    .map(|f| self.aff(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    }

    /// Canonical affine rendering: terms in loop order, constant last.
    fn aff(&self, f: &AffForm) -> String {
        let mut out = String::new();
        for (k, &c) in f.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let var = &self.loops[k].var;
            if out.is_empty() {
                match c {
                    1 => out.push_str(var),
                    -1 => out.push_str(&format!("-{var}")),
                    _ => out.push_str(&format!("{c}*{var}")),
                }
            } else if c > 0 {
                if c == 1 {
                    out.push_str(&format!(" + {var}"));
                } else {
                    out.push_str(&format!(" + {c}*{var}"));
                }
            } else if c == -1 {
                out.push_str(&format!(" - {var}"));
            } else {
                out.push_str(&format!(" - {}*{var}", -c));
            }
        }
        if out.is_empty() {
            out = f.constant.to_string();
        } else if f.constant > 0 {
            out.push_str(&format!(" + {}", f.constant));
        } else if f.constant < 0 {
            out.push_str(&format!(" - {}", -f.constant));
        }
        out
    }

    /// C rendering of `e` for the emitted MPI program: original coordinates
    /// come from a `long jo[]` array, reads from `read[dep*WIDTH + comp]`,
    /// `let` bindings from `const double tk_<name>` locals, `bnd()` from the
    /// C twin `tilecc_bnd` of the boundary hash and `mod` from the emitted
    /// `fmod_pos`. Every operation is parenthesized, so C evaluates the tree
    /// exactly as [`TkExpr::eval`] does, bit for bit.
    pub fn c_expr(&self, e: &TkExpr) -> String {
        let bin = |a: &TkExpr, op: &str, b: &TkExpr| {
            format!("({} {op} {})", self.c_expr(a), self.c_expr(b))
        };
        match e {
            // `{:?}` round-trips and always carries a `.` or an exponent.
            TkExpr::Num(v) if v.is_sign_negative() => format!("({v:?})"),
            TkExpr::Num(v) => format!("{v:?}"),
            TkExpr::Coord(k) => format!("(double)jo[{k}]"),
            TkExpr::LetRef(i) => format!("tk_{}", self.lets[*i].0),
            TkExpr::Read { dep, comp } => format!("read[{dep}*WIDTH + {comp}]"),
            TkExpr::Bnd => "tilecc_bnd(jo)".to_string(),
            TkExpr::Mod(aff, m) => {
                let mut terms: Vec<String> = aff
                    .coeffs
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0)
                    .map(|(k, c)| format!("{c}L * jo[{k}]"))
                    .collect();
                terms.push(format!("{}L", aff.constant));
                format!("(double)fmod_pos({}, {m}L)", terms.join(" + "))
            }
            TkExpr::Neg(a) => format!("(-{})", self.c_expr(a)),
            TkExpr::Add(a, b) => bin(a, "+", b),
            TkExpr::Sub(a, b) => bin(a, "-", b),
            TkExpr::Mul(a, b) => bin(a, "*", b),
            TkExpr::Div(a, b) => bin(a, "/", b),
        }
    }

    /// The `let` bindings as C statements, one `const double` each, in
    /// source order (later bindings may use earlier ones). Unused bindings
    /// are legal, so each is also cast to `void`.
    pub fn c_lets(&self) -> String {
        let decls: Vec<String> = self
            .lets
            .iter()
            .map(|(name, e)| {
                format!(
                    "    const double tk_{name} = {};\n    (void)tk_{name};",
                    self.c_expr(e)
                )
            })
            .collect();
        decls.join("\n")
    }

    /// Precedence-aware expression rendering. `min_prec`: 1 = additive,
    /// 2 = multiplicative, 3 = unary/atom.
    fn expr(&self, e: &TkExpr, min_prec: u8) -> String {
        let (s, prec) = match e {
            TkExpr::Num(v) => (format!("{v}"), 4),
            TkExpr::Coord(k) => (self.loops[*k].var.clone(), 4),
            TkExpr::LetRef(i) => (self.lets[*i].0.clone(), 4),
            TkExpr::Read { dep, comp } => {
                let d = &self.deps[*dep];
                let idx = (0..self.dim())
                    .map(|k| {
                        let var = &self.loops[k].var;
                        let off = -d[k];
                        match off.cmp(&0) {
                            std::cmp::Ordering::Equal => var.clone(),
                            std::cmp::Ordering::Greater => format!("{var}+{off}"),
                            std::cmp::Ordering::Less => format!("{var}-{}", -off),
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                (format!("{}[{idx}]", self.arrays[*comp].name), 4)
            }
            TkExpr::Bnd => ("bnd()".to_string(), 4),
            TkExpr::Mod(aff, m) => (format!("mod({}, {m})", self.aff(aff)), 4),
            TkExpr::Neg(a) => (format!("-{}", self.expr(a, 3)), 3),
            TkExpr::Add(a, b) => (format!("{} + {}", self.expr(a, 1), self.expr(b, 2)), 1),
            TkExpr::Sub(a, b) => (format!("{} - {}", self.expr(a, 1), self.expr(b, 2)), 1),
            TkExpr::Mul(a, b) => (format!("{}*{}", self.expr(a, 2), self.expr(b, 3)), 2),
            TkExpr::Div(a, b) => (format!("{}/{}", self.expr(a, 2), self.expr(b, 3)), 2),
        };
        if prec < min_prec {
            format!("({s})")
        } else {
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tk::parse_kernel;

    #[test]
    fn affine_eval_and_ops() {
        let a = AffForm {
            coeffs: vec![1, 2],
            constant: -3,
        };
        assert_eq!(a.eval(&[5, 7]), 5 + 14 - 3);
        let b = AffForm::var(2, 0);
        assert_eq!(a.add(&b).eval(&[5, 7]), 21);
        assert_eq!(a.sub(&b).eval(&[5, 7]), 11);
        assert_eq!(a.scale(2).eval(&[5, 7]), 32);
        assert_eq!(AffForm::constant(2, 4).eval(&[5, 7]), 4);
    }

    #[test]
    fn expr_eval() {
        // 0.5 * reads[0] + j[1] - 1, reading component 1 of a width-2 pair.
        let e = TkExpr::Sub(
            Box::new(TkExpr::Add(
                Box::new(TkExpr::Mul(
                    Box::new(TkExpr::Num(0.5)),
                    Box::new(TkExpr::Read { dep: 0, comp: 1 }),
                )),
                Box::new(TkExpr::Coord(1)),
            )),
            Box::new(TkExpr::Num(1.0)),
        );
        assert_eq!(e.eval(&[9, 4], &[2.0, 6.0], &[], 2), 0.5 * 6.0 + 4.0 - 1.0);
    }

    #[test]
    fn expr_to_c_renders_parenthesized() {
        let p = parse_kernel(
            "\
kernel k
param C = -2
iter t = 1 to 4
iter i = 1 to 4
array A = bnd()
array B = 1.0
let s = mod(3*t - i + 1, 5)
A[t,i] = 0.25*(A[t-1,i] + t) - -B[t-1,i-1]/s
B[t,i] = B[t-1,i] + C
",
        )
        .unwrap();
        let c = |e: &TkExpr| p.c_expr(e);
        assert_eq!(c(&p.arrays[0].init), "tilecc_bnd(jo)");
        assert_eq!(c(&p.arrays[1].init), "1.0");
        assert_eq!(
            c(&p.lets[0].1),
            "(double)fmod_pos(3L * jo[0] + -1L * jo[1] + 1L, 5L)"
        );
        assert_eq!(
            c(&p.stmts[0].rhs),
            "((0.25 * (read[0*WIDTH + 0] + (double)jo[0])) - \
             ((-read[1*WIDTH + 1]) / tk_s))"
        );
        assert_eq!(c(&p.stmts[1].rhs), "(read[0*WIDTH + 1] + (-2.0))");
        assert_eq!(
            p.c_lets(),
            "    const double tk_s = (double)fmod_pos(3L * jo[0] + -1L * jo[1] + 1L, 5L);\n    \
             (void)tk_s;"
        );
    }
}
