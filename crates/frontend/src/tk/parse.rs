//! Recursive-descent parser for the `.tk` kernel DSL.
//!
//! Grammar (EBNF; the authoritative copy lives in `docs/kernel-dsl.md` and
//! is doc-locked by tests):
//!
//! ```text
//! program   := "kernel" IDENT NL
//!              { "param" IDENT "=" ["-"] INT NL }
//!              ( "iter" IDENT "=" lower "to" upper NL )+
//!              [ "skew" "=" "[" introw { ";" introw } "]" NL ]
//!              [ "deps" "=" depcol { "," depcol } NL ]
//!              ( "array" IDENT "=" expr NL )+
//!              { "let" IDENT "=" expr NL }
//!              ( IDENT "[" IDENT { "," IDENT } "]" "=" expr NL )+
//! lower     := affine | "max" "(" affine { "," affine } ")"
//! upper     := affine | "min" "(" affine { "," affine } ")"
//! depcol    := "(" ["-"] INT { "," ["-"] INT } ")"
//! introw    := ["-"] INT { "," ["-"] INT }
//! expr      := term { ("+" | "-") term }
//! term      := factor { ("*" | "/") factor }
//! factor    := NUM | IDENT | read | "bnd" "(" ")"
//!            | "mod" "(" affine "," INT ")" | "-" factor | "(" expr ")"
//! read      := IDENT "[" affine { "," affine } "]"
//! ```
//!
//! All semantic validation happens here, where source positions are still
//! available: uniform-access checking (every read index must be
//! `var_k + constant` in nest order), lexicographic positivity of every
//! dependence offset (a non-positive offset is a negative-lag cycle),
//! `deps`-declaration consistency, skew unimodularity, and name scoping.

use crate::tk::ast::{AffForm, ArrayDecl, KernelProgram, Stmt, TkExpr, TkLoop};
use crate::tk::error::TkError;
use crate::tk::lex::{tokenize, TkKeyword, TkSpanned, TkToken};
use tilecc_linalg::IMat;

/// Parse a complete kernel program from source text.
pub fn parse_kernel(source: &str) -> Result<KernelProgram, TkError> {
    parse_kernel_with(source, &[])
}

/// [`parse_kernel`] with `param` values overridden by name: each
/// `(name, value)` replaces the value its `param` line declares, before
/// any bound or expression reads it. Naming a parameter the kernel does
/// not declare is an error located at the kernel name.
pub(crate) fn parse_kernel_with(
    source: &str,
    overrides: &[(&str, i64)],
) -> Result<KernelProgram, TkError> {
    let toks = tokenize(source)?;
    Parser::new(&toks).program(overrides)
}

struct Parser<'a> {
    toks: &'a [TkSpanned],
    pos: usize,
    params: Vec<(String, i64)>,
    loops: Vec<TkLoop>,
    arrays: Vec<ArrayDecl>,
    lets: Vec<(String, TkExpr)>,
    deps: Vec<Vec<i64>>,
    deps_declared: bool,
    /// Position of the `deps` keyword, for "declared but never read" errors.
    deps_span: (usize, usize),
    /// Which declared dependence columns have been read at least once.
    deps_used: Vec<bool>,
}

impl<'a> Parser<'a> {
    fn new(toks: &'a [TkSpanned]) -> Self {
        Parser {
            toks,
            pos: 0,
            params: Vec::new(),
            loops: Vec::new(),
            arrays: Vec::new(),
            lets: Vec::new(),
            deps: Vec::new(),
            deps_declared: false,
            deps_span: (0, 0),
            deps_used: Vec::new(),
        }
    }

    // -- token plumbing ----------------------------------------------------

    fn peek(&self) -> &TkSpanned {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> &TkSpanned {
        let t = &self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err_at(&self, sp: &TkSpanned, msg: impl Into<String>) -> TkError {
        TkError::new(sp.line, sp.col, msg)
    }

    fn err_here(&self, msg: impl Into<String>) -> TkError {
        let sp = self.peek();
        TkError::new(sp.line, sp.col, msg)
    }

    fn expect(&mut self, want: &TkToken, what: &str) -> Result<(), TkError> {
        if &self.peek().token == want {
            self.next();
            Ok(())
        } else {
            Err(self.err_here(format!("expected {what}, found `{}`", self.peek().token)))
        }
    }

    fn expect_newline(&mut self) -> Result<(), TkError> {
        match &self.peek().token {
            TkToken::Newline => {
                self.next();
                Ok(())
            }
            TkToken::Eof => Ok(()),
            other => Err(self.err_here(format!("expected end of line, found `{other}`"))),
        }
    }

    fn skip_newlines(&mut self) {
        while self.peek().token == TkToken::Newline {
            self.next();
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, usize, usize), TkError> {
        let sp = self.peek().clone();
        match &sp.token {
            TkToken::Ident(s) => {
                self.next();
                Ok((s.clone(), sp.line, sp.col))
            }
            other => Err(self.err_at(&sp, format!("expected {what}, found `{other}`"))),
        }
    }

    fn int(&mut self, what: &str) -> Result<i64, TkError> {
        let neg = if self.peek().token == TkToken::Minus {
            self.next();
            true
        } else {
            false
        };
        let sp = self.peek().clone();
        match sp.token {
            TkToken::Int(v) => {
                self.next();
                Ok(if neg { -v } else { v })
            }
            ref other => Err(self.err_at(&sp, format!("expected {what}, found `{other}`"))),
        }
    }

    // -- name scoping ------------------------------------------------------

    fn check_fresh(&self, name: &str, line: usize, col: usize) -> Result<(), TkError> {
        let taken = self.params.iter().any(|(p, _)| p == name)
            || self.loops.iter().any(|l| l.var == name)
            || self.arrays.iter().any(|a| a.name == name)
            || self.lets.iter().any(|(l, _)| l == name);
        if taken {
            Err(TkError::new(
                line,
                col,
                format!("name `{name}` is already defined"),
            ))
        } else {
            Ok(())
        }
    }

    fn loop_index(&self, name: &str) -> Option<usize> {
        self.loops.iter().position(|l| l.var == name)
    }

    fn param_value(&self, name: &str) -> Option<i64> {
        self.params.iter().find(|(p, _)| p == name).map(|&(_, v)| v)
    }

    // -- program structure -------------------------------------------------

    fn program(&mut self, overrides: &[(&str, i64)]) -> Result<KernelProgram, TkError> {
        self.skip_newlines();
        self.expect(
            &TkToken::Keyword(TkKeyword::Kernel),
            "`kernel <name>` header",
        )?;
        let (name, name_line, name_col) = self.ident("kernel name")?;
        self.expect_newline()?;

        // param lines.
        loop {
            self.skip_newlines();
            if self.peek().token != TkToken::Keyword(TkKeyword::Param) {
                break;
            }
            self.next();
            let (pname, line, col) = self.ident("parameter name")?;
            self.check_fresh(&pname, line, col)?;
            self.expect(&TkToken::Equals, "`=`")?;
            let v = self.int("integer parameter value")?;
            self.expect_newline()?;
            let v = overrides
                .iter()
                .find(|(o, _)| *o == pname)
                .map_or(v, |&(_, o)| o);
            self.params.push((pname, v));
        }
        if let Some((o, _)) = overrides
            .iter()
            .find(|(o, _)| self.param_value(o).is_none())
        {
            return Err(TkError::new(
                name_line,
                name_col,
                format!("kernel `{name}` has no parameter `{o}` to override"),
            ));
        }

        // iter lines.
        loop {
            self.skip_newlines();
            if self.peek().token != TkToken::Keyword(TkKeyword::Iter) {
                break;
            }
            self.next();
            let (var, line, col) = self.ident("loop variable")?;
            self.check_fresh(&var, line, col)?;
            self.expect(&TkToken::Equals, "`=`")?;
            let lowers = self.bound_list(TkKeyword::Max)?;
            self.expect(&TkToken::Keyword(TkKeyword::To), "`to`")?;
            let uppers = self.bound_list(TkKeyword::Min)?;
            self.expect_newline()?;
            self.loops.push(TkLoop {
                var,
                lowers,
                uppers,
            });
        }
        if self.loops.is_empty() {
            return Err(self.err_here("a kernel needs at least one `iter` line"));
        }
        // Bound forms were parsed with a growing dimension; pad them all to
        // the final nest dimension.
        let dim = self.loops.len();
        for lp in &mut self.loops {
            for f in lp.lowers.iter_mut().chain(lp.uppers.iter_mut()) {
                f.coeffs.resize(dim, 0);
            }
        }

        // Optional skew.
        let mut skew: Option<Vec<Vec<i64>>> = None;
        let mut skew_span = (0, 0);
        self.skip_newlines();
        if self.peek().token == TkToken::Keyword(TkKeyword::Skew) {
            let sp = self.peek().clone();
            skew_span = (sp.line, sp.col);
            self.next();
            self.expect(&TkToken::Equals, "`=`")?;
            self.expect(&TkToken::LBracket, "`[`")?;
            let mut rows = Vec::new();
            loop {
                let mut row = vec![self.int("skew matrix entry")?];
                while self.peek().token == TkToken::Comma {
                    self.next();
                    row.push(self.int("skew matrix entry")?);
                }
                rows.push(row);
                if self.peek().token == TkToken::Semicolon {
                    self.next();
                } else {
                    break;
                }
            }
            self.expect(&TkToken::RBracket, "`]`")?;
            self.expect_newline()?;
            if rows.len() != dim || rows.iter().any(|r| r.len() != dim) {
                return Err(TkError::new(
                    skew_span.0,
                    skew_span.1,
                    format!("skew matrix must be {dim}×{dim} for this nest"),
                ));
            }
            skew = Some(rows);
        }

        // Optional explicit dependence order.
        self.skip_newlines();
        if self.peek().token == TkToken::Keyword(TkKeyword::Deps) {
            let sp = self.peek().clone();
            self.deps_span = (sp.line, sp.col);
            self.next();
            self.expect(&TkToken::Equals, "`=`")?;
            loop {
                let csp = self.peek().clone();
                self.expect(&TkToken::LParen, "`(`")?;
                let mut col = vec![self.int("dependence component")?];
                while self.peek().token == TkToken::Comma {
                    self.next();
                    col.push(self.int("dependence component")?);
                }
                self.expect(&TkToken::RParen, "`)`")?;
                if col.len() != dim {
                    return Err(self.err_at(
                        &csp,
                        format!("dependence column must have {dim} components"),
                    ));
                }
                if !lex_positive(&col) {
                    return Err(self.err_at(
                        &csp,
                        format!(
                            "declared dependence ({}) is not lexicographically positive",
                            join(&col)
                        ),
                    ));
                }
                if self.deps.contains(&col) {
                    return Err(self.err_at(
                        &csp,
                        format!("dependence ({}) is declared twice", join(&col)),
                    ));
                }
                self.deps.push(col);
                if self.peek().token == TkToken::Comma {
                    self.next();
                } else {
                    break;
                }
            }
            self.expect_newline()?;
            self.deps_declared = true;
            self.deps_used = vec![false; self.deps.len()];
        }

        // array lines.
        loop {
            self.skip_newlines();
            if self.peek().token != TkToken::Keyword(TkKeyword::Array) {
                break;
            }
            self.next();
            let (aname, line, col) = self.ident("array name")?;
            self.check_fresh(&aname, line, col)?;
            self.expect(&TkToken::Equals, "`=`")?;
            // Reserve the name first so the init expression produces a
            // precise error if it tries to read the array being declared.
            self.arrays.push(ArrayDecl {
                name: aname,
                init: TkExpr::Num(0.0),
            });
            let init = self.expr(false)?;
            self.expect_newline()?;
            debug_assert!(!init.has_reads_or_lets());
            self.arrays.last_mut().unwrap().init = init;
        }
        if self.arrays.is_empty() {
            return Err(self.err_here(
                "a kernel needs at least one `array <name> = <initial expression>` line",
            ));
        }

        // let lines.
        loop {
            self.skip_newlines();
            if self.peek().token != TkToken::Keyword(TkKeyword::Let) {
                break;
            }
            self.next();
            let (lname, line, col) = self.ident("let name")?;
            self.check_fresh(&lname, line, col)?;
            self.expect(&TkToken::Equals, "`=`")?;
            let e = self.expr(true)?;
            self.expect_newline()?;
            self.lets.push((lname, e));
        }

        // Update statements: one per array.
        let mut stmts: Vec<Stmt> = Vec::new();
        loop {
            self.skip_newlines();
            if matches!(self.peek().token, TkToken::Eof) {
                break;
            }
            let (aname, line, col) = self.ident("array update statement")?;
            let array = match self.arrays.iter().position(|a| a.name == aname) {
                Some(i) => i,
                None => {
                    return Err(TkError::new(
                        line,
                        col,
                        format!("unknown array `{aname}` on the left-hand side"),
                    ))
                }
            };
            if stmts.iter().any(|s| s.array == array) {
                return Err(TkError::new(
                    line,
                    col,
                    format!("array `{aname}` is written twice"),
                ));
            }
            self.expect(&TkToken::LBracket, "`[`")?;
            for k in 0..dim {
                if k > 0 {
                    self.expect(&TkToken::Comma, "`,`")?;
                }
                let (v, vl, vc) = self.ident("loop variable")?;
                if self.loop_index(&v) != Some(k) {
                    return Err(TkError::new(
                        vl,
                        vc,
                        format!(
                            "write reference must be the identity `{}[{}]`",
                            aname,
                            self.loops
                                .iter()
                                .map(|l| l.var.clone())
                                .collect::<Vec<_>>()
                                .join(",")
                        ),
                    ));
                }
            }
            self.expect(&TkToken::RBracket, "`]`")?;
            self.expect(&TkToken::Equals, "`=`")?;
            let rhs = self.expr(true)?;
            self.expect_newline()?;
            stmts.push(Stmt { array, rhs });
        }
        if stmts.len() != self.arrays.len() {
            let missing = self
                .arrays
                .iter()
                .enumerate()
                .find(|(i, _)| !stmts.iter().any(|s| s.array == *i))
                .map(|(_, a)| a.name.clone())
                .unwrap_or_default();
            return Err(self.err_here(format!("array `{missing}` is never written")));
        }

        if self.deps.is_empty() {
            return Err(self.err_here(
                "kernel has no dependences: every statement must read at least one array",
            ));
        }
        if self.deps_declared {
            if let Some(i) = self.deps_used.iter().position(|&u| !u) {
                return Err(TkError::new(
                    self.deps_span.0,
                    self.deps_span.1,
                    format!(
                        "declared dependence ({}) is never read",
                        join(&self.deps[i])
                    ),
                ));
            }
        }

        // Skew validation needs the final dependence list.
        if let Some(rows) = &skew {
            let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            let t = IMat::from_rows(&refs);
            if t.det().abs() != 1 {
                return Err(TkError::new(
                    skew_span.0,
                    skew_span.1,
                    "skew matrix must be unimodular (|det| = 1)",
                ));
            }
            for d in &self.deps {
                let sd = t.mul_vec(d);
                if !lex_positive(&sd) {
                    return Err(TkError::new(
                        skew_span.0,
                        skew_span.1,
                        format!(
                            "skew maps dependence ({}) to ({}) which is not \
                             lexicographically positive",
                            join(d),
                            join(&sd)
                        ),
                    ));
                }
            }
        }

        Ok(KernelProgram {
            name,
            params: std::mem::take(&mut self.params),
            loops: std::mem::take(&mut self.loops),
            skew,
            deps_declared: self.deps_declared,
            deps: std::mem::take(&mut self.deps),
            arrays: std::mem::take(&mut self.arrays),
            lets: std::mem::take(&mut self.lets),
            stmts,
        })
    }

    /// `affine` or `max(...)`/`min(...)` (which one is legal depends on the
    /// bound side).
    fn bound_list(&mut self, combiner: TkKeyword) -> Result<Vec<AffForm>, TkError> {
        let other = if combiner == TkKeyword::Max {
            TkKeyword::Min
        } else {
            TkKeyword::Max
        };
        if self.peek().token == TkToken::Keyword(other) {
            let side = if combiner == TkKeyword::Max {
                "lower"
            } else {
                "upper"
            };
            return Err(self.err_here(format!(
                "`{}` is not allowed in {side} bounds (use `{}`)",
                other.as_str(),
                combiner.as_str()
            )));
        }
        if self.peek().token == TkToken::Keyword(combiner) {
            self.next();
            self.expect(&TkToken::LParen, "`(`")?;
            let mut forms = vec![self.affine()?];
            while self.peek().token == TkToken::Comma {
                self.next();
                forms.push(self.affine()?);
            }
            self.expect(&TkToken::RParen, "`)`")?;
            Ok(forms)
        } else {
            Ok(vec![self.affine()?])
        }
    }

    // -- affine expressions (bounds, mod arguments, read indices) ----------

    fn affine(&mut self) -> Result<AffForm, TkError> {
        let dim = self.loops.len().max(1);
        let mut acc = self.affine_term(dim)?;
        loop {
            match self.peek().token {
                TkToken::Plus => {
                    self.next();
                    acc = acc.add(&self.affine_term(dim)?);
                }
                TkToken::Minus => {
                    self.next();
                    acc = acc.sub(&self.affine_term(dim)?);
                }
                _ => return Ok(acc),
            }
        }
    }

    fn affine_term(&mut self, dim: usize) -> Result<AffForm, TkError> {
        let mut acc = self.affine_factor(dim)?;
        while self.peek().token == TkToken::Star {
            let sp = self.peek().clone();
            self.next();
            let rhs = self.affine_factor(dim)?;
            let lconst = acc.coeffs.iter().all(|&c| c == 0);
            let rconst = rhs.coeffs.iter().all(|&c| c == 0);
            if lconst {
                acc = rhs.scale(acc.constant);
            } else if rconst {
                acc = acc.scale(rhs.constant);
            } else {
                return Err(self.err_at(&sp, "products of loop variables are not affine"));
            }
        }
        Ok(acc)
    }

    fn affine_factor(&mut self, dim: usize) -> Result<AffForm, TkError> {
        let sp = self.peek().clone();
        match &sp.token {
            TkToken::Minus => {
                self.next();
                Ok(self.affine_factor(dim)?.scale(-1))
            }
            TkToken::Int(v) => {
                let v = *v;
                self.next();
                Ok(AffForm::constant(dim, v))
            }
            TkToken::Ident(name) => {
                let name = name.clone();
                self.next();
                if let Some(k) = self.loop_index(&name) {
                    Ok(AffForm::var(dim, k))
                } else if let Some(v) = self.param_value(&name) {
                    Ok(AffForm::constant(dim, v))
                } else {
                    Err(self.err_at(
                        &sp,
                        format!(
                            "unknown identifier `{name}` in affine expression \
                             (only parameters and outer loop variables are in scope)"
                        ),
                    ))
                }
            }
            TkToken::LParen => {
                self.next();
                let a = self.affine()?;
                self.expect(&TkToken::RParen, "`)`")?;
                Ok(a)
            }
            TkToken::Float(_) => Err(self.err_at(
                &sp,
                "float literals are not allowed in integer affine expressions",
            )),
            other => Err(self.err_at(
                &sp,
                format!("expected an affine expression, found `{other}`"),
            )),
        }
    }

    // -- full expressions --------------------------------------------------

    fn expr(&mut self, allow_reads: bool) -> Result<TkExpr, TkError> {
        let mut acc = self.term(allow_reads)?;
        loop {
            match self.peek().token {
                TkToken::Plus => {
                    self.next();
                    acc = TkExpr::Add(Box::new(acc), Box::new(self.term(allow_reads)?));
                }
                TkToken::Minus => {
                    self.next();
                    acc = TkExpr::Sub(Box::new(acc), Box::new(self.term(allow_reads)?));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn term(&mut self, allow_reads: bool) -> Result<TkExpr, TkError> {
        let mut acc = self.factor(allow_reads)?;
        loop {
            match self.peek().token {
                TkToken::Star => {
                    self.next();
                    acc = TkExpr::Mul(Box::new(acc), Box::new(self.factor(allow_reads)?));
                }
                TkToken::Slash => {
                    self.next();
                    acc = TkExpr::Div(Box::new(acc), Box::new(self.factor(allow_reads)?));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn factor(&mut self, allow_reads: bool) -> Result<TkExpr, TkError> {
        let sp = self.peek().clone();
        match &sp.token {
            TkToken::Int(v) => {
                let v = *v;
                self.next();
                Ok(TkExpr::Num(v as f64))
            }
            TkToken::Float(v) => {
                let v = *v;
                self.next();
                Ok(TkExpr::Num(v))
            }
            TkToken::Minus => {
                self.next();
                Ok(TkExpr::Neg(Box::new(self.factor(allow_reads)?)))
            }
            TkToken::LParen => {
                self.next();
                let e = self.expr(allow_reads)?;
                self.expect(&TkToken::RParen, "`)`")?;
                Ok(e)
            }
            TkToken::Keyword(TkKeyword::Bnd) => {
                self.next();
                self.expect(&TkToken::LParen, "`(`")?;
                self.expect(&TkToken::RParen, "`)` (bnd takes no arguments)")?;
                Ok(TkExpr::Bnd)
            }
            TkToken::Keyword(TkKeyword::Mod) => {
                self.next();
                self.expect(&TkToken::LParen, "`(`")?;
                let mut aff = self.affine()?;
                aff.coeffs.resize(self.loops.len(), 0);
                self.expect(&TkToken::Comma, "`,`")?;
                let msp = self.peek().clone();
                let m = self.int("modulus")?;
                if m <= 0 {
                    return Err(self.err_at(&msp, "modulus must be a positive integer"));
                }
                self.expect(&TkToken::RParen, "`)`")?;
                Ok(TkExpr::Mod(aff, m))
            }
            TkToken::Ident(name) => {
                let name = name.clone();
                self.next();
                if self.peek().token == TkToken::LBracket {
                    let comp = match self.arrays.iter().position(|a| a.name == name) {
                        Some(i) => i,
                        None => return Err(self.err_at(&sp, format!("unknown array `{name}`"))),
                    };
                    if !allow_reads {
                        return Err(self.err_at(
                            &sp,
                            "array reads are not allowed in array initial expressions",
                        ));
                    }
                    let dep = self.read_offset(&name, &sp)?;
                    Ok(TkExpr::Read { dep, comp })
                } else if let Some(k) = self.loop_index(&name) {
                    Ok(TkExpr::Coord(k))
                } else if let Some(i) = self.lets.iter().position(|(l, _)| l == &name) {
                    Ok(TkExpr::LetRef(i))
                } else if let Some(v) = self.param_value(&name) {
                    Ok(TkExpr::Num(v as f64))
                } else if self.arrays.iter().any(|a| a.name == name) {
                    Err(self.err_at(
                        &sp,
                        format!("array `{name}` must be read with an index list `{name}[…]`"),
                    ))
                } else {
                    Err(self.err_at(&sp, format!("unknown identifier `{name}`")))
                }
            }
            other => Err(self.err_at(&sp, format!("expected an expression, found `{other}`"))),
        }
    }

    /// Parse `[i1, …, in]` after an array name, enforce uniformity
    /// (`index_k = var_k + constant`), and resolve the offset vector to a
    /// dependence-column index.
    fn read_offset(&mut self, array: &str, at: &TkSpanned) -> Result<usize, TkError> {
        let dim = self.loops.len();
        self.expect(&TkToken::LBracket, "`[`")?;
        let mut d = vec![0i64; dim];
        for (k, dk) in d.iter_mut().enumerate() {
            if k > 0 {
                self.expect(&TkToken::Comma, "`,`")?;
            }
            let isp = self.peek().clone();
            let mut aff = self.affine()?;
            aff.coeffs.resize(dim, 0);
            let uniform = (0..dim).all(|i| aff.coeffs[i] == i64::from(i == k));
            if !uniform {
                return Err(self.err_at(
                    &isp,
                    format!(
                        "non-uniform access: index {} of `{array}` must be \
                         `{} + constant`",
                        k + 1,
                        self.loops[k].var
                    ),
                ));
            }
            *dk = -aff.constant;
        }
        self.expect(&TkToken::RBracket, "`]`")?;
        if d.iter().all(|&v| v == 0) {
            return Err(self.err_at(
                at,
                format!("`{array}` reads the point being written (offset is zero)"),
            ));
        }
        if !lex_positive(&d) {
            return Err(self.err_at(
                at,
                format!(
                    "dependence offset ({}) is not lexicographically positive \
                     — this read creates a negative-lag cycle",
                    join(&d)
                ),
            ));
        }
        if let Some(i) = self.deps.iter().position(|c| c == &d) {
            if self.deps_declared {
                self.deps_used[i] = true;
            }
            Ok(i)
        } else if self.deps_declared {
            Err(self.err_at(
                at,
                format!(
                    "access offset ({}) is not in the declared `deps` list",
                    join(&d)
                ),
            ))
        } else {
            self.deps.push(d);
            Ok(self.deps.len() - 1)
        }
    }
}

fn lex_positive(d: &[i64]) -> bool {
    for &v in d {
        if v > 0 {
            return true;
        }
        if v < 0 {
            return false;
        }
    }
    false
}

fn join(v: &[i64]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAT: &str = "\
kernel heat
param T = 4
param N = 8
iter t = 1 to T
iter i = 1 to N
skew = [1,0; 1,1]
array A = bnd()
A[t,i] = A[t-1,i] + 0.25*(A[t-1,i-1] - 2*A[t-1,i] + A[t-1,i+1])
";

    #[test]
    fn parses_heat_and_collects_deps_in_first_occurrence_order() {
        let p = parse_kernel(HEAT).unwrap();
        assert_eq!(p.name, "heat");
        assert_eq!(p.dim(), 2);
        assert_eq!(p.width(), 1);
        assert_eq!(
            p.deps,
            vec![vec![1, 0], vec![1, 1], vec![1, -1]],
            "first occurrence order"
        );
        assert!(!p.deps_declared);
    }

    const JACOBI: &str = "\
# Jacobi over a 3-D space.
kernel jacobi
param T = 4
param N = 6
iter t = 1 to T
iter i = 1 to N
iter j = 1 to N
array A = 1.5
A[t,i,j] = 0.25*(A[t-1,i-1,j] + A[t-1,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1])
";

    #[test]
    fn parses_jacobi() {
        let p = parse_kernel(JACOBI).unwrap();
        assert_eq!(p.dim(), 3);
        assert_eq!(p.arrays.len(), 1);
        assert_eq!(p.arrays[0].name, "A");
        assert_eq!(
            p.deps,
            vec![vec![1, 1, 0], vec![1, 0, 1], vec![1, -1, 0], vec![1, 0, -1]]
        );
        assert_eq!(p.arrays[0].init, TkExpr::Num(1.5));
        assert!(p.skew.is_none());
        // Bounds resolved: t in [1, 4].
        assert_eq!(p.loops[0].lowers[0].eval(&[0, 0, 0]), 1);
        assert_eq!(p.loops[0].uppers[0].eval(&[0, 0, 0]), 4);
    }

    #[test]
    fn rejects_non_uniform_reference() {
        // Index 2 depends on `t`, not only on `i`.
        let src = "\
kernel k
iter t = 1 to 3
iter i = 1 to 3
array A = 0.0
A[t,i] = A[t-1,t+i]
";
        let e = parse_kernel(src).unwrap_err();
        assert!(e.message.contains("uniform"), "{e}");
    }

    #[test]
    fn rejects_lex_negative_dependence() {
        let src = "\
kernel k
iter t = 1 to 3
iter i = 1 to 3
array A = 0.0
A[t,i] = A[t+1,i]
";
        let e = parse_kernel(src).unwrap_err();
        assert!(e.message.contains("lexicographically"), "{e}");
    }

    #[test]
    fn rejects_self_read() {
        let src = "\
kernel k
iter t = 1 to 3
iter i = 1 to 3
array A = 0.0
A[t,i] = A[t,i]
";
        let e = parse_kernel(src).unwrap_err();
        assert!(e.message.contains("offset is zero"), "{e}");
    }

    #[test]
    fn rejects_unknown_identifier() {
        let src = "\
kernel k
iter t = 1 to Q
array A = 0.0
A[t] = A[t-1]
";
        let e = parse_kernel(src).unwrap_err();
        assert!(e.message.contains("unknown identifier `Q`"), "{e}");
        assert_eq!((e.line, e.col), (2, 15));
    }

    #[test]
    fn declared_deps_pin_column_order() {
        let src = "\
kernel k
iter t = 1 to 3
iter i = 1 to 3
deps = (1,1), (1,0)
array A = 0.0
A[t,i] = A[t-1,i] + A[t-1,i-1]
";
        let p = parse_kernel(src).unwrap();
        assert_eq!(p.deps, vec![vec![1, 1], vec![1, 0]]);
        assert!(p.deps_declared);
        // The statement's first read (1,0) resolves to column 1.
        match &p.stmts[0].rhs {
            TkExpr::Add(a, _) => assert_eq!(**a, TkExpr::Read { dep: 1, comp: 0 }),
            other => panic!("unexpected rhs {other:?}"),
        }
    }

    #[test]
    fn non_uniform_access_is_located() {
        let src = "\
kernel k
iter t = 1 to 3
iter i = 1 to 3
array A = 0.0
A[t,i] = A[t-1,2*i]
";
        let e = parse_kernel(src).unwrap_err();
        assert_eq!((e.line, e.col), (5, 16));
        assert!(e.message.contains("non-uniform access"), "{e}");
    }

    #[test]
    fn negative_lag_cycle_is_rejected() {
        let src = "\
kernel k
iter t = 1 to 3
iter i = 1 to 3
array A = 0.0
A[t,i] = A[t,i+1]
";
        let e = parse_kernel(src).unwrap_err();
        assert!(e.message.contains("negative-lag cycle"), "{e}");
        assert_eq!(e.line, 5);
    }

    #[test]
    fn unbound_index_is_rejected() {
        let src = "\
kernel k
iter t = 1 to 3
array A = 0.0
A[t] = A[s-1]
";
        let e = parse_kernel(src).unwrap_err();
        assert!(e.message.contains("unknown identifier `s`"), "{e}");
    }

    #[test]
    fn lets_params_and_mod_resolve() {
        let src = "\
kernel k
param W = 3
iter t = 1 to 4
iter i = 1 to 4
array A = 2.0 + bnd()
let c = 0.1 + mod(13*t + 7*i, 17)*0.01
A[t,i] = A[t-1,i]*c + W
";
        let p = parse_kernel(src).unwrap();
        assert_eq!(p.lets.len(), 1);
        match &p.lets[0].1 {
            TkExpr::Add(_, b) => match &**b {
                TkExpr::Mul(m, _) => {
                    assert_eq!(
                        **m,
                        TkExpr::Mod(
                            AffForm {
                                coeffs: vec![13, 7],
                                constant: 0
                            },
                            17
                        )
                    );
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_affine_bounds_with_max_min() {
        let src = "\
kernel k
param N = 10
iter t = 1 to N
iter i = max(1, t - 2) to min(N, t + 2)
array A = 0.0
A[t,i] = A[t-1,i] + 1
";
        let p = parse_kernel(src).unwrap();
        assert_eq!(p.loops[1].lowers.len(), 2);
        assert_eq!(p.loops[1].uppers.len(), 2);
        // The second lower bound is t − 2.
        assert_eq!(p.loops[1].lowers[1].eval(&[7, 0]), 5);
    }

    #[test]
    fn parses_skew_matrix() {
        let src = "\
kernel k
param M = 3
iter t = 1 to M
iter i = 1 to M
iter j = 1 to M
skew = [1,0,0; 1,1,0; 2,0,1]
array A = 0.0
A[t,i,j] = A[t-1,i,j] + A[t,i-1,j] + A[t,i,j-1]
";
        let p = parse_kernel(src).unwrap();
        assert_eq!(
            p.skew,
            Some(vec![vec![1, 0, 0], vec![1, 1, 0], vec![2, 0, 1]])
        );
    }

    #[test]
    fn duplicate_reads_share_a_dependence_column() {
        let src = "\
kernel k
iter t = 1 to 3
iter i = 1 to 3
array A = 0.0
A[t,i] = A[t-1,i] * A[t-1,i] + A[t-1,i-1]
";
        let p = parse_kernel(src).unwrap();
        assert_eq!(p.deps.len(), 2);
    }

    #[test]
    fn rejects_wrong_write_reference() {
        let src = "\
kernel k
iter t = 1 to 3
iter i = 1 to 3
array A = 0.0
A[i,t] = A[t-1,i]
";
        let e = parse_kernel(src).unwrap_err();
        assert!(
            e.message.contains("write reference must be the identity"),
            "{e}"
        );
        assert_eq!(e.line, 5);
    }

    #[test]
    fn body_may_use_coordinates_and_params() {
        let src = "\
kernel k
param C = 7
iter t = 1 to 3
iter i = 1 to 3
array A = 0.0
A[t,i] = A[t-1,i] + 0.5*t + C
";
        let p = parse_kernel(src).unwrap();
        assert_eq!(
            p.stmts[0].rhs.eval(&[2, 1], &[1.0], &[], 1),
            1.0 + 0.5 * 2.0 + 7.0
        );
    }
}
