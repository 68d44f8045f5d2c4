//! Lowering: [`KernelProgram`] → [`Algorithm`] with a tape-compiled
//! [`Kernel`].
//!
//! Expressions are flattened into a flat instruction tape (one slot per AST
//! node; `let` bindings compile once and are referenced by slot). The batch
//! entry `compute_run` evaluates the tape op-at-a-time over blocks of eight
//! points held in `[f64; 8]` arrays, so interpreter dispatch is amortized
//! across a block and each op is a register-wide loop, while each *point*
//! keeps the exact per-point floating-point operation order. Batched results
//! are therefore bitwise identical to the per-point path, which the fuzzer's
//! three-way cross-check locks.
//!
//! Operations on constants are folded at lowering: `Const ⊕ Const` is
//! evaluated once, the same IEEE operation on the same operands, so the
//! result is bitwise what the per-point evaluation computed.

use crate::tk::ast::{KernelProgram, TkExpr};
use crate::tk::error::TkError;
use crate::tk::parse::parse_kernel_with;
use std::cell::RefCell;
use std::sync::Arc;
use tilecc_linalg::IMat;
use tilecc_loopnest::kernel::{boundary_value, with_scratch};
use tilecc_loopnest::{Algorithm, Kernel, LoopNest};
use tilecc_polytope::{Constraint, Polyhedron};

/// One instruction of the flattened expression tape. Operands are slot
/// indices of earlier instructions.
#[derive(Clone, Debug)]
enum Op {
    Const(f64),
    /// Original coordinate `j[k]` as `f64`.
    Coord(usize),
    /// `reads[(dep·count + p)·width + comp]` (batch) / `reads[dep·width + comp]`.
    Read {
        dep: usize,
        comp: usize,
    },
    /// `boundary_value(j)`.
    Bnd,
    /// `(Σ coeffs·j + constant).rem_euclid(modulus)` as `f64`.
    Mod {
        coeffs: Vec<i64>,
        constant: i64,
        modulus: i64,
    },
    Neg(usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
}

/// A compiled expression tape with its output slots.
#[derive(Clone, Debug, Default)]
struct Tape {
    ops: Vec<Op>,
    /// `outputs[c]` is the slot whose value goes to `out[c]`.
    outputs: Vec<usize>,
}

impl Tape {
    /// Scalar evaluation into `slots`: scratch grown on first use and never
    /// cleared, since every slot is written before it is read.
    fn eval(&self, j: &[i64], reads: &[f64], width: usize, slots: &mut Vec<f64>, out: &mut [f64]) {
        if slots.len() < self.ops.len() {
            slots.resize(self.ops.len(), 0.0);
        }
        for (s, op) in self.ops.iter().enumerate() {
            slots[s] = match op {
                Op::Const(v) => *v,
                Op::Coord(k) => j[*k] as f64,
                Op::Read { dep, comp } => reads[dep * width + comp],
                Op::Bnd => boundary_value(j),
                Op::Mod {
                    coeffs,
                    constant,
                    modulus,
                } => {
                    let v: i64 = coeffs.iter().zip(j).map(|(&c, &x)| c * x).sum::<i64>() + constant;
                    v.rem_euclid(*modulus) as f64
                }
                Op::Neg(a) => -slots[*a],
                Op::Add(a, b) => slots[*a] + slots[*b],
                Op::Sub(a, b) => slots[*a] - slots[*b],
                Op::Mul(a, b) => slots[*a] * slots[*b],
                Op::Div(a, b) => slots[*a] / slots[*b],
            };
        }
        for (c, &s) in self.outputs.iter().enumerate() {
            out[c] = slots[s];
        }
    }

    /// Batched evaluation over the affine run `j0 + p·dj`, `0 ≤ p < count`,
    /// in blocks of [`LANES`] points: slot `s` of the block's lane `l` lives
    /// at `blocks[s][l]`, so each op runs over one register-sized array and
    /// the whole slot set stays in L1 however long the run is. Every lane
    /// evaluates its point with the scalar path's exact operation order, so
    /// results are bitwise identical point for point. A ragged last block
    /// repeats the run's last read in its spare lanes and discards them.
    #[allow(clippy::too_many_arguments)]
    fn eval_run(
        &self,
        j0: &[i64],
        dj: &[i64],
        count: usize,
        reads: &[f64],
        width: usize,
        blocks: &mut Vec<Block>,
        out: &mut [f64],
    ) {
        if blocks.len() < self.ops.len() {
            blocks.resize(self.ops.len(), [0.0; LANES]);
        }
        let w = width;
        for p0 in (0..count).step_by(LANES) {
            // Spare lanes of a ragged last block repeat lane `last`'s read.
            let last = (count - 1 - p0).min(LANES - 1);
            let at = |k: usize, l: usize| j0[k] + (p0 + l) as i64 * dj[k];
            for (s, op) in self.ops.iter().enumerate() {
                blocks[s] = match op {
                    Op::Const(v) => [*v; LANES],
                    Op::Coord(k) => std::array::from_fn(|l| at(*k, l) as f64),
                    Op::Read { dep, comp } => {
                        let r = &reads[(dep * count + p0) * w + comp..];
                        std::array::from_fn(|l| r[l.min(last) * w])
                    }
                    Op::Bnd => with_scratch(j0.len(), |j| {
                        std::array::from_fn(|l| {
                            for (k, jk) in j.iter_mut().enumerate() {
                                *jk = at(k, l);
                            }
                            boundary_value(j)
                        })
                    }),
                    Op::Mod {
                        coeffs,
                        constant,
                        modulus,
                    } => {
                        // The affine value steps by `c·dj` per lane, so its
                        // residue steps by that residue: one division per
                        // block, exactly `(c·j + constant).rem_euclid(m)`.
                        let m = *modulus;
                        let v = coeffs
                            .iter()
                            .enumerate()
                            .map(|(k, &c)| c * at(k, 0))
                            .sum::<i64>()
                            + constant;
                        let step: i64 = coeffs.iter().zip(dj).map(|(&c, &d)| c * d).sum();
                        let (mut r, s) = (v.rem_euclid(m), step.rem_euclid(m));
                        std::array::from_fn(|_| {
                            let x = r as f64;
                            // `(r + s) mod m` without overflowing near i64::MAX.
                            r = if r >= m - s { r - (m - s) } else { r + s };
                            x
                        })
                    }
                    Op::Neg(a) => blocks[*a].map(|x| -x),
                    Op::Add(a, b) => zip(&blocks[*a], &blocks[*b], |x, y| x + y),
                    Op::Sub(a, b) => zip(&blocks[*a], &blocks[*b], |x, y| x - y),
                    Op::Mul(a, b) => zip(&blocks[*a], &blocks[*b], |x, y| x * y),
                    Op::Div(a, b) => zip(&blocks[*a], &blocks[*b], |x, y| x / y),
                };
            }
            let n = LANES.min(count - p0);
            for (c, &s) in self.outputs.iter().enumerate() {
                for (l, v) in blocks[s][..n].iter().enumerate() {
                    out[(p0 + l) * w + c] = *v;
                }
            }
        }
    }
}

/// Points per block of [`Tape::eval_run`]: one `[f64; 8]` array per slot,
/// which the optimizer keeps in vector registers.
const LANES: usize = 8;

type Block = [f64; LANES];

/// Lane-wise `f(x[l], y[l])`.
#[inline(always)]
fn zip(x: &Block, y: &Block, f: impl Fn(f64, f64) -> f64) -> Block {
    std::array::from_fn(|l| f(x[l], y[l]))
}

/// Tape builder: post-order walk; `let` bindings compile once (their result
/// slot is shared by every reference, matching once-per-point semantics).
/// Operations on constants are evaluated here.
struct TapeBuilder {
    ops: Vec<Op>,
    let_slots: Vec<usize>,
}

impl TapeBuilder {
    fn push(&mut self, op: Op) -> usize {
        let konst = |s: usize| match self.ops[s] {
            Op::Const(v) => Some(v),
            _ => None,
        };
        let folded = match op {
            Op::Neg(a) => konst(a).map(|x| -x),
            Op::Add(a, b) => konst(a).zip(konst(b)).map(|(x, y)| x + y),
            Op::Sub(a, b) => konst(a).zip(konst(b)).map(|(x, y)| x - y),
            Op::Mul(a, b) => konst(a).zip(konst(b)).map(|(x, y)| x * y),
            Op::Div(a, b) => konst(a).zip(konst(b)).map(|(x, y)| x / y),
            _ => None,
        };
        self.ops.push(folded.map_or(op, Op::Const));
        self.ops.len() - 1
    }

    fn emit(&mut self, e: &TkExpr) -> usize {
        match e {
            TkExpr::Num(v) => self.push(Op::Const(*v)),
            TkExpr::Coord(k) => self.push(Op::Coord(*k)),
            TkExpr::LetRef(i) => self.let_slots[*i],
            TkExpr::Read { dep, comp } => self.push(Op::Read {
                dep: *dep,
                comp: *comp,
            }),
            TkExpr::Bnd => self.push(Op::Bnd),
            TkExpr::Mod(aff, m) => self.push(Op::Mod {
                coeffs: aff.coeffs.clone(),
                constant: aff.constant,
                modulus: *m,
            }),
            TkExpr::Neg(a) => {
                let a = self.emit(a);
                self.push(Op::Neg(a))
            }
            TkExpr::Add(a, b) => {
                let (a, b) = (self.emit(a), self.emit(b));
                self.push(Op::Add(a, b))
            }
            TkExpr::Sub(a, b) => {
                let (a, b) = (self.emit(a), self.emit(b));
                self.push(Op::Sub(a, b))
            }
            TkExpr::Mul(a, b) => {
                let (a, b) = (self.emit(a), self.emit(b));
                self.push(Op::Mul(a, b))
            }
            TkExpr::Div(a, b) => {
                let (a, b) = (self.emit(a), self.emit(b));
                self.push(Op::Div(a, b))
            }
        }
    }
}

thread_local! {
    /// Reusable slot scratch shared by all tape kernels on a thread: one
    /// value per slot for the per-point path.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// One lane block per slot for the batch path.
    static BLOCKS: RefCell<Vec<Block>> = const { RefCell::new(Vec::new()) };
}

/// The generated kernel: body tape + init tape.
pub struct TkKernel {
    width: usize,
    body: Tape,
    init: Tape,
}

impl Kernel for TkKernel {
    fn width(&self) -> usize {
        self.width
    }

    fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
        SCRATCH.with(|s| {
            self.body
                .eval(j, reads, self.width, &mut s.borrow_mut(), out);
        });
    }

    fn initial(&self, j: &[i64], out: &mut [f64]) {
        SCRATCH.with(|s| {
            self.init.eval(j, &[], self.width, &mut s.borrow_mut(), out);
        });
    }

    fn compute_run(&self, j0: &[i64], dj: &[i64], count: usize, reads: &[f64], out: &mut [f64]) {
        if count == 0 {
            return;
        }
        BLOCKS.with(|s| {
            self.body
                .eval_run(j0, dj, count, reads, self.width, &mut s.borrow_mut(), out);
        });
    }
}

/// Lower a parsed program into an [`Algorithm`] (applying the skew, if any).
///
/// All validation already happened in the parser, so this is pure
/// construction. The iteration-space constraints are emitted in
/// `Polyhedron::from_box` order (lower then upper, per dimension) so a DSL
/// kernel over a box is *structurally identical* — not merely equivalent —
/// to its hand-coded counterpart.
pub fn lower_kernel(p: &KernelProgram) -> Algorithm {
    let n = p.dim();
    let mut space = Polyhedron::universe(n);
    for (k, lp) in p.loops.iter().enumerate() {
        for lo in &lp.lowers {
            // j_k − lo(j) ≥ 0
            let mut coeffs: Vec<i64> = lo.coeffs.iter().map(|c| -c).collect();
            coeffs[k] += 1;
            space.add(Constraint::new(coeffs, -lo.constant));
        }
        for hi in &lp.uppers {
            // hi(j) − j_k ≥ 0
            let mut coeffs: Vec<i64> = hi.coeffs.clone();
            coeffs[k] -= 1;
            space.add(Constraint::new(coeffs, hi.constant));
        }
    }
    let mut deps = IMat::zeros(n, p.deps.len());
    for (q, d) in p.deps.iter().enumerate() {
        for k in 0..n {
            deps[(k, q)] = d[k];
        }
    }

    let mut body = TapeBuilder {
        ops: Vec::new(),
        let_slots: Vec::new(),
    };
    for (_, e) in &p.lets {
        let slot = body.emit(e);
        body.let_slots.push(slot);
    }
    let mut outputs = vec![0usize; p.width()];
    for s in &p.stmts {
        outputs[s.array] = body.emit(&s.rhs);
    }
    let body = Tape {
        ops: body.ops,
        outputs,
    };

    let mut init = TapeBuilder {
        ops: Vec::new(),
        let_slots: Vec::new(),
    };
    let init_outputs: Vec<usize> = p.arrays.iter().map(|a| init.emit(&a.init)).collect();
    let init = Tape {
        ops: init.ops,
        outputs: init_outputs,
    };

    let kernel = Arc::new(TkKernel {
        width: p.width(),
        body,
        init,
    });
    let alg = Algorithm::new(p.name.clone(), LoopNest::new(space, deps), kernel);
    match &p.skew {
        Some(rows) => {
            let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            alg.skewed(&IMat::from_rows(&refs))
        }
        None => alg,
    }
}

/// Parse and lower in one step.
pub fn compile_kernel(source: &str) -> Result<Algorithm, TkError> {
    compile_kernel_with(source, &[])
}

/// Parse and lower with `param` values overridden by name, e.g. the SOR
/// corpus kernel at the size `perf` benches it at:
///
/// ```
/// use tilecc_frontend::{compile_kernel_with, corpus};
/// let sor = compile_kernel_with(corpus::SOR, &[("M", 24), ("N", 32)]).unwrap();
/// assert_eq!(sor.nest.num_points(), Ok(24 * 32 * 32));
/// // A name the kernel does not declare is a located error.
/// let e = compile_kernel_with(corpus::SOR, &[("Q", 3)]).unwrap_err();
/// assert!(e.message.contains("no parameter `Q`"), "{e}");
/// ```
pub fn compile_kernel_with(source: &str, overrides: &[(&str, i64)]) -> Result<Algorithm, TkError> {
    Ok(lower_kernel(&parse_kernel_with(source, overrides)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tk::parse::parse_kernel;

    /// The six-point SOR body written in the DSL, sized like `sor(3, 4, w)`.
    const SOR_TK: &str = "\
kernel sor
param M = 3
param N = 4
iter t = 1 to M
iter i = 1 to N
iter j = 1 to N
skew = [1,0,0; 1,1,0; 2,0,1]
deps = (0,1,0), (0,0,1), (1,-1,0), (1,0,-1), (1,0,0)
array A = bnd()
A[t,i,j] = 1.1/4*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) + (1 - 1.1)*A[t-1,i,j]
";

    /// The DSL data space reproduces the removed hand-coded
    /// `sor_skewed(3, 4, 1.1)` bit for bit: its recorded
    /// [`DataSpace::bit_hash`](tilecc_loopnest::DataSpace::bit_hash).
    #[test]
    fn dsl_sor_is_bitwise_identical_to_hand_coded() {
        let ds = compile_kernel(SOR_TK).unwrap().execute_sequential();
        assert_eq!(ds.num_written(), 48);
        assert_eq!(ds.bit_hash(), 0x9c82_b9af_61f1_87e4, "data spaces differ");
    }

    /// As above, against the removed hand-coded `adi_paper(3, 4)`.
    #[test]
    fn dsl_adi_paper_is_bitwise_identical_to_hand_coded() {
        let dsl = compile_kernel_with(crate::corpus::ADI_PAPER, &[("T", 3), ("N", 4)]).unwrap();
        assert_eq!(dsl.width(), 2);
        let ds = dsl.execute_sequential();
        assert_eq!(ds.num_written(), 48);
        assert_eq!(ds.bit_hash(), 0x5c7e_f1f1_e345_e9dc, "data spaces differ");
    }

    #[test]
    fn an_unknown_override_is_a_located_error() {
        let e = compile_kernel_with(crate::corpus::SOR, &[("M", 4), ("Q", 3)]).unwrap_err();
        // Located at the kernel name, after the file's four comment lines.
        assert_eq!((e.line, e.col), (5, 8), "{e}");
        assert!(e.message.contains("no parameter `Q`"), "{e}");
        let shown = e.render("sor.tk", crate::corpus::SOR);
        assert!(
            shown.contains("  5 | kernel sor\n    |        ^"),
            "{shown}"
        );
    }

    #[test]
    fn overriding_a_bound_parameter_changes_only_the_space() {
        let base = compile_kernel(crate::corpus::SOR).unwrap();
        let small = compile_kernel_with(crate::corpus::SOR, &[("M", 3)]).unwrap();
        assert_eq!(base.nest.num_points(), Ok(8 * 12 * 12));
        assert_eq!(small.nest.num_points(), Ok(3 * 12 * 12));
        // Same columns in the same (pinned) order.
        assert_eq!(small.nest.deps(), base.nest.deps());
    }

    #[test]
    fn compute_run_matches_per_point_bitwise() {
        let p = parse_kernel(SOR_TK).unwrap();
        let alg = lower_kernel(&p);
        let k = &alg.kernel;
        let q = alg.nest.num_deps();
        let w = alg.width();
        // Deterministic pseudo-random reads.
        for count in [1usize, 5, 8, 23] {
            let reads: Vec<f64> = (0..q * count * w)
                .map(|i| ((i * 37 + 11) % 101) as f64 * 0.013 + 0.2)
                .collect();
            let j0 = [2i64, 5, 7];
            let dj = [0i64, 1, 2];
            let mut out = vec![0.0; count * w];
            k.compute_run(&j0, &dj, count, &reads, &mut out);
            let mut rbuf = vec![0.0; q * w];
            let mut expect = vec![0.0; w];
            for p in 0..count {
                let j: Vec<i64> = (0..3).map(|i| j0[i] + p as i64 * dj[i]).collect();
                for i in 0..q {
                    rbuf[i * w..(i + 1) * w]
                        .copy_from_slice(&reads[(i * count + p) * w..(i * count + p) * w + w]);
                }
                k.compute(&j, &rbuf, &mut expect);
                for c in 0..w {
                    assert_eq!(
                        out[p * w + c].to_bits(),
                        expect[c].to_bits(),
                        "count={count} p={p} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn triangular_bounds_lower() {
        let src = "\
kernel tri
param N = 6
iter t = 1 to N
iter i = t to min(N, t + 2)
array A = 1.0
A[t,i] = A[t-1,i] + 1
";
        let alg = compile_kernel(src).unwrap();
        let expected: usize = (1..=6).map(|t| ((t + 2).min(6) - t + 1) as usize).sum();
        assert_eq!(alg.nest.num_points(), Ok(expected as u64));
    }

    #[test]
    fn triangular_space_from_max_min_bounds() {
        let src = "\
kernel tri
param N = 6
iter t = 1 to N
iter i = max(1, t - 1) to min(N, t + 2)
array A = 1.0
A[t,i] = A[t-1,i] + 1
";
        let alg = compile_kernel(src).unwrap();
        // Count points: i from max(1, t−1)..=min(6, t+2).
        let expected: usize = (1..=6i64)
            .map(|t| ((t + 2).min(6) - (t - 1).max(1) + 1) as usize)
            .sum();
        assert_eq!(alg.nest.num_points(), Ok(expected as u64));
    }

    #[test]
    fn skew_must_be_unimodular() {
        let src = "\
kernel k
iter t = 1 to 3
iter i = 1 to 3
skew = [2,0; 0,1]
array A = 0.0
A[t,i] = A[t-1,i]
";
        let e = compile_kernel(src).unwrap_err();
        assert!(e.message.contains("unimodular"), "{e}");
    }

    #[test]
    fn compiled_jacobi_matches_builtin_kernel() {
        let src = "\
kernel jacobi
param T = 4
param N = 6
iter t = 1 to T
iter i = 1 to N
iter j = 1 to N
skew = [1,0,0; 1,1,0; 1,0,1]
array A = 1.0
A[t,i,j] = 0.25*(A[t-1,i-1,j] + A[t-1,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1])
";
        // Same dependence pattern and computation as the corpus Jacobi,
        // except for boundary values: compare structure.
        let alg = compile_kernel(src).unwrap();
        let builtin = compile_kernel_with(crate::corpus::JACOBI, &[("T", 4), ("N", 6)]).unwrap();
        assert_eq!(alg.nest.num_points(), builtin.nest.num_points());
        let cols = |a: &Algorithm| {
            (0..a.nest.deps().cols())
                .map(|c| a.nest.deps().col(c))
                .collect::<std::collections::HashSet<_>>()
        };
        assert_eq!(cols(&alg), cols(&builtin));
    }

    #[test]
    fn compiled_program_executes() {
        let src = "\
kernel k
param N = 5
iter t = 1 to N
iter i = 1 to N
array A = 1.0
A[t,i] = A[t-1,i] + 2
";
        let ds = compile_kernel(src).unwrap().execute_sequential();
        // Each column gains 2 per time step from the 1.0 boundary.
        assert_eq!(ds.get(&[1, 3]), Some(3.0));
        assert_eq!(ds.get(&[5, 3]), Some(11.0));
    }

    #[test]
    fn boundary_uses_coordinates() {
        let src = "\
kernel k
iter t = 1 to 2
iter i = 1 to 2
array A = 0.5*i
A[t,i] = A[t-1,i]
";
        let ds = compile_kernel(src).unwrap().execute_sequential();
        // A[1,2] reads A[0,2] = 0.5·2.
        assert_eq!(ds.get(&[1, 2]), Some(1.0));
        assert_eq!(ds.get(&[2, 2]), Some(1.0));
    }
}
