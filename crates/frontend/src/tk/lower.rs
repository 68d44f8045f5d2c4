//! Lowering: [`KernelProgram`] → [`Algorithm`] with a tape-compiled
//! [`Kernel`].
//!
//! Expressions are flattened into a tape in register form: one instruction
//! per operation, whose operands name an earlier instruction's slot, a
//! dependence read or a constant directly (`let` bindings compile once and
//! are referenced by operand). A scalar call evaluates a short tape over a
//! stack array of slots. The batch entry `compute_run` evaluates the tape
//! instruction-at-a-time over blocks of eight points held in `[f64; 8]`
//! arrays, so interpreter dispatch is amortized across a block and each
//! instruction is a register-wide loop, while each *point* keeps the exact
//! per-point floating-point operation order. Batched results are therefore
//! bitwise identical to the per-point path, which the fuzzer's three-way
//! cross-check locks. `initial_run` runs the boundary tape the same way
//! over a row's reads from outside the space.
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
use tilecc_loopnest::kernel::{
    boundary_hash, boundary_of, boundary_value, initial_points, with_scratch, MIN_BATCH,
};
use tilecc_loopnest::{Algorithm, Kernel, LoopNest};
use tilecc_polytope::{Constraint, Polyhedron};

/// An operand of a tape instruction, named where it lives: an earlier
/// instruction's slot, a dependence read or a constant. Reads and
/// constants are no instructions of their own, so a tape holds only the
/// operations a point actually performs.
#[derive(Clone, Copy, Debug)]
enum Arg {
    Slot(u32),
    /// `reads[at]` per point, `at = dep·width + comp`; the batch path reads
    /// `reads[(dep·count + p)·width + comp]`, which is
    /// `at + (dep·(count − 1) + p)·width`.
    Read {
        at: u32,
        dep: u32,
    },
    Const(f64),
}

/// One instruction of the flattened expression tape; instruction `s`
/// writes slot `s`.
#[derive(Clone, Debug)]
enum Ins {
    /// Original coordinate `j[k]` as `f64`.
    Coord(usize),
    /// `boundary_value(j)`.
    Bnd,
    /// `(Σ coeffs·j + constant).rem_euclid(modulus)` as `f64`.
    Mod {
        coeffs: Vec<i64>,
        constant: i64,
        modulus: i64,
    },
    Neg(Arg),
    Add(Arg, Arg),
    Sub(Arg, Arg),
    Mul(Arg, Arg),
    Div(Arg, Arg),
}

/// A compiled expression tape in register form, with its outputs.
#[derive(Clone, Debug, Default)]
struct Tape {
    ins: Vec<Ins>,
    /// `outputs[c]` is the operand whose value goes to `out[c]`.
    outputs: Vec<Arg>,
    /// Components per cell: the stride of a dependence's reads.
    width: usize,
    /// Whether an instruction reads the point's coordinates (`Coord`,
    /// `Bnd`, `Mod`). A tape that does not computes the same value at
    /// every `j`, so it never needs `j` mapped back through the skew.
    reads_coords: bool,
    /// The lane blocks of [`Tape::eval_run`]: the tape's distinct reads
    /// (by `at`) first, its constants next, then one per instruction.
    /// Every operand resolved to its block, so an instruction costs no
    /// operand dispatch.
    blocks: BlockForm,
}

/// The block indices of a tape's operands (see [`Tape::blocks`]).
#[derive(Clone, Debug, Default)]
struct BlockForm {
    /// The `Arg::Read` of each read block, `(at, dep)`.
    reads: Vec<(u32, u32)>,
    /// The value of each constant block.
    consts: Vec<f64>,
    /// Each instruction's operand blocks (the second repeats the first
    /// for a unary one; unused for one without operands).
    operands: Vec<[u32; 2]>,
    /// Each output's block.
    outputs: Vec<u32>,
}

/// Where an operand's block lies before the reads and constants are all
/// counted.
#[derive(Clone, Copy)]
enum Place {
    Read(usize),
    Const(usize),
    Slot(u32),
}

impl BlockForm {
    fn new(ins: &[Ins], outputs: &[Arg]) -> BlockForm {
        let mut form = BlockForm::default();
        let raw: Vec<[Place; 2]> = ins
            .iter()
            .map(|i| match *i {
                Ins::Neg(a) => [form.place(a); 2],
                Ins::Add(a, b) | Ins::Sub(a, b) | Ins::Mul(a, b) | Ins::Div(a, b) => {
                    [form.place(a), form.place(b)]
                }
                Ins::Coord(_) | Ins::Bnd | Ins::Mod { .. } => [Place::Slot(0); 2],
            })
            .collect();
        let outs: Vec<Place> = outputs.iter().map(|&a| form.place(a)).collect();
        let (nr, nc) = (form.reads.len(), form.consts.len());
        let index = |p: Place| -> u32 {
            let i = match p {
                Place::Read(r) => r,
                Place::Const(c) => nr + c,
                Place::Slot(s) => nr + nc + s as usize,
            };
            u32::try_from(i).expect("tape fits u32 blocks")
        };
        form.operands = raw.into_iter().map(|ab| ab.map(index)).collect();
        form.outputs = outs.into_iter().map(index).collect();
        form
    }

    /// The place of operand `a`: a read's block is shared by every use, a
    /// constant gets one per use.
    fn place(&mut self, a: Arg) -> Place {
        match a {
            Arg::Read { at, dep } => Place::Read(
                self.reads
                    .iter()
                    .position(|r| r.0 == at)
                    .unwrap_or_else(|| {
                        self.reads.push((at, dep));
                        self.reads.len() - 1
                    }),
            ),
            Arg::Const(v) => {
                self.consts.push(v);
                Place::Const(self.consts.len() - 1)
            }
            Arg::Slot(s) => Place::Slot(s),
        }
    }

    /// Blocks before the first instruction's.
    fn base(&self) -> usize {
        self.reads.len() + self.consts.len()
    }
}

/// Slots a scalar evaluation keeps on the stack; a longer tape borrows
/// the thread's [`SCRATCH`].
const STACK_SLOTS: usize = 32;

impl Tape {
    fn new(ins: Vec<Ins>, outputs: Vec<Arg>, width: usize) -> Tape {
        let reads_coords = ins
            .iter()
            .any(|i| matches!(i, Ins::Coord(_) | Ins::Bnd | Ins::Mod { .. }));
        Tape {
            blocks: BlockForm::new(&ins, &outputs),
            ins,
            outputs,
            width,
            reads_coords,
        }
    }

    /// Scalar evaluation of the point `j` with dependence reads `reads`
    /// into `out`, over a stack array of slots when the tape fits one.
    fn eval(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
        if self.ins.len() <= STACK_SLOTS {
            self.eval_in(j, reads, &mut [0.0; STACK_SLOTS], out);
        } else {
            SCRATCH.with(|s| {
                let mut slots = s.borrow_mut();
                if slots.len() < self.ins.len() {
                    slots.resize(self.ins.len(), 0.0);
                }
                self.eval_in(j, reads, &mut slots, out);
            });
        }
    }

    /// [`Tape::eval`] into `slots`, which every instruction writes before
    /// a later one reads it.
    #[inline(always)]
    fn eval_in(&self, j: &[i64], reads: &[f64], slots: &mut [f64], out: &mut [f64]) {
        let arg = |a: Arg, slots: &[f64]| match a {
            Arg::Slot(s) => slots[s as usize],
            Arg::Read { at, .. } => reads[at as usize],
            Arg::Const(v) => v,
        };
        for (s, ins) in self.ins.iter().enumerate() {
            slots[s] = match *ins {
                Ins::Coord(k) => j[k] as f64,
                Ins::Bnd => boundary_value(j),
                Ins::Mod {
                    ref coeffs,
                    constant,
                    modulus,
                } => {
                    let v: i64 = coeffs.iter().zip(j).map(|(&c, &x)| c * x).sum::<i64>() + constant;
                    v.rem_euclid(modulus) as f64
                }
                Ins::Neg(a) => -arg(a, slots),
                Ins::Add(a, b) => arg(a, slots) + arg(b, slots),
                Ins::Sub(a, b) => arg(a, slots) - arg(b, slots),
                Ins::Mul(a, b) => arg(a, slots) * arg(b, slots),
                Ins::Div(a, b) => arg(a, slots) / arg(b, slots),
            };
        }
        for (o, &a) in out.iter_mut().zip(&self.outputs) {
            *o = arg(a, slots);
        }
    }

    /// Batched evaluation over the affine run `j0 + p·dj`, `0 ≤ p < count`,
    /// in blocks of [`LANES`] points: slot `s` of the block's lane `l` lives
    /// at `blocks[s][l]`, so each instruction runs over one register-sized
    /// array and the whole slot set stays in L1 however long the run is.
    /// Every lane evaluates its point with the scalar path's exact
    /// operation order, so results are bitwise identical point for point.
    /// A ragged last block repeats the run's last read in its spare lanes
    /// and discards them.
    fn eval_run(
        &self,
        j0: &[i64],
        dj: &[i64],
        count: usize,
        reads: &[f64],
        blocks: &mut Vec<Block>,
        out: &mut [f64],
    ) {
        let (form, w) = (&self.blocks, self.width);
        let base = form.base();
        if blocks.len() < base + self.ins.len() {
            blocks.resize(base + self.ins.len(), [0.0; LANES]);
        }
        let nr = form.reads.len();
        for (b, &v) in blocks[nr..].iter_mut().zip(&form.consts) {
            *b = [v; LANES];
        }
        // `bnd()` hashes `j` affinely modulo 2⁶⁴, so its hash steps by a
        // constant along the run: no lane rebuilds its coordinates.
        let (bnd0, bnd_step) = if self.reads_coords {
            with_scratch(j0.len(), |zero| {
                let origin = boundary_hash(zero);
                (boundary_hash(j0), boundary_hash(dj).wrapping_sub(origin))
            })
        } else {
            (0, 0)
        };
        for p0 in (0..count).step_by(LANES) {
            // Spare lanes of a ragged last block repeat lane `last`'s read.
            let last = (count - 1 - p0).min(LANES - 1);
            for (b, &(at, dep)) in blocks.iter_mut().zip(&form.reads) {
                let r = &reads[at as usize + (dep as usize * (count - 1) + p0) * w..];
                *b = if w == 1 && last == LANES - 1 {
                    // A full block of one-value cells: one load.
                    r[..LANES].try_into().expect("a full lane block")
                } else {
                    std::array::from_fn(|l| r[l.min(last) * w])
                };
            }
            let at = |k: usize, l: usize| j0[k] + (p0 + l) as i64 * dj[k];
            for (s, (ins, &[a, b])) in self.ins.iter().zip(&form.operands).enumerate() {
                let (x, y) = (&blocks[a as usize], &blocks[b as usize]);
                let v = match *ins {
                    Ins::Coord(k) => std::array::from_fn(|l| at(k, l) as f64),
                    Ins::Bnd => std::array::from_fn(|l| {
                        let p = (p0 + l) as i64;
                        boundary_of(bnd0.wrapping_add(p.wrapping_mul(bnd_step)))
                    }),
                    Ins::Mod {
                        ref coeffs,
                        constant,
                        modulus: m,
                    } => {
                        // The affine value steps by `c·dj` per lane, so its
                        // residue steps by that residue: one division per
                        // block, exactly `(c·j + constant).rem_euclid(m)`.
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
                    Ins::Neg(_) => x.map(|x| -x),
                    Ins::Add(..) => zip(x, y, |x, y| x + y),
                    Ins::Sub(..) => zip(x, y, |x, y| x - y),
                    Ins::Mul(..) => zip(x, y, |x, y| x * y),
                    Ins::Div(..) => zip(x, y, |x, y| x / y),
                };
                blocks[base + s] = v;
            }
            let n = LANES.min(count - p0);
            for (c, &o) in form.outputs.iter().enumerate() {
                for (l, v) in blocks[o as usize][..n].iter().enumerate() {
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

/// Tape builder: post-order walk; `let` bindings compile once (their
/// operand is shared by every reference, matching once-per-point
/// semantics). Operations on constants are evaluated here.
struct TapeBuilder {
    ins: Vec<Ins>,
    let_args: Vec<Arg>,
    width: usize,
}

impl TapeBuilder {
    fn new(width: usize) -> TapeBuilder {
        TapeBuilder {
            ins: Vec::new(),
            let_args: Vec::new(),
            width,
        }
    }

    fn push(&mut self, ins: Ins) -> Arg {
        use Arg::Const as K;
        let folded = match ins {
            Ins::Neg(K(x)) => Some(-x),
            Ins::Add(K(x), K(y)) => Some(x + y),
            Ins::Sub(K(x), K(y)) => Some(x - y),
            Ins::Mul(K(x), K(y)) => Some(x * y),
            Ins::Div(K(x), K(y)) => Some(x / y),
            _ => None,
        };
        folded.map_or_else(
            || {
                self.ins.push(ins);
                Arg::Slot(u32::try_from(self.ins.len() - 1).expect("tape fits u32 slots"))
            },
            K,
        )
    }

    fn emit(&mut self, e: &TkExpr) -> Arg {
        match e {
            TkExpr::Num(v) => Arg::Const(*v),
            TkExpr::Coord(k) => self.push(Ins::Coord(*k)),
            TkExpr::LetRef(i) => self.let_args[*i],
            TkExpr::Read { dep, comp } => {
                let narrow = |x: usize| u32::try_from(x).expect("read index fits u32");
                Arg::Read {
                    at: narrow(dep * self.width + comp),
                    dep: narrow(*dep),
                }
            }
            TkExpr::Bnd => self.push(Ins::Bnd),
            TkExpr::Mod(aff, m) => self.push(Ins::Mod {
                coeffs: aff.coeffs.clone(),
                constant: aff.constant,
                modulus: *m,
            }),
            TkExpr::Neg(a) => {
                let a = self.emit(a);
                self.push(Ins::Neg(a))
            }
            TkExpr::Add(a, b) => {
                let (a, b) = (self.emit(a), self.emit(b));
                self.push(Ins::Add(a, b))
            }
            TkExpr::Sub(a, b) => {
                let (a, b) = (self.emit(a), self.emit(b));
                self.push(Ins::Sub(a, b))
            }
            TkExpr::Mul(a, b) => {
                let (a, b) = (self.emit(a), self.emit(b));
                self.push(Ins::Mul(a, b))
            }
            TkExpr::Div(a, b) => {
                let (a, b) = (self.emit(a), self.emit(b));
                self.push(Ins::Div(a, b))
            }
        }
    }

    fn finish(self, outputs: Vec<Arg>) -> Tape {
        Tape::new(self.ins, outputs, self.width)
    }
}

thread_local! {
    /// Slot scratch of a scalar evaluation whose tape exceeds
    /// [`STACK_SLOTS`], shared by all tape kernels on a thread.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// One lane block per slot for the batch path.
    static BLOCKS: RefCell<Vec<Block>> = const { RefCell::new(Vec::new()) };
}

/// The generated kernel: body tape + init tape, over the skewed nest when
/// the program declares a skew.
pub struct TkKernel {
    width: usize,
    body: Tape,
    init: Tape,
    /// `T⁻¹` of the declared skew `T`: the nest iterates the skewed points
    /// `T·j`, and a tape that reads coordinates sees the original `j`.
    t_inv: Option<IMat>,
}

impl TkKernel {
    /// Call `f` with the coordinates `tape` reads at the nest point `j`:
    /// `T⁻¹j`, computed with the checked arithmetic of
    /// [`IMat::mul_vec_into`] into a stack buffer, when the kernel is
    /// skewed and the tape reads coordinates; `j` itself otherwise.
    ///
    /// # Panics
    /// Panics on `i64` overflow, like [`IMat::mul_vec`].
    #[inline]
    fn at<R>(&self, tape: &Tape, j: &[i64], f: impl FnOnce(&[i64]) -> R) -> R {
        match &self.t_inv {
            Some(t_inv) if tape.reads_coords => with_scratch(j.len(), |orig| {
                t_inv.mul_vec_into(j, orig);
                f(orig)
            }),
            _ => f(j),
        }
    }
}

impl Kernel for TkKernel {
    fn width(&self) -> usize {
        self.width
    }

    fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
        self.at(&self.body, j, |j| self.body.eval(j, reads, out));
    }

    fn initial(&self, j: &[i64], out: &mut [f64]) {
        self.at(&self.init, j, |j| self.init.eval(j, &[], out));
    }

    /// The init tape's lane blocks over the run, as [`Kernel::compute_run`]
    /// runs the body's; below [`MIN_BATCH`] points, per-point `initial`.
    fn initial_run(&self, j0: &[i64], dj: &[i64], count: usize, out: &mut [f64]) {
        if count < MIN_BATCH as usize {
            return initial_points(self, j0, dj, count, out);
        }
        self.at(&self.init, j0, |j0| {
            self.at(&self.init, dj, |dj| {
                BLOCKS.with(|s| {
                    self.init
                        .eval_run(j0, dj, count, &[], &mut s.borrow_mut(), out);
                })
            })
        });
    }

    fn compute_run(&self, j0: &[i64], dj: &[i64], count: usize, reads: &[f64], out: &mut [f64]) {
        if count == 0 {
            return;
        }
        // T⁻¹ is linear, so the skewed run is an affine run in original
        // coordinates too: T⁻¹(j0 + p·dj) = T⁻¹j0 + p·(T⁻¹dj), exactly.
        self.at(&self.body, j0, |j0| {
            self.at(&self.body, dj, |dj| {
                BLOCKS.with(|s| {
                    self.body
                        .eval_run(j0, dj, count, reads, &mut s.borrow_mut(), out);
                })
            })
        });
    }
}

/// Lower a parsed program into an [`Algorithm`]. A declared skew `T` skews
/// the nest, and the kernel maps each point back through `T⁻¹` wherever a
/// tape reads coordinates.
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

    let mut body = TapeBuilder::new(p.width());
    for (_, e) in &p.lets {
        let arg = body.emit(e);
        body.let_args.push(arg);
    }
    let mut outputs = vec![Arg::Const(0.0); p.width()];
    for s in &p.stmts {
        outputs[s.array] = body.emit(&s.rhs);
    }
    let body = body.finish(outputs);

    let mut init = TapeBuilder::new(p.width());
    let init_outputs: Vec<Arg> = p.arrays.iter().map(|a| init.emit(&a.init)).collect();
    let init = init.finish(init_outputs);

    let mut nest = LoopNest::new(space, deps);
    let mut name = p.name.clone();
    let t_inv = p.skew.as_ref().map(|rows| {
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let t = IMat::from_rows(&refs);
        nest = nest.skew(&t);
        name.push_str("-skewed");
        t.inverse().to_imat()
    });
    let kernel = Arc::new(TkKernel {
        width: p.width(),
        body,
        init,
        t_inv,
    });
    Algorithm::new(name, nest, kernel)
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
