//! # The `.tk` kernel DSL
//!
//! A tiny textual language for *arbitrary* uniform-dependence stencils —
//! the general input class of the paper's program model (§2.1), of which
//! the paper's own workloads ([`crate::corpus`]) are instances. A kernel declares iteration bounds, written
//! arrays with deterministic initial (boundary) expressions, optional
//! skewing and an optional pinned dependence order, and one update
//! statement per array:
//!
//! ```text
//! # 1-D heat equation, skewed for rectangular tiling.
//! kernel heat
//! param T = 8
//! param N = 40
//! iter t = 1 to T
//! iter i = 1 to N
//! skew = [1,0; 1,1]
//! array A = bnd()
//! A[t,i] = A[t-1,i] + 0.25*(A[t-1,i-1] - 2*A[t-1,i] + A[t-1,i+1])
//! ```
//!
//! Every array read at a constant offset becomes a column of the dependence
//! matrix `D`; non-uniform accesses (`A[2*t,i]`, `A[t,s]`) are rejected with
//! source-located errors ([`TkError`] renders `file:line:col` plus a caret
//! snippet). Lowering produces a standard
//! [`Algorithm`](tilecc_loopnest::Algorithm) whose generated
//! [`Kernel`](tilecc_loopnest::Kernel) evaluates a flat
//! instruction tape; its `compute_run` batch entry is bitwise identical to
//! the per-point path, so DSL kernels run unchanged on every backend and
//! strategy. See `docs/kernel-dsl.md` for the full language reference.

pub mod ast;
pub mod error;
pub mod lex;
pub mod lower;
pub mod parse;

pub use ast::{AffForm, ArrayDecl, KernelProgram, Stmt, TkExpr, TkLoop};
pub use error::TkError;
pub use lower::{compile_kernel, compile_kernel_with, lower_kernel, TkKernel};
pub use parse::parse_kernel;
