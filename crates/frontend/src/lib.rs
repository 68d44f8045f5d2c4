//! # tilecc-frontend
//!
//! Textual frontend for the `tilecc` framework: the `.tk` **kernel DSL**
//! (module [`tk`]), which describes a uniform-dependence loop nest in the
//! paper's program model (§2.1) and lowers it into an executable
//! [`Algorithm`](tilecc_loopnest::Algorithm).
//!
//! ```text
//! # Jacobi (paper §4.2), with its skewing matrix.
//! kernel jacobi
//! param T = 50
//! param N = 100
//! iter t = 1 to T
//! iter i = 1 to N
//! iter j = 1 to N
//! skew = [1,0,0; 1,1,0; 1,0,1]
//! array A = 1.0
//! A[t,i,j] = 0.25*(A[t-1,i-1,j] + A[t-1,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1])
//! ```
//!
//! [`parse_kernel`] validates the source (affine `max`/`min` bounds, one
//! statement per array, uniform lexicographically-positive dependencies,
//! identity write references, a unimodular skew) into a [`KernelProgram`];
//! [`compile_kernel`] also lowers it, and [`compile_kernel_with`] first
//! overrides `param` values by name — the way every caller sizes the
//! paper's kernels, whose sources live in [`corpus`]. Kernels may declare several arrays
//! with per-array initial expressions, `let` bindings, the `bnd()`/`mod()`
//! builtins and a pinned dependence order; errors are source-located
//! (`line:col` + caret). [`KernelProgram::c_expr`] renders expressions as
//! C for the emitted MPI program. See `docs/kernel-dsl.md` for the
//! language reference.

pub mod corpus;
#[cfg(test)]
mod kernels;
pub mod tk;

pub use tk::{compile_kernel, compile_kernel_with, parse_kernel, KernelProgram, TkError};
