//! # tilecc-linalg
//!
//! Exact integer/rational linear algebra for the `tilecc` compiler framework —
//! a Rust reproduction of *"Compiling Tiled Iteration Spaces for Clusters"*
//! (Goumas, Drosinos, Athanasaki, Koziris; IEEE CLUSTER 2002).
//!
//! The paper's machinery is built on a handful of exact linear-algebra
//! primitives, all provided here:
//!
//! * [`Rational`] — exact rational arithmetic (the tiling matrix `H` has
//!   fractional entries such as `1/x`).
//! * [`IMat`] / [`RMat`] — small dense integer and rational matrices with
//!   exact determinants, products, and inverses (`P = H⁻¹`, `P' = H'⁻¹`).
//! * [`column_hnf`] — the column-style Hermite Normal Form `H̃'` of
//!   `H' = V·H`, from which loop strides `c_k = h̃'_kk` and incremental
//!   offsets `a_kl = h̃'_kl` are read off (§2.3 of the paper).
//! * [`Lattice`] — the column lattice of `H'` (the set of TTIS points) with
//!   strided enumeration inside boxes, equivalent to the paper's generated
//!   loops with non-unit `STEP`s.

pub mod hnf;
pub mod imat;
pub mod lattice;
pub mod rational;
pub mod rmat;
pub mod vecops;

pub use hnf::{column_hnf, is_column_hnf, HnfResult};
pub use imat::IMat;
pub use lattice::{Lattice, LatticeBoxIter};
pub use rational::{gcd_i128, lcm_i128, Rational};
pub use rmat::RMat;
