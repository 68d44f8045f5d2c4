//! # tilecc-polytope
//!
//! Convex iteration spaces for the `tilecc` compiler framework — affine
//! inequality systems, exact Fourier–Motzkin elimination, loop-bound
//! extraction, and lexicographic integer-point scanning.
//!
//! The paper (*"Compiling Tiled Iteration Spaces for Clusters"*, CLUSTER
//! 2002, §2.1) works with iteration spaces defined as bisections of finitely
//! many half-spaces of `Zⁿ`, with loop bounds of the form
//! `l_k = max(⌈f_k1⌉, …)` and `u_k = min(⌊g_k1⌋, …)` in the outer variables.
//! [`Polyhedron`] is that representation; [`LoopNestBounds`] is the
//! compile-time bound computation; [`PointIter`] is the executable loop nest;
//! [`Clamp`] holds the space's constraints as integer residuals, which clip
//! a line of iterations to its interval inside the space and test a box's
//! corners.

pub mod clamp;
pub mod constraint;
pub mod error;
pub mod polyhedron;

pub use clamp::{Clamp, TileClamp};
pub use constraint::Constraint;
pub use error::PolytopeError;
pub use polyhedron::{LoopNestBounds, PointIter, Polyhedron, RunIter};
