//! # tilecc-loopnest
//!
//! The algorithm model of *"Compiling Tiled Iteration Spaces for Clusters"*
//! (CLUSTER 2002): perfectly nested FOR-loops over convex iteration spaces
//! with uniform constant dependencies (§2.1), unimodular skewing and a
//! sequential reference executor. The paper's evaluation kernels (SOR,
//! Jacobi, ADI integration — §4) are `.tk` sources compiled by
//! `tilecc-frontend`.

pub mod data;
pub mod kernel;
pub mod nest;
mod scan;
pub mod stretch;

pub use data::DataSpace;
pub use kernel::{Algorithm, Kernel};
pub use nest::{CountError, LoopNest};
