//! # tilecc-parcode
//!
//! Data-parallel code generation (§3 of *"Compiling Tiled Iteration Spaces
//! for Clusters"*): the compile-time [`ParallelPlan`], the executable SPMD
//! program ([`execute`]) running the paper's RECEIVE → compute → SEND
//! skeleton on the in-process cluster substrate, and a C/MPI source emitter
//! mirroring the code the paper's tool generated.

pub mod compiled;
pub mod emitter_full;
pub mod executor;
pub mod plan;
pub mod seqtiled;

pub use compiled::CompiledChain;
pub use emitter_full::{emit_c_program, KernelSource};
pub use executor::{
    execute, rank_data_points, run_rank, Backend, ExecMode, ExecStrategy, ExecutionResult,
    RankOutput,
};
pub use plan::{unrolled_of, ParallelPlan};
pub use seqtiled::execute_tiled_sequential;
