//! # tilecc
//!
//! End-to-end Rust reproduction of *"Compiling Tiled Iteration Spaces for
//! Clusters"* (Goumas, Drosinos, Athanasaki, Koziris — IEEE CLUSTER 2002):
//! a complete framework that takes a perfectly nested loop with uniform
//! dependencies and a **general parallelepiped tiling transformation** and
//! generates data-parallel message-passing code for a cluster.
//!
//! ```
//! use tilecc::{Pipeline, matrices};
//! use tilecc_frontend::{compile_kernel_with, corpus};
//! use tilecc_cluster::{EngineOptions, MachineModel};
//! use tilecc_parcode::{Backend, ExecStrategy};
//!
//! // Skewed SOR (examples/kernels/sor.tk) at M=4, N=6, non-rectangular
//! // tiling from the tiling cone (§4.1).
//! let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
//! let pipe = Pipeline::compile(alg, matrices::sor_nr(2, 3, 3), Some(2)).unwrap();
//! let (summary, _data) = pipe
//!     .run_verified(
//!         MachineModel::fast_ethernet_p3(),
//!         ExecStrategy::Compiled,
//!         Backend::Threaded,
//!         EngineOptions::default(),
//!     )
//!     .expect("the run completes");
//! assert_eq!(summary.verified, Some(true));
//! ```
//!
//! The crates underneath (re-exported here) implement every substrate from
//! scratch: exact rational linear algebra and Hermite Normal Forms
//! (`tilecc-linalg`), Fourier–Motzkin elimination (`tilecc-polytope`), the
//! loop-nest model (`tilecc-loopnest`), the `.tk` kernel DSL whose corpus
//! defines the paper's three kernels (`tilecc-frontend`), the tiling
//! machinery (`tilecc-tiling`), an in-process message-passing cluster with
//! virtual-time simulation (`tilecc-cluster`), and the SPMD program
//! generator/executor plus a C/MPI emitter (`tilecc-parcode`).

pub mod analysis;
pub mod experiments;
pub mod matrices;
pub mod pipeline;
pub mod predictor;
pub mod tune;

pub use experiments::{measure, probe_procs, MeasuredPoint, Variant, Workload};
pub use pipeline::{verify_against_sequential, Pipeline, RunSummary};
pub use predictor::{predict, predicted_comm_volume, SchedulePrediction};
pub use tune::{
    enumerate_candidates, tune, tune_labeled, TuneOptions, TuneOutcome, TunedCandidate,
};

// Convenience re-exports of the substrate crates.
pub use tilecc_cluster as cluster;
pub use tilecc_linalg as linalg;
pub use tilecc_loopnest as loopnest;
pub use tilecc_parcode as parcode;
pub use tilecc_polytope as polytope;
pub use tilecc_tiling as tiling;
