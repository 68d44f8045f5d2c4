//! # tilecc-cluster
//!
//! The execution substrate replacing the paper's 16-node Pentium-III /
//! FastEthernet MPI cluster: an in-process message-passing engine with one
//! thread per logical process, FIFO point-to-point channels, and a virtual
//! clock per process driven by a linear [`MachineModel`].
//!
//! Because the SPMD programs generated by `tilecc-parcode` only use blocking
//! point-to-point receives, runs are functionally deterministic: the same
//! program yields bit-identical data and virtual times regardless of OS
//! scheduling. One run therefore provides both the computed result (for
//! correctness checks against the sequential executor) and the simulated
//! parallel completion time (for reproducing the paper's speedup figures).

//!
//! The substrate is hardened against an imperfect world: communication is
//! fallible ([`CommError`]), rank panics are contained and reported as
//! [`RunError::RankPanicked`], a watchdog turns cyclic schedules into
//! [`RunError::Deadlock`] instead of hangs, and a seeded [`FaultPlan`] can
//! inject deterministic link faults that a reliability sublayer (sequence
//! numbers, duplicate suppression, retransmission) masks without changing
//! computed data.
//!
//! The contract is implemented once, by the rank core ([`rank`]): one
//! [`rank::RankCore`] per rank owns the virtual clock, statistics,
//! reliability, fault and recovery state over a small transport link. Two
//! engines supply links: the threaded substrate ([`threaded`]) runs every
//! rank as a thread over in-process channels, while the TCP backend
//! ([`tcp`]) runs ranks over real sockets — in threads or in separate
//! worker processes — serializing every message through the [`wire`]
//! format. Both produce bitwise-identical data and identical virtual clocks
//! for the same program.

#![warn(missing_docs)]

pub mod comm;
pub mod error;
pub mod fault;
pub mod model;
pub mod obs;
pub mod rank;
pub mod reliability;
pub mod tcp;
pub mod threaded;
pub mod wire;

pub use comm::{Comm, CommAbort, CommStats, Envelope, Restored};
pub use error::{CommError, RunError};
pub use fault::{FaultPlan, RankCrash, RankStall};
pub use model::MachineModel;
// `obs::RunReport` (the aggregated metrics report) stays behind its module
// path — the crate-root `RunReport` is the engine's per-run result below.
pub use obs::{
    critical_path_from_spans, Counter, CriticalHop, CriticalPath, ExportClock, GaugeId, HistId,
    HistSnapshot, MetricsRegistry, Phase, RankObs, SpanEdge, StatsSnapshot, VirtAcc,
};
pub use tcp::{
    collect_workers, run_cluster_tcp, run_worker, RankTelemetry, Rendezvous, TcpComm,
    TelemetryObserver, WorkerCkptConfig, WorkerConfig, WorkerHandle, WorkerReport,
};
pub use threaded::{
    run_cluster, CommScheme, EngineOptions, InjectedCrash, RankPhase, RecoveryOptions, RunReport,
    ThreadedComm,
};
pub use wire::{Frame, FrameKind, WireError};
