//! The end-to-end compilation pipeline: algorithm + tiling matrix →
//! validated plan → SPMD execution on the cluster substrate → verified
//! results and simulated timings.

use std::sync::Arc;
use tilecc_cluster::{CommScheme, EngineOptions, MachineModel, MetricsRegistry, Phase, RunError};
use tilecc_linalg::RMat;
use tilecc_loopnest::{Algorithm, DataSpace};
use tilecc_parcode::{
    execute, execute_backend, execute_opts, execute_strategy, Backend, ExecMode, ExecStrategy,
    ExecutionResult, ParallelPlan,
};
use tilecc_tiling::{TilingError, TilingTransform};

/// High-level driver for one (algorithm, tiling) pair.
pub struct Pipeline {
    plan: Arc<ParallelPlan>,
}

/// Summary of one parallel run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Number of processors the plan distributed tiles over.
    pub procs: usize,
    /// Total iterations executed (equals `|J^n|`).
    pub iterations: u64,
    /// Simulated sequential time on the model.
    pub sequential_time: f64,
    /// Simulated parallel completion time.
    pub makespan: f64,
    /// `sequential_time / makespan`.
    pub speedup: f64,
    /// Total bytes sent across all ranks.
    pub bytes: u64,
    /// Total messages sent across all ranks.
    pub messages: u64,
    /// Whether the gathered result matched the sequential execution
    /// (`None` for timing-only runs).
    pub verified: Option<bool>,
    /// Transmission attempts repeated by the reliability layer (0 unless
    /// fault injection was enabled).
    pub retransmissions: u64,
    /// Messages discarded by receiver-side duplicate suppression.
    pub duplicates_suppressed: u64,
    /// Checkpoint restores performed across all ranks (0 unless a crash
    /// was recovered under a [`tilecc_cluster::threaded::RecoveryOptions`]
    /// policy).
    pub recoveries: u64,
    /// Virtual seconds charged to crash recovery across all ranks; the
    /// makespan minus each rank's share reproduces the fault-free clocks
    /// bitwise.
    pub recovery_time: f64,
    /// Per-rank final virtual clocks (feeds the observability
    /// [`tilecc_cluster::obs::RunReport`]).
    pub local_times: Vec<f64>,
}

impl Pipeline {
    /// Compile `algorithm` under the tiling matrix `h`, mapping along `m`
    /// (`None` = longest dimension).
    pub fn compile(algorithm: Algorithm, h: RMat, m: Option<usize>) -> Result<Self, TilingError> {
        let transform = TilingTransform::new(h)?;
        Self::compile_transform(algorithm, transform, m)
    }

    /// Compile with an already-built transformation.
    pub fn compile_transform(
        algorithm: Algorithm,
        transform: TilingTransform,
        m: Option<usize>,
    ) -> Result<Self, TilingError> {
        Self::compile_observed(algorithm, transform, m, None)
    }

    /// [`Pipeline::compile_transform`] recording plan-construction and
    /// chain-lowering spans into an observability registry.
    pub fn compile_observed(
        algorithm: Algorithm,
        transform: TilingTransform,
        m: Option<usize>,
        obs: Option<&MetricsRegistry>,
    ) -> Result<Self, TilingError> {
        let plan = ParallelPlan::new_observed(algorithm, transform, m, obs)?;
        Ok(Pipeline {
            plan: Arc::new(plan),
        })
    }

    /// The underlying plan.
    pub fn plan(&self) -> &Arc<ParallelPlan> {
        &self.plan
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.plan.num_procs()
    }

    /// Run in timing-only mode: no values computed, exact virtual times.
    pub fn simulate(&self, model: MachineModel) -> RunSummary {
        let res = execute(self.plan.clone(), model, ExecMode::TimingOnly);
        self.summarize(&res, &model, None)
    }

    /// Timing-only run with an explicit communication scheme
    /// ([`CommScheme::Overlapped`] models the paper's future-work
    /// computation/communication overlapping).
    pub fn simulate_with(&self, model: MachineModel, scheme: CommScheme) -> RunSummary {
        let res =
            tilecc_parcode::execute_with(self.plan.clone(), model, ExecMode::TimingOnly, scheme);
        self.summarize(&res, &model, None)
    }

    /// Timing-only run with full engine options (fault injection, recovery,
    /// observability) — the fallible counterpart of [`Pipeline::simulate`].
    pub fn simulate_opts(
        &self,
        model: MachineModel,
        options: EngineOptions,
    ) -> Result<RunSummary, RunError> {
        let res = execute_opts(self.plan.clone(), model, ExecMode::TimingOnly, options)?;
        Ok(self.summarize(&res, &model, None))
    }

    /// Timing-only run under an explicit [`ExecStrategy`] —
    /// [`ExecStrategy::Overlapped`] computes each tile's boundary slab
    /// first, posts its sends on the NIC lane, and hides them behind the
    /// private interior.
    pub fn simulate_strategy(
        &self,
        model: MachineModel,
        strategy: ExecStrategy,
        options: EngineOptions,
    ) -> Result<RunSummary, RunError> {
        let res = execute_strategy(
            self.plan.clone(),
            model,
            ExecMode::TimingOnly,
            strategy,
            options,
        )?;
        Ok(self.summarize(&res, &model, None))
    }

    /// Timing-only run under an explicit cluster [`Backend`]
    /// ([`Backend::Tcp`] carries every message over real sockets; the
    /// virtual times are identical to the threaded backend's).
    pub fn simulate_backend(
        &self,
        model: MachineModel,
        strategy: ExecStrategy,
        backend: Backend,
        options: EngineOptions,
    ) -> Result<RunSummary, RunError> {
        let res = execute_backend(
            self.plan.clone(),
            model,
            ExecMode::TimingOnly,
            strategy,
            backend,
            options,
        )?;
        Ok(self.summarize(&res, &model, None))
    }

    /// Full run under an explicit [`ExecStrategy`], verified bitwise
    /// against the sequential reference execution.
    pub fn run_verified_strategy(
        &self,
        model: MachineModel,
        strategy: ExecStrategy,
        options: EngineOptions,
    ) -> Result<(RunSummary, DataSpace), RunError> {
        self.run_verified_backend(model, strategy, Backend::default(), options)
    }

    /// [`Pipeline::run_verified_strategy`] with an explicit cluster
    /// [`Backend`]: the gathered data must match the sequential reference
    /// bitwise no matter which substrate carried the messages.
    pub fn run_verified_backend(
        &self,
        model: MachineModel,
        strategy: ExecStrategy,
        backend: Backend,
        options: EngineOptions,
    ) -> Result<(RunSummary, DataSpace), RunError> {
        let obs = options.obs.clone();
        let res = execute_backend(
            self.plan.clone(),
            model,
            ExecMode::Full,
            strategy,
            backend,
            options,
        )?;
        let parallel = res.data.as_ref().expect("full mode returns data");
        let verified = verify_against_sequential(&self.plan, parallel, obs.as_deref());
        let summary = self.summarize(&res, &model, Some(verified));
        Ok((summary, res.data.unwrap()))
    }

    /// Run fully and verify the gathered data against the sequential
    /// reference execution (bitwise).
    ///
    /// # Panics
    /// Propagates failed runs as panics — [`Pipeline::run_verified_opts`]
    /// reports them as [`RunError`]s instead.
    pub fn run_verified(&self, model: MachineModel) -> (RunSummary, DataSpace) {
        self.run_verified_opts(model, EngineOptions::default())
            .unwrap_or_else(|e| panic!("pipeline run failed: {e}"))
    }

    /// [`Pipeline::run_verified`] with full engine options — the entry point
    /// for fault-injected runs: engine failures (a crashed rank, a deadlock,
    /// an unreachable peer) are reported as [`RunError`]s, and the summary
    /// carries the reliability layer's retransmission counters.
    pub fn run_verified_opts(
        &self,
        model: MachineModel,
        options: EngineOptions,
    ) -> Result<(RunSummary, DataSpace), RunError> {
        self.run_verified_strategy(model, ExecStrategy::default(), options)
    }

    fn summarize(
        &self,
        res: &ExecutionResult,
        model: &MachineModel,
        verified: Option<bool>,
    ) -> RunSummary {
        let sequential_time = model.compute_cost(res.total_iterations);
        let makespan = res.makespan();
        RunSummary {
            procs: self.plan.num_procs(),
            iterations: res.total_iterations,
            sequential_time,
            makespan,
            speedup: sequential_time / makespan,
            bytes: res.report.total_bytes(),
            messages: res.report.total_messages(),
            verified,
            retransmissions: res.report.total_retransmissions(),
            duplicates_suppressed: res.report.total_duplicates_suppressed(),
            recoveries: res.report.total_recoveries(),
            recovery_time: res.report.total_recovery_time(),
            local_times: res.report.local_times.clone(),
        }
    }
}

/// Run the plan's algorithm sequentially and compare it bitwise with the
/// gathered `parallel` data, recording the whole step (the sequential scan
/// plus the diff) as one `verify` driver span when `obs` is given. Shared
/// by in-process runs and the multi-process driver. The sequential side is
/// the run-based [`Algorithm::execute_scan`](tilecc_loopnest::Algorithm::execute_scan),
/// which tests and the fuzzer hold bitwise equal to the per-point oracle
/// `execute_sequential`.
pub fn verify_against_sequential(
    plan: &ParallelPlan,
    parallel: &DataSpace,
    obs: Option<&MetricsRegistry>,
) -> bool {
    let t0 = obs.map(|r| r.now_ns());
    let verified = plan.algorithm.execute_scan().diff(parallel).is_none();
    if let (Some(reg), Some(t0)) = (obs, t0) {
        reg.driver_span(Phase::Verify, "verify", t0, parallel.num_written() as u64);
    }
    verified
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilecc_frontend::{compile_kernel_with, corpus};

    #[test]
    fn pipeline_runs_and_verifies_sor() {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let h = RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 3), (0, 1)],
            &[(-1, 3), (0, 1), (1, 3)],
        ]);
        let pipe = Pipeline::compile(alg, h, Some(2)).unwrap();
        let (summary, _data) = pipe.run_verified(MachineModel::fast_ethernet_p3());
        assert_eq!(summary.verified, Some(true));
        assert_eq!(summary.iterations, 4 * 6 * 6);
        assert!(summary.speedup > 0.0);
        assert!(summary.makespan > 0.0);
    }

    #[test]
    fn simulate_reports_consistent_speedup() {
        let alg = compile_kernel_with(corpus::ADI, &[("T", 8), ("N", 12)]).unwrap();
        let pipe = Pipeline::compile_transform(
            alg,
            tilecc_tiling::TilingTransform::rectangular(&[2, 6, 6]).unwrap(),
            Some(0),
        )
        .unwrap();
        let model = MachineModel::zero_comm(1e-6);
        let s = pipe.simulate(model);
        assert!(s.verified.is_none());
        assert!((s.sequential_time - 8.0 * 12.0 * 12.0 * 1e-6).abs() < 1e-12);
        // With zero communication cost, speedup cannot exceed proc count but
        // must show real parallelism for this wavefront.
        assert!(s.speedup > 1.0, "speedup = {}", s.speedup);
        assert!(s.speedup <= s.procs as f64 + 1e-9);
    }

    #[test]
    fn faulty_pipeline_still_verifies() {
        use tilecc_cluster::FaultPlan;
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let pipe = Pipeline::compile_transform(
            alg,
            tilecc_tiling::TilingTransform::rectangular(&[2, 3, 3]).unwrap(),
            Some(2),
        )
        .unwrap();
        let options = EngineOptions {
            fault: Some(FaultPlan::chaos(11, 0.2)),
            ..EngineOptions::default()
        };
        let (summary, _) = pipe
            .run_verified_opts(MachineModel::fast_ethernet_p3(), options)
            .unwrap();
        assert_eq!(
            summary.verified,
            Some(true),
            "reliability layer must preserve results"
        );
        assert!(
            summary.retransmissions > 0,
            "drops must surface in the summary"
        );
    }

    #[test]
    fn overlapped_strategy_through_pipeline() {
        let alg = compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 8)]).unwrap();
        let pipe = Pipeline::compile_transform(
            alg,
            tilecc_tiling::TilingTransform::rectangular(&[2, 4, 4]).unwrap(),
            Some(0),
        )
        .unwrap();
        let model = MachineModel::fast_ethernet_p3();
        let (summary, _) = pipe
            .run_verified_strategy(model, ExecStrategy::Overlapped, EngineOptions::default())
            .unwrap();
        assert_eq!(summary.verified, Some(true));
        let blocking = pipe
            .simulate_strategy(model, ExecStrategy::Compiled, EngineOptions::default())
            .unwrap();
        let overlapped = pipe
            .simulate_strategy(model, ExecStrategy::Overlapped, EngineOptions::default())
            .unwrap();
        assert!(
            overlapped.makespan <= blocking.makespan + 1e-12,
            "overlapped {} vs blocking {}",
            overlapped.makespan,
            blocking.makespan
        );
        assert_eq!(overlapped.bytes, blocking.bytes);
        assert_eq!(overlapped.messages, blocking.messages);
    }

    #[test]
    fn emit_c_through_pipeline() {
        let alg = compile_kernel_with(corpus::JACOBI, &[("T", 3), ("N", 4)]).unwrap();
        let pipe = Pipeline::compile_transform(
            alg,
            tilecc_tiling::TilingTransform::rectangular(&[2, 3, 3]).unwrap(),
            Some(0),
        )
        .unwrap();
        let body = "0.25 * (read[0] + read[1] + read[2] + read[3])";
        let code = tilecc_parcode::emit_c_program(
            pipe.plan(),
            &tilecc_parcode::KernelSource {
                body: vec![body.into()],
                boundary: vec!["1.0".into()],
                ..Default::default()
            },
        );
        assert!(code.contains("MPI_Send"));
        assert!(code.contains(&format!("out[0] = {body};")));
    }
}
