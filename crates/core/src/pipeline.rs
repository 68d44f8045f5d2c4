//! The end-to-end compilation pipeline: algorithm + tiling matrix →
//! validated plan → SPMD execution on the cluster substrate → verified
//! results and simulated timings.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use tilecc_cluster::{
    spawn, CommError, Counter, EngineOptions, MachineModel, MetricsRegistry, Phase, RunError,
    StatsSnapshot,
};
use tilecc_linalg::RMat;
use tilecc_loopnest::{Algorithm, DataSpace};
use tilecc_parcode::{
    compare_in_place, execute, gather, run_ranks, Backend, ExecMode, ExecStrategy, ParallelPlan,
    RankOutput,
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

    /// Run in timing-only mode on the threaded engine: no values computed,
    /// exact virtual times. `strategy` picks the rank code path, and
    /// `options` the comm scheme (under
    /// [`tilecc_cluster::CommScheme::Overlapped`] the
    /// compiled strategy computes each tile's boundary slab first, posts
    /// its sends on the NIC lane and hides them behind the private
    /// interior), fault injection, recovery and observability. Engine failures come back as
    /// [`RunError`]s. (The in-process TCP substrate is reached through
    /// [`execute`] / [`run_ranks`] with [`Backend::Tcp`].)
    pub fn simulate(
        &self,
        model: MachineModel,
        strategy: ExecStrategy,
        options: EngineOptions,
    ) -> Result<RunSummary, RunError> {
        let res = execute(
            self.plan.clone(),
            model,
            ExecMode::TimingOnly,
            strategy,
            Backend::Threaded,
            options,
        )?;
        Ok(RunSummary::new(
            &model,
            &res.report.stats,
            res.report.local_times,
            res.total_iterations,
            None,
        ))
    }

    /// Run fully and verify the run's data bitwise against the sequential
    /// reference execution, no matter which strategy produced it, and
    /// return the data. The reference scan runs on its own thread
    /// alongside the ranks ([`Reference`]). The arguments are those of
    /// [`Pipeline::simulate`]; engine failures (a crashed rank, a deadlock)
    /// come back as [`RunError`]s, as does a refused
    /// start of the reference-scan thread (`Comm` on rank 0), and the summary
    /// carries the reliability layer's retransmission counters.
    pub fn run_verified(
        &self,
        model: MachineModel,
        strategy: ExecStrategy,
        options: EngineOptions,
    ) -> Result<(RunSummary, DataSpace), RunError> {
        let reference = Reference::start(&self.plan.algorithm, options.obs.clone())
            .map_err(|error| RunError::Comm { rank: 0, error })?;
        self.run_against(reference, model, strategy, options)
    }

    /// [`Pipeline::run_verified`] against a `reference` started earlier,
    /// such as right after the kernel was lowered, before this pipeline was
    /// compiled.
    pub fn run_against(
        &self,
        reference: Reference,
        model: MachineModel,
        strategy: ExecStrategy,
        options: EngineOptions,
    ) -> Result<(RunSummary, DataSpace), RunError> {
        let report = run_ranks(
            &self.plan,
            model,
            ExecMode::Full,
            strategy,
            Backend::Threaded,
            options,
        )?;
        let iterations = report.results.iter().map(|r| r.iterations).sum();
        let (verified, data) = reference.check(&self.plan, &report.results, strategy);
        let summary = RunSummary::new(
            &model,
            &report.stats,
            report.local_times,
            iterations,
            Some(verified),
        );
        Ok((summary, data))
    }
}

impl RunSummary {
    /// Summarize a run from its per-rank final metrics and virtual clocks
    /// (in rank order) and its total iteration count — the one summary of
    /// both the in-process engines and the multi-process TCP driver.
    /// `verified` is `None` for timing-only runs.
    pub fn new(
        model: &MachineModel,
        stats: &[StatsSnapshot],
        local_times: Vec<f64>,
        iterations: u64,
        verified: Option<bool>,
    ) -> RunSummary {
        let sequential_time = model.compute_cost(iterations);
        let makespan = local_times.iter().copied().fold(0.0, f64::max);
        let total = |c: Counter| stats.iter().map(|s| s.counter(c)).sum();
        RunSummary {
            procs: local_times.len(),
            iterations,
            sequential_time,
            makespan,
            speedup: sequential_time / makespan,
            bytes: total(Counter::BytesSent),
            messages: total(Counter::MessagesSent),
            verified,
            retransmissions: total(Counter::Retransmits),
            duplicates_suppressed: total(Counter::DupsSuppressed),
            recoveries: total(Counter::Recoveries),
            recovery_time: stats.iter().map(StatsSnapshot::recovery_time).sum(),
            local_times,
        }
    }
}

/// The sequential reference of a parallel run: the algorithm scanned on a
/// thread of its own, named `reference-scan`, so the scan overlaps the
/// planning and the parallel run instead of following them. Shared by
/// in-process runs and the multi-process driver. The scan is the run-based
/// [`Algorithm::execute_scan`](tilecc_loopnest::Algorithm::execute_scan),
/// which tests and the fuzzer hold bitwise equal to the per-point oracle
/// `execute_sequential`.
///
/// The scan reads only the algorithm, so it can start as soon as the
/// kernel is lowered, before the plan is built. Dropping a `Reference`
/// without [`Reference::check`] (the plan was refused or the run failed)
/// does not wait for the scan: it sets the scan's cancel flag, the scan
/// stops before its next row, and its data is discarded.
pub struct Reference {
    /// The scan's data space and its number of written cells; `None` once
    /// [`Reference::check`] took it, or from a cancelled scan.
    scan: Option<JoinHandle<Option<(DataSpace, usize)>>>,
    cancel: Arc<AtomicBool>,
    obs: Option<Arc<MetricsRegistry>>,
}

impl Reference {
    /// Start the scan of `alg`. With `obs`, the scan records a `verify`
    /// driver span from this call to the scan's end; its start is taken
    /// before the thread is spawned, so it precedes every span recorded
    /// afterwards. A thread the system refuses is a
    /// [`CommError::Transport`].
    pub fn start(
        alg: &Algorithm,
        obs: Option<Arc<MetricsRegistry>>,
    ) -> Result<Reference, CommError> {
        let t0 = obs.as_ref().map(|r| r.now_ns());
        let (alg, reg) = (alg.clone(), obs.clone());
        let cancel = Arc::new(AtomicBool::new(false));
        let stop = cancel.clone();
        let builder = std::thread::Builder::new().name("reference-scan".into());
        let scan = spawn(builder, "reference-scan", move || {
            let ds = alg.execute_scan_unless(&stop)?;
            let written = ds.num_written();
            if let (Some(reg), Some(t0)) = (reg, t0) {
                reg.driver_span(Phase::Verify, "verify", t0, written as u64);
            }
            Some((ds, written))
        })?;
        Ok(Reference {
            scan: Some(scan),
            cancel,
            obs,
        })
    }

    /// Wait for the scan and compare the finished run's rank outputs
    /// `results` with it bitwise; return the verdict and the run's data.
    ///
    /// The compiled strategies compare each rank's owned cells in place
    /// ([`compare_in_place`]). When they all match, the gathered data
    /// would equal the scan's bit for bit, so the scan's data space is
    /// returned. On any mismatch, and always under
    /// [`ExecStrategy::Reference`], whose per-point gather stays
    /// independent of the compiled rows, the outputs are gathered
    /// ([`gather`]) and diffed, and the gathered data is returned.
    ///
    /// The wait plus the compare (and any gather and diff after it) is a
    /// `verify-diff` driver span: the part of the verification the run did
    /// not hide. The reference strategy gathers before it waits, as the
    /// scan may still run. A panic in the scan is re-raised on the calling
    /// thread.
    pub fn check(
        mut self,
        plan: &ParallelPlan,
        results: &[RankOutput],
        strategy: ExecStrategy,
    ) -> (bool, DataSpace) {
        let obs = self.obs.clone();
        let obs = obs.as_deref();
        let gathered =
            (strategy == ExecStrategy::Reference).then(|| gather(plan, results, strategy, obs));
        let t0 = obs.map(|r| r.now_ns());
        let scan = self.scan.take().expect("a reference is checked once");
        let (reference, written) = scan
            .join()
            .unwrap_or_else(|p| resume_unwind(p))
            .expect("only a dropped reference cancels its scan");
        let (verified, data) = match gathered {
            None if compare_in_place(plan, results, &reference, written, obs) => (true, reference),
            gathered => {
                let parallel = gathered.unwrap_or_else(|| gather(plan, results, strategy, obs));
                (reference.diff(&parallel).is_none(), parallel)
            }
        };
        if let (Some(reg), Some(t0)) = (obs, t0) {
            let cells = data.num_written() as u64;
            reg.driver_span(Phase::VerifyDiff, "verify-diff", t0, cells);
        }
        (verified, data)
    }
}

impl Drop for Reference {
    /// An unchecked reference stops its scan before the scan's next row.
    fn drop(&mut self) {
        if self.scan.is_some() {
            self.cancel.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilecc_cluster::CommScheme;
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
        let (summary, _data) = pipe
            .run_verified(
                MachineModel::fast_ethernet_p3(),
                ExecStrategy::Compiled,
                EngineOptions::default(),
            )
            .unwrap();
        assert_eq!(summary.verified, Some(true));
        assert_eq!(summary.iterations, 4 * 6 * 6);
        assert!(summary.speedup > 0.0);
        assert!(summary.makespan > 0.0);
    }

    /// Wraps a kernel and, on the `reference-scan` thread only, applies
    /// `on_scan` at the nest point `at`: a scan that diverges from the
    /// parallel run, panics, or blocks, without touching the ranks.
    struct OnScan {
        inner: Arc<dyn tilecc_loopnest::Kernel>,
        at: Vec<i64>,
        on_scan: fn(&mut [f64]),
    }

    impl tilecc_loopnest::Kernel for OnScan {
        fn width(&self) -> usize {
            self.inner.width()
        }
        fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
            self.inner.compute(j, reads, out);
            if j == self.at.as_slice() && std::thread::current().name() == Some("reference-scan") {
                (self.on_scan)(out);
            }
        }
        fn initial(&self, j: &[i64], out: &mut [f64]) {
            self.inner.initial(j, out);
        }
    }

    /// Skewed SOR (4×6×6, 2×3×3 tiles along dimension 2) whose kernel
    /// applies `on_scan` at its first point on the scan thread.
    fn sor_pipeline(on_scan: fn(&mut [f64])) -> Pipeline {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let kernel = Arc::new(OnScan {
            inner: alg.kernel.clone(),
            at: vec![1, 2, 3],
            on_scan,
        });
        let alg = Algorithm::new(alg.name, alg.nest, kernel);
        let rect = tilecc_tiling::TilingTransform::rectangular(&[2, 3, 3]).unwrap();
        Pipeline::compile_transform(alg, rect, Some(2)).unwrap()
    }

    /// The rank outputs of a full compiled run, owned values included.
    fn rank_outputs(pipe: &Pipeline) -> Vec<RankOutput> {
        run_ranks(
            pipe.plan(),
            MachineModel::fast_ethernet_p3(),
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap()
        .results
    }

    fn check(pipe: &Pipeline, results: &[RankOutput], strategy: ExecStrategy) -> (bool, DataSpace) {
        Reference::start(&pipe.plan().algorithm, None)
            .unwrap()
            .check(pipe.plan(), results, strategy)
    }

    /// The coordinates of rank 0's first tile that computes a point.
    fn first_tile(plan: &ParallelPlan) -> Vec<i64> {
        let (lo_t, hi_t) = plan.dist.chains[0];
        let pid = &plan.dist.pids[0];
        (lo_t..=hi_t)
            .map(|t| tilecc_tiling::insert_at(pid, plan.m(), t))
            .find(|tile| plan.tiled.tile_iterations(tile).next().is_some())
            .expect("rank 0 computes a point")
    }

    /// Flip the lowest bit of the first value in rank 0's output: the cell
    /// it owns for the first point of its first tile.
    fn flip_owned_cell(results: &mut [RankOutput]) {
        let v = &mut results[0].values[0];
        *v = f64::from_bits(v.to_bits() ^ 1);
    }

    /// A run that verifies returns data equal to its gather; one flipped
    /// output bit fails the check, and the data returned is then the gather
    /// of the corrupted outputs, as a gather-then-diff check returns it.
    #[test]
    fn one_flipped_cell_fails_the_check() {
        let pipe = sor_pipeline(|_| {});
        let mut results = rank_outputs(&pipe);
        let gathered = |r: &[RankOutput]| gather(pipe.plan(), r, ExecStrategy::Compiled, None);
        let (ok, data) = check(&pipe, &results, ExecStrategy::Compiled);
        assert!(ok);
        assert_eq!(data.diff(&gathered(&results)), None);
        flip_owned_cell(&mut results);
        let (ok, data) = check(&pipe, &results, ExecStrategy::Compiled);
        assert!(!ok);
        let want = gathered(&results);
        assert_eq!(data.diff(&want), None);
        assert_eq!(data.checksum().to_bits(), want.checksum().to_bits());
        assert_eq!(data.bit_hash(), want.bit_hash());

        // A scan that computes one cell differently fails `run_verified`.
        let pipe = sor_pipeline(|out| out[0] += 1.0);
        let (summary, _) = pipe
            .run_verified(
                MachineModel::fast_ethernet_p3(),
                ExecStrategy::Compiled,
                EngineOptions::default(),
            )
            .unwrap();
        assert_eq!(summary.verified, Some(false));
    }

    /// The in-place compare fails a cell visited twice, a missing visit,
    /// and a cell the reference never wrote.
    #[test]
    fn the_in_place_compare_counts_every_cell_once() {
        let pipe = sor_pipeline(|_| {});
        let plan = pipe.plan();
        let results = rank_outputs(&pipe);
        let reference = plan.algorithm.execute_scan();
        let written = reference.num_written();
        assert!(compare_in_place(plan, &results, &reference, written, None));
        assert!(!compare_in_place(
            plan,
            &results,
            &reference,
            written + 1,
            None
        ));

        // Rank 0's first tile, compared twice into one bitset; its values
        // open the rank's output.
        let chain = plan.chain();
        let tile = first_tile(plan);
        let origin = plan.tiled.tile_origin(&tile);
        let tc = plan.clamp.at(&origin);
        let clamp = (!tc.interior()).then_some(&tc);
        let values = &results[0].values;
        let mut seen = vec![0u64; reference.num_cells().div_ceil(64)];
        let compare = |seen: &mut [u64], reference: &DataSpace| {
            tilecc_parcode::compiled::compare_tile(chain, values, &origin, clamp, reference, seen)
        };
        let points = plan.tiled.tile_iterations(&tile).count() as u64;
        assert_eq!(compare(&mut seen, &reference), Some(points));
        assert_eq!(compare(&mut seen, &reference), None, "a second visit");
        let (lo, hi) = plan.algorithm.nest.bounding_box();
        let empty = DataSpace::new(&lo, &hi);
        assert_eq!(compare(&mut vec![0; seen.len()], &empty), None, "unwritten");
    }

    #[test]
    fn a_panicking_scan_re_raises_on_the_caller() {
        let pipe = sor_pipeline(|_| panic!("scan kernel fault"));
        let results = rank_outputs(&pipe);
        let reference = Reference::start(&pipe.plan().algorithm, None).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reference.check(pipe.plan(), &results, ExecStrategy::Compiled)
        }))
        .expect_err("the scan's panic must reach check");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"scan kernel fault"));
    }

    #[test]
    fn dropping_an_unchecked_reference_does_not_wait_for_the_scan() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;
        static RELEASE: AtomicBool = AtomicBool::new(false);
        // The scan blocks at its first point until released.
        let pipe = sor_pipeline(|_| {
            while !RELEASE.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let reference = Reference::start(&pipe.plan().algorithm, None).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(reference);
            let _ = tx.send(());
        });
        let dropped = rx.recv_timeout(Duration::from_secs(30));
        RELEASE.store(true, Ordering::Release);
        assert!(
            dropped.is_ok(),
            "dropping the reference waited for its scan"
        );
    }

    #[test]
    fn dropping_an_unchecked_reference_cancels_its_scan() {
        use std::sync::atomic::AtomicUsize;
        use std::time::Duration;
        static RELEASE: AtomicBool = AtomicBool::new(false);
        static POINTS: AtomicUsize = AtomicUsize::new(0);
        // Counts the scan's points and blocks at the first until released.
        struct Counting(Arc<dyn tilecc_loopnest::Kernel>);
        impl tilecc_loopnest::Kernel for Counting {
            fn width(&self) -> usize {
                self.0.width()
            }
            fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
                if POINTS.fetch_add(1, Ordering::SeqCst) == 0 {
                    while !RELEASE.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                self.0.compute(j, reads, out);
            }
            fn initial(&self, j: &[i64], out: &mut [f64]) {
                self.0.initial(j, out);
            }
        }
        let alg = compile_kernel_with(corpus::SOR, &[("M", 6), ("N", 8)]).unwrap();
        let total = alg.nest.num_points().unwrap() as usize;
        let kernel = Arc::new(Counting(alg.kernel.clone()));
        let alg = Algorithm::new(alg.name, alg.nest, kernel);
        drop(Reference::start(&alg, None).unwrap());
        RELEASE.store(true, Ordering::Release);
        // The scan ends the rows it began, then stops.
        let mut seen = usize::MAX;
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = POINTS.load(Ordering::SeqCst);
            if now == seen {
                break;
            }
            seen = now;
        }
        assert!(seen < total, "a cancelled scan ran all {total} points");
    }

    #[test]
    fn run_verified_records_verify_before_the_ranks_and_verify_diff_after() {
        for strategy in [ExecStrategy::Compiled, ExecStrategy::Reference] {
            let pipe = sor_pipeline(|_| {});
            let reg = MetricsRegistry::new();
            let options = EngineOptions {
                obs: Some(reg.clone()),
                ..EngineOptions::default()
            };
            let (summary, _) = pipe
                .run_verified(MachineModel::fast_ethernet_p3(), strategy, options)
                .unwrap();
            assert_eq!(summary.verified, Some(true));
            let spans = reg.spans();
            let driver = |name: &str| {
                let mut it = spans.iter().filter(|s| s.pid == 0 && s.name == name);
                let s = it.next().unwrap_or_else(|| panic!("no `{name}` span"));
                assert!(it.next().is_none(), "two `{name}` spans");
                s.clone()
            };
            let (verify, diff) = (driver("verify"), driver("verify-diff"));
            let first_rank = spans
                .iter()
                .filter(|s| s.pid != 0)
                .map(|s| s.wall_start_ns)
                .min();
            assert!(verify.wall_start_ns <= first_rank.expect("rank spans"));
            assert!(diff.wall_start_ns >= first_rank.unwrap());
            assert!(diff.wall_end_ns >= verify.wall_end_ns);
            // One `gather` span per rank. The compiled strategy compares in
            // place, which needs the finished scan; the reference strategy
            // gathers first, while the scan may still run.
            let gathers: Vec<_> = spans
                .iter()
                .filter(|s| s.pid == 0 && s.name == "gather")
                .collect();
            assert_eq!(gathers.len(), pipe.num_procs(), "{strategy:?}");
            for g in gathers {
                if strategy == ExecStrategy::Reference {
                    assert!(
                        g.wall_end_ns <= diff.wall_start_ns,
                        "gathered after the wait"
                    );
                } else {
                    assert!(
                        g.wall_start_ns >= verify.wall_end_ns,
                        "compared before the scan"
                    );
                    assert!(g.wall_end_ns <= diff.wall_end_ns);
                }
            }
        }
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
        let s = pipe
            .simulate(model, ExecStrategy::Compiled, EngineOptions::default())
            .unwrap();
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
            .run_verified(
                MachineModel::fast_ethernet_p3(),
                ExecStrategy::Compiled,
                options,
            )
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
        let overlap = || EngineOptions {
            scheme: CommScheme::Overlapped,
            ..EngineOptions::default()
        };
        let (summary, _) = pipe
            .run_verified(model, ExecStrategy::Compiled, overlap())
            .unwrap();
        assert_eq!(summary.verified, Some(true));
        let blocking = pipe
            .simulate(model, ExecStrategy::Compiled, EngineOptions::default())
            .unwrap();
        let overlapped = pipe
            .simulate(model, ExecStrategy::Compiled, overlap())
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
