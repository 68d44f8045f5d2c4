//! The generated SPMD program: per-processor tile chains with the paper's
//! RECEIVE → compute → SEND structure (§3.2), executed on the cluster
//! substrate.
//!
//! Every rank walks its chain of tiles along the mapping dimension. Before
//! each tile it receives and unpacks the messages for which this tile is the
//! lexicographically minimum successor of a valid predecessor tile; it then
//! computes the tile's iterations (strided TTIS traversal, boundary-clamped
//! by the original iteration space); finally it packs and sends one message
//! per processor dependence that has a valid successor tile.

use crate::compiled::{
    compute_tile_clamped, compute_tile_fast, count_in_space_subset, gather_spans, gather_tile,
    pack_region, tile_origin, unpack_region, CompiledChain, ComputeRun, ComputeScratch,
};
use crate::plan::ParallelPlan;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tilecc_cluster::{
    run_cluster, run_cluster_tcp, Comm, CommScheme, Counter, EngineOptions, HistId, InjectedCrash,
    MachineModel, MetricsRegistry, Phase, RunError, RunReport,
};
use tilecc_loopnest::DataSpace;
use tilecc_polytope::Polyhedron;
use tilecc_tiling::{insert_at, Lds};

/// Execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Compute real values and gather them for verification.
    Full,
    /// Skip value computation and payloads; message sizes and iteration
    /// counts (and therefore all virtual times) are identical to `Full`.
    TimingOnly,
}

/// Which code path each rank runs. Both produce bitwise-identical data and
/// identical makespans; `Compiled` is the default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecStrategy {
    /// Flat-index execution: plan-time lowered cell indices, dense interior
    /// loops, precomputed pack/unpack lists, bulk gather (see
    /// [`crate::compiled`]).
    #[default]
    Compiled,
    /// The per-point reference path: re-derives every LDS address and walks
    /// every communication region per tile. Kept as the correctness oracle.
    Reference,
    /// Compiled execution with the boundary/interior split: each tile's
    /// boundary slab (the dependence closure of its pack regions) computes
    /// first, the sends post onto the background comm lane, the private
    /// interior computes while they are in flight, and the rank drains the
    /// lane at chain end. Forces [`CommScheme::Overlapped`]; data is
    /// bitwise identical to the other strategies and the makespan is never
    /// worse than `Compiled` under the blocking scheme.
    Overlapped,
}

impl ExecStrategy {
    /// The comm scheme a run under this strategy uses when `requested` was
    /// asked for. The boundary/interior reorder only pays off when sends
    /// actually run in the background, so [`ExecStrategy::Overlapped`]
    /// implies [`CommScheme::Overlapped`]; the other strategies keep
    /// `requested`.
    pub fn comm_scheme(self, requested: CommScheme) -> CommScheme {
        match self {
            ExecStrategy::Overlapped => CommScheme::Overlapped,
            ExecStrategy::Compiled | ExecStrategy::Reference => requested,
        }
    }
}

/// Which cluster engine carries the messages. Both backends run the same
/// rank body over the same virtual-time model, so they produce
/// bitwise-identical data, identical makespans, and identical logical
/// counters; only the substrate differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// In-process channels ([`tilecc_cluster::ThreadedComm`]): one thread
    /// per rank, no serialization. The default.
    #[default]
    Threaded,
    /// Real TCP sockets ([`tilecc_cluster::TcpComm`]): every message is
    /// framed through the TCMP wire format. In-process here; the CLI's
    /// `--backend tcp` additionally runs each rank in its own process.
    Tcp,
}

/// Per-rank result: the rank's Local Data Space (`Full` mode only — the
/// main thread gathers it into the global data space) plus the number of
/// iterations executed.
pub struct RankOutput {
    pub lds: Option<Lds>,
    pub iterations: u64,
}

/// Result of a parallel execution.
pub struct ExecutionResult {
    pub report: RunReport<RankOutput>,
    /// Gathered global data space (`Full` mode only).
    pub data: Option<DataSpace>,
    /// Total iterations executed across all ranks.
    pub total_iterations: u64,
}

impl ExecutionResult {
    /// Simulated parallel completion time.
    pub fn makespan(&self) -> f64 {
        self.report.makespan()
    }
}

/// Execute the plan: every rank runs [`run_rank`] over the chosen
/// [`Backend`], and in [`ExecMode::Full`] the main thread gathers the rank
/// LDSs into the global data space. `options` carry the communication
/// scheme ([`CommScheme::Overlapped`] implements the
/// computation/communication overlapping the paper lists as future work,
/// its reference [8]), observability, fault injection and the watchdog;
/// [`ExecStrategy::comm_scheme`] may override the scheme. The rank body,
/// virtual-time model and gather are identical for every backend, so the
/// fuzz harness cross-checks backends for bitwise-identical data and
/// counters here. Engine failures — a rank panic, a deadlocked schedule,
/// an unreachable peer — come back as [`RunError`]s with rank-level
/// context.
pub fn execute(
    plan: Arc<ParallelPlan>,
    model: MachineModel,
    mode: ExecMode,
    strategy: ExecStrategy,
    backend: Backend,
    mut options: EngineOptions,
) -> Result<ExecutionResult, RunError> {
    options.scheme = strategy.comm_scheme(options.scheme);
    let nprocs = plan.num_procs();
    let plan2 = plan.clone();
    let obs_reg = options.obs.clone();
    let report = match backend {
        Backend::Threaded => run_cluster(nprocs, model, options, move |comm| {
            run_rank(&plan2, comm, mode, strategy)
        })?,
        Backend::Tcp => run_cluster_tcp(nprocs, model, options, move |comm| {
            run_rank(&plan2, comm, mode, strategy)
        })?,
    };
    let total_iterations: u64 = report.results.iter().map(|r| r.iterations).sum();
    let data = match mode {
        ExecMode::TimingOnly => None,
        ExecMode::Full => Some(gather(&plan, &report, strategy, obs_reg.as_deref())),
    };
    Ok(ExecutionResult {
        report,
        data,
        total_iterations,
    })
}

/// Enumerate the data points a rank owns — `(global iteration point,
/// values)` for every iteration in its valid tiles, read from its LDS. The
/// multi-process worker serializes this list into its `RESULT` payload so
/// the driver can rebuild the global [`DataSpace`] without sharing memory.
/// Walks the same clamped gather runs as the in-process gather, in TTIS
/// walk order.
pub fn rank_data_points(
    plan: &ParallelPlan,
    rank: usize,
    out: &RankOutput,
) -> Vec<(Vec<i64>, Vec<f64>)> {
    let lds = out.lds.as_ref().expect("full mode returns the rank LDS");
    let (n, w) = (plan.dim(), plan.algorithm.width());
    let vals = lds.values();
    let mut points = Vec::new();
    for_each_valid_tile(plan, rank, |_, chain, tpos, origin, clamp| {
        let base = tpos * chain.chain_step;
        gather_spans(chain, origin, clamp, |run, first, count| {
            let at = run.at as usize + first;
            for i in at..at + count {
                let j = (0..n).map(|k| origin[k] + chain.j_off[i * n + k]).collect();
                let cell = (base + chain.dst[i]) as usize;
                points.push((j, vals[cell * w..(cell + 1) * w].to_vec()));
            }
        });
    });
    points
}

/// Call `f(tile, chain, tpos, origin, clamp)` for every valid tile of
/// `rank`'s chain, where `clamp` is the iteration space for a boundary tile
/// and `None` for an interior one — the shared tile walk of both gathers.
fn for_each_valid_tile(
    plan: &ParallelPlan,
    rank: usize,
    mut f: impl FnMut(&[i64], &CompiledChain, i64, &[i64], Option<&Polyhedron>),
) {
    let pid = &plan.dist.pids[rank];
    let (lo_t, hi_t) = plan.dist.chains[rank];
    let chain = plan.compiled_for(hi_t - lo_t + 1);
    for t_abs in lo_t..=hi_t {
        let cur_tile = insert_at(pid, plan.m(), t_abs);
        if !plan.tiled.tile_valid(&cur_tile) {
            continue;
        }
        let origin = tile_origin(plan.tiled.transform(), &cur_tile);
        let clamp = (!plan.tiled.tile_is_interior(&cur_tile)).then(|| plan.tiled.space());
        f(&cur_tile, chain, t_abs - lo_t, &origin, clamp);
    }
}

/// Write every rank's LDS back to the global data space (the paper's
/// `loc⁻¹` role), on the main thread.
///
/// The compiled strategies copy every tile through the plan-time gather
/// runs, cutting a boundary tile's runs to their in-space intervals
/// ([`gather_tile`]); only the reference strategy walks `tile_iterations`
/// per point.
fn gather(
    plan: &ParallelPlan,
    report: &RunReport<RankOutput>,
    strategy: ExecStrategy,
    obs: Option<&MetricsRegistry>,
) -> DataSpace {
    let (lo, hi) = plan.algorithm.nest.bounding_box();
    let mut ds = DataSpace::with_width(&lo, &hi, plan.algorithm.width());
    let mut vals = vec![0.0f64; plan.algorithm.width()];
    for (rank, out) in report.results.iter().enumerate() {
        let rank_t0 = obs.map(|r| r.now_ns());
        let lds = out.lds.as_ref().expect("full mode returns the rank LDS");
        let mut tile_t0 = rank_t0;
        for_each_valid_tile(plan, rank, |tile, chain, tpos, origin, clamp| {
            if strategy == ExecStrategy::Reference {
                for (jp, j) in plan.tiled.tile_iterations(tile) {
                    lds.get_into(&lds.unrolled(tpos, &jp), &mut vals);
                    ds.set_all(&j, &vals);
                }
            } else {
                gather_tile(chain, lds, tpos, origin, clamp, &mut ds);
            }
            if let (Some(reg), Some(t0)) = (obs, tile_t0) {
                let now = reg.now_ns();
                reg.rank_metrics(rank)
                    .hist(HistId::GatherNs)
                    .observe(now.saturating_sub(t0));
                tile_t0 = Some(now);
            }
        });
        if let (Some(reg), Some(t0)) = (obs, rank_t0) {
            reg.driver_span(Phase::Gather, "gather", t0, rank as u64);
        }
    }
    ds
}

/// The SPMD body of one rank — the direct analogue of the paper's
/// generated FORACROSS code skeleton (§3.2). [`execute`] runs it on every
/// in-process rank; the CLI's multi-process `--worker-rank` mode runs it
/// over a [`tilecc_cluster::TcpComm`] connected to sibling processes.
pub fn run_rank<C: Comm>(
    plan: &ParallelPlan,
    comm: &mut C,
    mode: ExecMode,
    strategy: ExecStrategy,
) -> RankOutput {
    let rank = comm.rank();
    let n = plan.dim();
    let m = plan.m();
    let t = plan.tiled.transform();
    let v = t.v();
    let lattice = t.lattice();
    let pid = plan.dist.pids[rank].clone();
    let (lo_t, hi_t) = plan.dist.chains[rank];
    let anchor = plan.anchor(rank);
    let num_tiles = hi_t - lo_t + 1;
    let w = plan.algorithm.width();
    let mut lds = Lds::with_width(plan.geo.clone(), anchor.clone(), num_tiles, w);
    let chain = plan.compiled_for(num_tiles);

    let deps = plan.deps();
    let q = deps.cols();
    let d_prime = &plan.comm.d_prime;
    let kernel = plan.algorithm.kernel.clone();
    let space = plan.tiled.space();

    let mut iterations: u64 = 0;
    let mut scratch = ComputeScratch::new(n, q, w);
    let mut reads = vec![0.0f64; q * w];
    let mut out = vec![0.0f64; w];
    let mut src = vec![0i64; n];
    let mut gs = vec![0i64; n];
    let mut j_buf = vec![0i64; n];
    let obs_on = comm.obs().is_some();

    let ckpt_every = comm.recovery_interval();
    let mut start_t = lo_t;
    if let Some(resumed) = comm.resume_state() {
        // A respawned worker restored its checkpoint file during transport
        // setup: rewind the walk and the application state to it.
        start_t = lo_t + resumed.chain_pos as i64;
        decode_app_state(&resumed.app, &mut iterations, &mut lds);
    }
    // The chain walk runs inside the recovery loop: an injected crash
    // unwinds to the `match` below, and if the substrate can restore a
    // checkpoint the walk re-enters at the checkpointed chain position
    // with the application state rewound. Anything else propagates.
    loop {
        let walked = catch_unwind(AssertUnwindSafe(|| {
            for t_abs in start_t..=hi_t {
                let tpos = t_abs - lo_t; // chain-relative tile position
                if let Some(k) = ckpt_every {
                    if (tpos as u64).is_multiple_of(k) {
                        comm.checkpoint(tpos as u64, &encode_app_state(iterations, &lds));
                    }
                }
                let cur_tile = insert_at(&pid, m, t_abs);
                // Chains span [min, max] of a pid's non-empty tiles; an empty
                // candidate inside that range is not a valid tile (plan-time
                // pruning) and must neither compute nor touch any channel.
                if !plan.tiled.tile_valid(&cur_tile) {
                    continue;
                }

                // --- RECEIVE ------------------------------------------------------
                for (i, ds) in plan.comm.tile_deps.iter().enumerate() {
                    let Some(dm_idx) = plan.comm.dm_of_ds[i] else {
                        continue;
                    };
                    let pred: Vec<i64> = cur_tile.iter().zip(ds).map(|(&a, &b)| a - b).collect();
                    if !plan.tiled.tile_valid(&pred) {
                        continue;
                    }
                    if plan.minsucc(&pred, dm_idx) != Some(t_abs) {
                        continue;
                    }
                    let dm = &plan.comm.proc_deps[dm_idx];
                    let from_pid: Vec<i64> = pid.iter().zip(dm).map(|(&a, &b)| a - b).collect();
                    let from_rank = plan
                        .dist
                        .rank(&from_pid)
                        .expect("valid predecessor tile must belong to a known processor");
                    // Tag = predecessor tile's chain index: with tile-dependence
                    // m-components > 1 the minimum-successor consumption order is
                    // not monotone in the sender's tiles, so FIFO alone would
                    // mismatch messages (MPI-style tag matching restores pairing).
                    let payload = comm.recv_tagged(from_rank, pred[m]);
                    if mode == ExecMode::Full {
                        let unpack_t0 = if obs_on {
                            comm.obs().map(|o| o.now_ns())
                        } else {
                            None
                        };
                        match strategy {
                            ExecStrategy::Compiled | ExecStrategy::Overlapped => {
                                // A size mismatch means transport corruption;
                                // fail the rank loudly (release builds too).
                                if let Err(e) = unpack_region(chain, &mut lds, tpos, i, &payload) {
                                    panic!("{e}");
                                }
                            }
                            ExecStrategy::Reference => {
                                // Unpack into the LDS: sender's region points,
                                // addressed as data of chain tile (tpos − ds_m)
                                // shifted by −ds_k·v_k.
                                let lo = plan.comm.region_lo(dm, v);
                                let mut idx = 0usize;
                                for jp in lattice.points_in_box(&lo, v) {
                                    let mut g = jp;
                                    for k in 0..n {
                                        if k != m {
                                            g[k] -= ds[k] * v[k];
                                        }
                                    }
                                    g[m] += (tpos - ds[m]) * v[m];
                                    lds.set_all(&g, &payload[idx * w..(idx + 1) * w]);
                                    idx += 1;
                                }
                                debug_assert_eq!(idx * w, payload.len(), "unpack count mismatch");
                            }
                        }
                        if let Some(t0) = unpack_t0 {
                            // The unpack is real work on the wall clock but free on
                            // the virtual one (the model folds it into recv
                            // overhead), so its virtual interval is a point.
                            let v = comm.local_time();
                            if let Some(o) = comm.obs() {
                                let bytes = (payload.len() * 8) as u64;
                                o.observe(HistId::UnpackNs, o.now_ns().saturating_sub(t0));
                                o.span(Phase::Unpack, t0, (v, v), bytes);
                            }
                        }
                    }
                }

                // --- COMPUTE ------------------------------------------------------
                // Interior/boundary classification feeds both the compiled dispatch
                // and the tile-mix counters; only run it when someone consumes it so
                // the TimingOnly hot path stays untouched with observability off.
                let classify =
                    obs_on || (mode == ExecMode::Full && strategy != ExecStrategy::Reference);
                let is_interior = classify && plan.tiled.tile_is_compute_interior(&cur_tile, deps);
                let compute_t0 = if obs_on && strategy != ExecStrategy::Overlapped {
                    comm.obs().map(|o| o.now_ns())
                } else {
                    None
                };
                let compute_v0 = comm.local_time();
                let mut tile_iters: u64 = 0;
                let mut tile_vectorized: u64 = 0;
                match (mode, strategy) {
                    // Overlapped order: boundary slab → post sends → private
                    // interior. The slab is the dependence closure of the pack
                    // regions, so after it every outgoing payload is final; the
                    // interior then computes while the sends ride the comm lane.
                    (_, ExecStrategy::Overlapped) => {
                        let split = chain.split();
                        let origin = tile_origin(t, &cur_tile);
                        let space_interior =
                            mode == ExecMode::TimingOnly && plan.tiled.tile_is_interior(&cur_tile);
                        // One pass over a slab given as walk-order indices
                        // and their compute runs: compute it (timing-only:
                        // count its in-space points), charge it to the
                        // clock, and record it as a `name` compute span.
                        let mut pass =
                            |comm: &mut C,
                             lds: &mut Lds,
                             name: &'static str,
                             order: &[u32],
                             runs: &[ComputeRun]| {
                                let t0 = if obs_on {
                                    comm.obs().map(|o| o.now_ns())
                                } else {
                                    None
                                };
                                let v0 = comm.local_time();
                                let iters = match mode {
                                    ExecMode::TimingOnly if space_interior => order.len() as u64,
                                    ExecMode::TimingOnly => count_in_space_subset(
                                        chain, &origin, space, order, &mut j_buf,
                                    ),
                                    ExecMode::Full if is_interior => {
                                        tile_vectorized += compute_tile_fast(
                                            chain,
                                            lds,
                                            tpos,
                                            &origin,
                                            kernel.as_ref(),
                                            &mut scratch,
                                            runs,
                                        );
                                        order.len() as u64
                                    }
                                    ExecMode::Full => compute_tile_clamped(
                                        chain,
                                        lds,
                                        tpos,
                                        &origin,
                                        kernel.as_ref(),
                                        space,
                                        deps,
                                        &mut scratch,
                                        order.iter().map(|&i| i as usize),
                                    ),
                                };
                                comm.advance_compute(iters);
                                if let Some(t0) = t0 {
                                    if iters > 0 {
                                        let v1 = comm.local_time();
                                        if let Some(o) = comm.obs() {
                                            o.observe(
                                                HistId::ComputeTileNs,
                                                o.now_ns().saturating_sub(t0),
                                            );
                                            o.named_span(Phase::Compute, name, t0, (v0, v1), iters);
                                        }
                                    }
                                }
                                iters
                            };
                        let boundary_iters = pass(
                            comm,
                            &mut lds,
                            "compute-boundary",
                            &split.boundary_order,
                            &split.boundary_runs,
                        );
                        send_tile(
                            plan, chain, comm, &lds, mode, strategy, obs_on, &pid, &cur_tile, tpos,
                            t_abs, w,
                        );
                        let interior_iters = pass(
                            comm,
                            &mut lds,
                            "compute-interior",
                            &split.interior_order,
                            &split.interior_runs,
                        );
                        tile_iters = boundary_iters + interior_iters;
                    }
                    (ExecMode::TimingOnly, _) => {
                        tile_iters = plan.tiled.tile_volume_fast(&cur_tile) as u64;
                    }
                    (ExecMode::Full, ExecStrategy::Compiled) => {
                        let origin = tile_origin(t, &cur_tile);
                        if is_interior {
                            tile_vectorized += compute_tile_fast(
                                chain,
                                &mut lds,
                                tpos,
                                &origin,
                                kernel.as_ref(),
                                &mut scratch,
                                &chain.compute_runs,
                            );
                            tile_iters = chain.tile_points as u64;
                        } else {
                            tile_iters = compute_tile_clamped(
                                chain,
                                &mut lds,
                                tpos,
                                &origin,
                                kernel.as_ref(),
                                space,
                                deps,
                                &mut scratch,
                                0..chain.tile_points,
                            );
                        }
                    }
                    (ExecMode::Full, ExecStrategy::Reference) => {
                        for (jp, j) in plan.tiled.tile_iterations(&cur_tile) {
                            tile_iters += 1;
                            let g = lds.unrolled(tpos, &jp);
                            for dq in 0..q {
                                for k in 0..n {
                                    src[k] = j[k] - deps[(k, dq)];
                                    gs[k] = g[k] - d_prime[(k, dq)];
                                }
                                if space.contains(&src) {
                                    lds.get_into(&gs, &mut reads[dq * w..(dq + 1) * w]);
                                } else {
                                    kernel.initial(&src, &mut reads[dq * w..(dq + 1) * w]);
                                }
                            }
                            kernel.compute(&j, &reads, &mut out);
                            lds.set_all(&g, &out);
                        }
                    }
                }
                iterations += tile_iters;
                if strategy != ExecStrategy::Overlapped {
                    comm.advance_compute(tile_iters);
                }
                if obs_on {
                    if let Some(t0) = compute_t0 {
                        let v1 = comm.local_time();
                        if let Some(o) = comm.obs() {
                            o.observe(HistId::ComputeTileNs, o.now_ns().saturating_sub(t0));
                            o.span(Phase::Compute, t0, (compute_v0, v1), tile_iters);
                        }
                    }
                    if let Some(o) = comm.obs() {
                        o.add(Counter::Tiles, 1);
                        o.add(Counter::Iterations, tile_iters);
                        if tile_vectorized > 0 {
                            o.add(Counter::VectorizedPoints, tile_vectorized);
                        }
                        o.add(
                            if is_interior {
                                Counter::InteriorTiles
                            } else {
                                Counter::BoundaryTiles
                            },
                            1,
                        );
                        o.add(
                            match strategy {
                                // Overlapped runs through the same compiled tables.
                                ExecStrategy::Compiled | ExecStrategy::Overlapped => {
                                    Counter::CompiledDispatches
                                }
                                ExecStrategy::Reference => Counter::ReferenceDispatches,
                            },
                            1,
                        );
                    }
                }

                // --- SEND ---------------------------------------------------------
                // (the overlapped strategy already sent between its two passes)
                if strategy != ExecStrategy::Overlapped {
                    send_tile(
                        plan, chain, comm, &lds, mode, strategy, obs_on, &pid, &cur_tile, tpos,
                        t_abs, w,
                    );
                }
            }
        }));
        match walked {
            Ok(()) => break,
            Err(payload) => {
                if payload.is::<InjectedCrash>() {
                    if let Some(restored) = comm.try_restore() {
                        start_t = lo_t + restored.chain_pos as i64;
                        decode_app_state(&restored.app, &mut iterations, &mut lds);
                        continue;
                    }
                }
                resume_unwind(payload);
            }
        }
    }

    // --- DRAIN --------------------------------------------------------
    // MPI_Waitall: merge the background comm lane back into the clock. A
    // no-op under the blocking scheme (nothing outstanding).
    let drain_t0 = if obs_on {
        comm.obs().map(|o| o.now_ns())
    } else {
        None
    };
    let drain_v0 = comm.local_time();
    let paid = comm.drain_sends();
    if let Some(t0) = drain_t0 {
        if paid > 0.0 {
            let v1 = comm.local_time();
            if let Some(o) = comm.obs() {
                o.named_span(Phase::Overlap, "drain-sends", t0, (drain_v0, v1), 0);
            }
        }
    }

    // The LDS goes back whole; the main thread gathers it into the global
    // data space (loc⁻¹ role) — no duplicated TTIS traversal here.
    RankOutput {
        lds: (mode == ExecMode::Full).then_some(lds),
        iterations,
    }
}

/// Serialize the executor's resumable state for [`Comm::checkpoint`]: the
/// iteration counter followed by every LDS value as an `f64` bit pattern,
/// all little-endian — restoring it reproduces the rank bitwise.
fn encode_app_state(iterations: u64, lds: &Lds) -> Vec<u8> {
    let vals = lds.values();
    let mut out = Vec::with_capacity(8 + vals.len() * 8);
    out.extend_from_slice(&iterations.to_le_bytes());
    for v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`encode_app_state`], restoring in place. The LDS shape is
/// plan-derived and deterministic, so only the values travel.
fn decode_app_state(bytes: &[u8], iterations: &mut u64, lds: &mut Lds) {
    *iterations = u64::from_le_bytes(bytes[..8].try_into().expect("app snapshot header"));
    let vals = lds.values_mut();
    let body = &bytes[8..];
    assert_eq!(body.len(), vals.len() * 8, "app snapshot size mismatch");
    for (v, c) in vals.iter_mut().zip(body.chunks_exact(8)) {
        *v = f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunk size")));
    }
}

/// The SEND phase of one tile: one message per processor dependence with a
/// valid successor tile. Shared by the blocking order (after the whole
/// tile) and the overlapped order (between the boundary and interior
/// passes — every pack region lives in the boundary slab, so the payloads
/// are final).
#[allow(clippy::too_many_arguments)]
fn send_tile(
    plan: &ParallelPlan,
    chain: &CompiledChain,
    comm: &mut impl Comm,
    lds: &Lds,
    mode: ExecMode,
    strategy: ExecStrategy,
    obs_on: bool,
    pid: &[i64],
    cur_tile: &[i64],
    tpos: i64,
    t_abs: i64,
    w: usize,
) {
    let t = plan.tiled.transform();
    let v = t.v();
    let lattice = t.lattice();
    for (dm_idx, dm) in plan.comm.proc_deps.iter().enumerate() {
        let has_valid_succ = plan.comm.ds_of_dm(dm_idx).any(|ds| {
            let succ: Vec<i64> = cur_tile.iter().zip(ds).map(|(&a, &b)| a + b).collect();
            plan.tiled.tile_valid(&succ)
        });
        if !has_valid_succ {
            continue;
        }
        let to_pid: Vec<i64> = pid.iter().zip(dm).map(|(&a, &b)| a + b).collect();
        let to_rank = plan
            .dist
            .rank(&to_pid)
            .expect("valid successor tile must belong to a known processor");
        let count = plan.region_counts[dm_idx];
        let mut payload = Vec::new();
        if mode == ExecMode::Full {
            let pack_t0 = if obs_on {
                comm.obs().map(|o| o.now_ns())
            } else {
                None
            };
            payload.resize(count * w, 0.0);
            match strategy {
                ExecStrategy::Compiled | ExecStrategy::Overlapped => {
                    pack_region(chain, lds, tpos, dm_idx, &mut payload)
                }
                ExecStrategy::Reference => {
                    let lo = plan.comm.region_lo(dm, v);
                    let mut idx = 0usize;
                    for jp in lattice.points_in_box(&lo, v) {
                        let g = lds.unrolled(tpos, &jp);
                        if lds.index_of(&g).is_some() {
                            lds.get_into(&g, &mut payload[idx * w..(idx + 1) * w]);
                        }
                        idx += 1;
                    }
                    debug_assert_eq!(idx, count);
                }
            }
            if let Some(t0) = pack_t0 {
                // Like unpack: real wall time, a point on the virtual
                // clock (the model folds packing into the send cost).
                let v_now = comm.local_time();
                if let Some(o) = comm.obs() {
                    o.observe(HistId::PackNs, o.now_ns().saturating_sub(t0));
                    o.span(Phase::Pack, t0, (v_now, v_now), (count * 8 * w) as u64);
                }
            }
        }
        comm.send_tagged(to_rank, t_abs, payload, count * 8 * w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilecc_frontend::{compile_kernel_with, corpus};
    use tilecc_linalg::RMat;
    use tilecc_tiling::TilingTransform;

    fn check_against_sequential(plan: ParallelPlan) {
        let seq = plan.algorithm.execute_sequential();
        let total = plan.total_iterations();
        let plan = Arc::new(plan);
        let res = execute(
            plan,
            MachineModel::fast_ethernet_p3(),
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
        assert_eq!(
            res.total_iterations as usize, total,
            "iteration conservation"
        );
        let par = res.data.expect("full mode returns data");
        assert_eq!(
            seq.diff(&par),
            None,
            "parallel result differs from sequential"
        );
    }

    #[test]
    fn sor_rectangular_end_to_end() {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let t = TilingTransform::rectangular(&[2, 3, 4]).unwrap();
        check_against_sequential(ParallelPlan::new(alg, t, Some(2)).unwrap());
    }

    #[test]
    fn sor_nonrectangular_end_to_end() {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let t = TilingTransform::new(RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 3), (0, 1)],
            &[(-1, 4), (0, 1), (1, 4)],
        ]))
        .unwrap();
        check_against_sequential(ParallelPlan::new(alg, t, Some(2)).unwrap());
    }

    #[test]
    fn timing_only_matches_full_makespan() {
        let alg = compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 8)]).unwrap();
        let t = TilingTransform::rectangular(&[2, 4, 4]).unwrap();
        let plan = Arc::new(ParallelPlan::new(alg, t, Some(0)).unwrap());
        let model = MachineModel::fast_ethernet_p3();
        let full = execute(
            plan.clone(),
            model,
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
        let timing = execute(
            plan,
            model,
            ExecMode::TimingOnly,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
        assert_eq!(full.makespan(), timing.makespan());
        assert_eq!(full.report.total_bytes(), timing.report.total_bytes());
        assert!(timing.data.is_none());
    }

    #[test]
    fn lossy_links_preserve_results_bitwise() {
        use tilecc_cluster::FaultPlan;
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let t = TilingTransform::rectangular(&[2, 3, 4]).unwrap();
        let plan = Arc::new(ParallelPlan::new(alg, t, Some(2)).unwrap());
        let model = MachineModel::fast_ethernet_p3();
        let clean = execute(
            plan.clone(),
            model,
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
        let faulty = execute(
            plan,
            model,
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions {
                fault: Some(FaultPlan::lossy(7, 0.25)),
                ..EngineOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("reliability layer must mask a 25% drop rate: {e}"));
        assert!(
            faulty.report.total_retransmissions() > 0,
            "drops must be visible in stats"
        );
        assert!(faulty.makespan() >= clean.makespan());
        let (a, b) = (clean.data.unwrap(), faulty.data.unwrap());
        assert_eq!(
            a.diff(&b),
            None,
            "lossy run must produce bitwise-identical data"
        );
    }

    #[test]
    fn observed_run_records_phases_and_partitions_clocks() {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let t = TilingTransform::rectangular(&[2, 3, 4]).unwrap();
        let reg = MetricsRegistry::new();
        let plan =
            Arc::new(crate::plan::ParallelPlan::new_observed(alg, t, Some(2), Some(&reg)).unwrap());
        let res = execute(
            plan,
            MachineModel::fast_ethernet_p3(),
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions {
                obs: Some(reg.clone()),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let spans = reg.spans();
        for phase in [
            Phase::Plan,
            Phase::CompileChain,
            Phase::Compute,
            Phase::Pack,
            Phase::Send,
            Phase::Recv,
            Phase::Unpack,
            Phase::Gather,
        ] {
            assert!(
                spans.iter().any(|s| s.phase == phase),
                "missing phase {phase:?} in spans"
            );
        }
        let report = reg.run_report(&res.report.local_times);
        for r in &report.ranks {
            assert!(
                (r.compute + r.wait + r.comm - r.local_time).abs() < 1e-9,
                "rank {} clock not partitioned",
                r.rank
            );
        }
        assert_eq!(report.total(Counter::Iterations), res.total_iterations);
        assert_eq!(
            report.total(Counter::Tiles),
            report.total(Counter::InteriorTiles) + report.total(Counter::BoundaryTiles)
        );
        assert_eq!(report.total(Counter::ReferenceDispatches), 0);
        assert!(report.total(Counter::CompiledDispatches) > 0);
        // Fault-free conservation.
        assert_eq!(
            report.total(Counter::BytesSent),
            report.total(Counter::BytesReceived)
        );
        assert_eq!(
            report.total(Counter::MessagesSent),
            report.total(Counter::MessagesReceived)
        );
    }

    #[test]
    fn compiled_and_reference_report_identical_logical_counters() {
        let alg = compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 8)]).unwrap();
        let t = TilingTransform::rectangular(&[2, 4, 4]).unwrap();
        let plan = Arc::new(ParallelPlan::new(alg, t, Some(0)).unwrap());
        let model = MachineModel::fast_ethernet_p3();
        let run = |strategy| {
            let reg = MetricsRegistry::new();
            let res = execute(
                plan.clone(),
                model,
                ExecMode::Full,
                strategy,
                Backend::Threaded,
                EngineOptions {
                    obs: Some(reg.clone()),
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            reg.run_report(&res.report.local_times)
        };
        let compiled = run(ExecStrategy::Compiled);
        let reference = run(ExecStrategy::Reference);
        for c in [
            Counter::Tiles,
            Counter::InteriorTiles,
            Counter::BoundaryTiles,
            Counter::Iterations,
            Counter::MessagesSent,
            Counter::BytesSent,
            Counter::MessagesReceived,
            Counter::BytesReceived,
        ] {
            assert_eq!(
                compiled.total(c),
                reference.total(c),
                "strategies disagree on {}",
                c.name()
            );
        }
        assert_eq!(compiled.total(Counter::ReferenceDispatches), 0);
        assert_eq!(reference.total(Counter::CompiledDispatches), 0);
    }

    /// The worker's `RESULT` cells come from the clamped gather runs; they
    /// must list exactly the `tile_iterations` walk's points and values, in
    /// walk order, for an LDS computed by either strategy.
    #[test]
    fn rank_data_points_match_the_tile_walk() {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 6), ("N", 9)]).unwrap();
        let t = TilingTransform::new(RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 3), (0, 1)],
            &[(-1, 4), (0, 1), (1, 4)],
        ]))
        .unwrap();
        let plan = Arc::new(ParallelPlan::new(alg, t, Some(2)).unwrap());
        let w = plan.algorithm.width();
        for strategy in [ExecStrategy::Compiled, ExecStrategy::Reference] {
            let res = execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::Full,
                strategy,
                Backend::Threaded,
                EngineOptions::default(),
            )
            .unwrap();
            for (rank, out) in res.report.results.iter().enumerate() {
                let lds = out.lds.as_ref().unwrap();
                let (lo_t, hi_t) = plan.dist.chains[rank];
                let mut want = Vec::new();
                for t_abs in lo_t..=hi_t {
                    let tile = insert_at(&plan.dist.pids[rank], plan.m(), t_abs);
                    if !plan.tiled.tile_valid(&tile) {
                        continue;
                    }
                    for (jp, j) in plan.tiled.tile_iterations(&tile) {
                        let mut vals = vec![0.0f64; w];
                        lds.get_into(&lds.unrolled(t_abs - lo_t, &jp), &mut vals);
                        want.push((j, vals));
                    }
                }
                let got = rank_data_points(&plan, rank, out);
                assert_eq!(got.len(), want.len(), "{strategy:?} rank {rank}");
                for ((gj, gv), (wj, wv)) in got.iter().zip(&want) {
                    assert_eq!(gj, wj, "{strategy:?} rank {rank}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(gv), bits(wv), "{strategy:?} rank {rank} at {gj:?}");
                }
            }
        }
    }

    #[test]
    fn crashed_rank_surfaces_as_run_error() {
        use tilecc_cluster::FaultPlan;
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let t = TilingTransform::rectangular(&[2, 3, 4]).unwrap();
        let plan = Arc::new(ParallelPlan::new(alg, t, Some(2)).unwrap());
        let err = match execute(
            plan,
            MachineModel::fast_ethernet_p3(),
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions {
                fault: Some(FaultPlan::default().with_crash(0, 0.0)),
                ..EngineOptions::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("a crashed rank must fail the run"),
        };
        match err {
            RunError::RankPanicked { rank: 0, payload } => {
                assert!(payload.contains("injected crash"), "{payload}");
            }
            other => panic!("expected RankPanicked for rank 0, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use tilecc_frontend::{compile_kernel_with, corpus};
    use tilecc_linalg::RMat;
    use tilecc_tiling::TilingTransform;

    #[test]
    fn only_the_overlapped_strategy_overrides_the_scheme() {
        for requested in [CommScheme::Blocking, CommScheme::Overlapped] {
            let scheme = |s: ExecStrategy| s.comm_scheme(requested);
            assert_eq!(scheme(ExecStrategy::Overlapped), CommScheme::Overlapped);
            assert_eq!(scheme(ExecStrategy::Compiled), requested);
            assert_eq!(scheme(ExecStrategy::Reference), requested);
        }
    }

    #[test]
    fn overlapped_scheme_verifies_and_is_no_slower() {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 6), ("N", 9)]).unwrap();
        let h = RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 3), (0, 1)],
            &[(-1, 4), (0, 1), (1, 4)],
        ]);
        let plan =
            Arc::new(ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(2)).unwrap());
        let model = MachineModel::fast_ethernet_p3();
        let seq = plan.algorithm.execute_sequential();
        let blocking = execute(
            plan.clone(),
            model,
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions {
                scheme: CommScheme::Blocking,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let overlapped = execute(
            plan.clone(),
            model,
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions {
                scheme: CommScheme::Overlapped,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        // Same data under either scheme.
        assert_eq!(seq.diff(blocking.data.as_ref().unwrap()), None);
        assert_eq!(seq.diff(overlapped.data.as_ref().unwrap()), None);
        // Overlap can only hide communication cost, never add to it.
        assert!(
            overlapped.makespan() <= blocking.makespan() + 1e-12,
            "overlapped {:.6} > blocking {:.6}",
            overlapped.makespan(),
            blocking.makespan()
        );
        assert!(
            overlapped.makespan() < blocking.makespan(),
            "overlap should hide something"
        );
    }

    #[test]
    fn overlapped_strategy_matches_both_oracles_bitwise() {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 6), ("N", 9)]).unwrap();
        let h = RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 3), (0, 1)],
            &[(-1, 4), (0, 1), (1, 4)],
        ]);
        let plan =
            Arc::new(ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(2)).unwrap());
        let model = MachineModel::fast_ethernet_p3();
        let seq = plan.algorithm.execute_sequential();
        let run = |strategy| {
            execute(
                plan.clone(),
                model,
                ExecMode::Full,
                strategy,
                Backend::Threaded,
                EngineOptions::default(),
            )
            .unwrap()
        };
        let reference = run(ExecStrategy::Reference);
        let compiled = run(ExecStrategy::Compiled);
        let overlapped = run(ExecStrategy::Overlapped);
        assert_eq!(seq.diff(reference.data.as_ref().unwrap()), None);
        assert_eq!(seq.diff(compiled.data.as_ref().unwrap()), None);
        assert_eq!(
            seq.diff(overlapped.data.as_ref().unwrap()),
            None,
            "boundary/interior reorder must not change the data"
        );
        assert_eq!(overlapped.total_iterations, compiled.total_iterations);
        // Same messages, same bytes — only the schedule changed.
        assert_eq!(
            overlapped.report.total_bytes(),
            compiled.report.total_bytes()
        );
        assert_eq!(
            overlapped.report.total_messages(),
            compiled.report.total_messages()
        );
    }

    #[test]
    fn overlapped_strategy_is_never_slower_than_blocking_compiled() {
        for (alg, tile) in [
            (
                compile_kernel_with(corpus::SOR, &[("M", 6), ("N", 9)]).unwrap(),
                vec![2, 3, 4],
            ),
            (
                compile_kernel_with(corpus::JACOBI, &[("T", 6), ("N", 8)]).unwrap(),
                vec![2, 4, 4],
            ),
            (
                compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 8)]).unwrap(),
                vec![2, 4, 4],
            ),
        ] {
            let t = TilingTransform::rectangular(&tile).unwrap();
            let plan = Arc::new(ParallelPlan::new(alg, t, None).unwrap());
            let model = MachineModel::fast_ethernet_p3();
            let blocking = execute(
                plan.clone(),
                model,
                ExecMode::TimingOnly,
                ExecStrategy::Compiled,
                Backend::Threaded,
                EngineOptions::default(),
            )
            .unwrap();
            let overlapped = execute(
                plan.clone(),
                model,
                ExecMode::TimingOnly,
                ExecStrategy::Overlapped,
                Backend::Threaded,
                EngineOptions::default(),
            )
            .unwrap();
            assert!(
                overlapped.makespan() <= blocking.makespan() + 1e-12,
                "overlapped {:.6} > blocking {:.6}",
                overlapped.makespan(),
                blocking.makespan()
            );
        }
    }

    #[test]
    fn overlapped_timing_only_matches_full_makespan() {
        let alg = compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 8)]).unwrap();
        let t = TilingTransform::rectangular(&[2, 4, 4]).unwrap();
        let plan = Arc::new(ParallelPlan::new(alg, t, Some(0)).unwrap());
        let model = MachineModel::fast_ethernet_p3();
        let run = |mode| {
            execute(
                plan.clone(),
                model,
                mode,
                ExecStrategy::Overlapped,
                Backend::Threaded,
                EngineOptions::default(),
            )
            .unwrap()
        };
        let full = run(ExecMode::Full);
        let timing = run(ExecMode::TimingOnly);
        assert_eq!(full.makespan(), timing.makespan());
        assert_eq!(full.report.total_bytes(), timing.report.total_bytes());
        assert_eq!(full.total_iterations, timing.total_iterations);
    }

    #[test]
    fn overlapped_observed_run_partitions_clocks_and_reports_hidden_time() {
        // ADI's dependence closure leaves a genuine private interior
        // (SOR/Jacobi closures swallow the whole tile), so this run
        // exercises both split compute spans.
        let alg = compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 8)]).unwrap();
        let t = TilingTransform::rectangular(&[2, 4, 4]).unwrap();
        let reg = MetricsRegistry::new();
        let plan =
            Arc::new(crate::plan::ParallelPlan::new_observed(alg, t, Some(0), Some(&reg)).unwrap());
        let res = execute(
            plan,
            MachineModel::fast_ethernet_p3(),
            ExecMode::Full,
            ExecStrategy::Overlapped,
            Backend::Threaded,
            EngineOptions {
                obs: Some(reg.clone()),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let report = reg.run_report(&res.report.local_times);
        for r in &report.ranks {
            assert!(
                (r.compute + r.wait + r.comm - r.local_time).abs() < 1e-9,
                "rank {} clock not partitioned under overlap",
                r.rank
            );
        }
        assert!(
            report.ranks.iter().map(|r| r.overlap_hidden).sum::<f64>() > 0.0,
            "an overlapped SOR run must hide some comm-lane time"
        );
        assert_eq!(report.total(Counter::Iterations), res.total_iterations);
        assert_eq!(report.total(Counter::ReferenceDispatches), 0);
        assert!(report.total(Counter::CompiledDispatches) > 0);
        assert_eq!(
            report.total(Counter::BytesSent),
            report.total(Counter::BytesReceived)
        );
        // The overlapped schedule emits split compute spans and a drain span.
        let spans = reg.spans();
        assert!(spans
            .iter()
            .any(|s| s.phase == Phase::Compute && s.name == "compute-boundary"));
        assert!(spans
            .iter()
            .any(|s| s.phase == Phase::Compute && s.name == "compute-interior"));
        assert!(spans.iter().any(|s| s.phase == Phase::Overlap));
        // No span may cover zero work on a zero-length virtual interval
        // with zero detail — empty tiles must not be dispatched at all.
        assert!(
            spans
                .iter()
                .filter(|s| s.phase == Phase::Compute)
                .all(|s| s.detail > 0),
            "empty compute spans must be skipped"
        );
    }
}
