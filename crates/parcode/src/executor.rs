//! The generated SPMD program: per-processor tile chains with the paper's
//! RECEIVE → compute → SEND structure (§3.2), executed on the cluster
//! substrate.
//!
//! Every rank walks its chain of tiles along the mapping dimension. Before
//! each tile it receives and unpacks the messages for which this tile is the
//! lexicographically minimum successor of a valid predecessor tile; it then
//! computes the tile's iterations (strided TTIS traversal; on a boundary
//! tile each TTIS row is clipped to the interval the original iteration
//! space admits, see [`crate::compiled`]); finally it packs and sends one
//! message per processor dependence that has a valid successor tile. The
//! compiled strategy computes a tile in one pass over its rows, or, under
//! [`CommScheme::Overlapped`], in a boundary pass, the sends, then an
//! interior pass; the reference strategy walks the tile per point.

use crate::compiled::{
    compare_tile, compute_tile_fast, count_tile, gather_tile, pack_region, read_owned_tile,
    unpack_region, CompiledChain, ComputeScratch, Span,
};
use crate::plan::ParallelPlan;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tilecc_cluster::{
    run_cluster, run_cluster_tcp, CommScheme, Counter, EngineOptions, HistId, InjectedCrash, Link,
    MachineModel, MetricsRegistry, Phase, RankCore, Restored, RunError, RunReport,
};
use tilecc_loopnest::DataSpace;
use tilecc_polytope::TileClamp;
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

/// Which code path each rank runs. Both produce bitwise-identical data;
/// under [`CommScheme::Blocking`] they also produce identical makespans.
/// `Compiled` is the default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecStrategy {
    /// Flat-index execution: plan-time lowered cell indices, dense interior
    /// loops, precomputed pack/unpack lists, bulk gather (see
    /// [`crate::compiled`]). Under [`CommScheme::Overlapped`] each tile is
    /// split: its boundary slab (the dependence closure of its pack
    /// regions) computes first, the sends post onto the background comm
    /// lane, and the private interior computes while they are in flight,
    /// so the makespan is never later than the reference strategy's under
    /// that scheme.
    #[default]
    Compiled,
    /// The per-point reference path: re-derives every LDS address and walks
    /// every communication region per tile, never split. Kept as the
    /// correctness oracle.
    Reference,
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

/// Per-rank result: the iterations executed and, in a full run, the rank's
/// output — `w` values per point it owns ([`ParallelPlan::owned_points`]),
/// tile by tile in chain order, each tile in owned-row order
/// ([`read_owned_tile`]), or in `tile_iterations` order under the
/// reference strategy.
pub struct RankOutput {
    pub values: Vec<f64>,
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
/// [`Backend`] ([`run_ranks`]), and in [`ExecMode::Full`] the main thread
/// gathers the ranks' outputs into the global data space. `options` carry the
/// communication scheme ([`CommScheme::Overlapped`] implements the
/// computation/communication overlapping the paper lists as future work,
/// its reference \[8\]), observability, fault injection and the watchdog.
/// The rank body, virtual-time model and gather are identical for every
/// backend, so the fuzz harness cross-checks backends for bitwise-identical
/// data and counters here. Engine failures — a rank panic, a deadlocked schedule,
/// an unreachable peer — come back as [`RunError`]s with rank-level
/// context.
pub fn execute(
    plan: Arc<ParallelPlan>,
    model: MachineModel,
    mode: ExecMode,
    strategy: ExecStrategy,
    backend: Backend,
    options: EngineOptions,
) -> Result<ExecutionResult, RunError> {
    let obs_reg = options.obs.clone();
    let report = run_ranks(&plan, model, mode, strategy, backend, options)?;
    let total_iterations: u64 = report.results.iter().map(|r| r.iterations).sum();
    let data = match mode {
        ExecMode::TimingOnly => None,
        ExecMode::Full => Some(gather(&plan, &report.results, strategy, obs_reg.as_deref())),
    };
    Ok(ExecutionResult {
        report,
        data,
        total_iterations,
    })
}

/// Run every rank of the plan over `backend`, as [`execute`] does, and
/// return the report without gathering: in [`ExecMode::Full`] each rank's
/// output carries its owned values.
pub fn run_ranks(
    plan: &Arc<ParallelPlan>,
    model: MachineModel,
    mode: ExecMode,
    strategy: ExecStrategy,
    backend: Backend,
    options: EngineOptions,
) -> Result<RunReport<RankOutput>, RunError> {
    let nprocs = plan.num_procs();
    let plan = plan.clone();
    match backend {
        Backend::Threaded => run_cluster(nprocs, model, options, move |comm| {
            run_rank(&plan, comm, mode, strategy)
        }),
        Backend::Tcp => run_cluster_tcp(nprocs, model, options, move |comm| {
            run_rank(&plan, comm, mode, strategy)
        }),
    }
}

/// Write every rank's owned values to the global data space (the paper's
/// `loc⁻¹` role), on the main thread. `results` are in rank order and all
/// carry their values, in the order `strategy` wrote them ([`RankOutput`]):
/// [`execute`] passes its ranks' outputs, the CLI's multi-process driver
/// the outputs it decoded from the workers' `RESULT` payloads
/// ([`decode_rank_state`]).
///
/// The compiled strategies place every valid tile's values through the
/// plan-time TTIS rows, cutting a boundary tile's rows to their in-space
/// intervals ([`gather_tile`]); only the reference strategy walks
/// `tile_iterations` per point.
pub fn gather(
    plan: &ParallelPlan,
    results: &[RankOutput],
    strategy: ExecStrategy,
    obs: Option<&MetricsRegistry>,
) -> DataSpace {
    let (lo, hi) = plan.algorithm.nest.bounding_box();
    let mut ds = DataSpace::with_width(&lo, &hi, plan.algorithm.width());
    for_each_owned_tile(plan, results, obs, |values, tile, origin, clamp| {
        Some(if strategy == ExecStrategy::Reference {
            reference_gather_tile(plan, values, tile, &mut ds)
        } else {
            gather_tile(plan.chain(), values, origin, clamp, &mut ds)
        })
    });
    ds
}

/// The reference strategy's compute of `tile`: the per-point oracle of
/// the compiled compute. It walks `tile_iterations` and reads every
/// dependence through the LDS window, each point at its TTIS coordinate,
/// or through the kernel's initial values outside the space. Returns the
/// points computed.
pub fn reference_compute_tile(plan: &ParallelPlan, lds: &mut Lds, tile: &[i64]) -> u64 {
    let (n, w) = (plan.dim(), plan.algorithm.width());
    let (deps, d_prime) = (plan.deps(), &plan.comm.d_prime);
    let (q, space) = (deps.cols(), plan.tiled.space());
    let kernel = plan.algorithm.kernel.as_ref();
    let (mut reads, mut out) = (vec![0.0f64; q * w], vec![0.0f64; w]);
    let (mut src, mut gs) = (vec![0i64; n], vec![0i64; n]);
    let mut iters = 0;
    for (g, j) in plan.tiled.tile_iterations(tile) {
        iters += 1;
        for dq in 0..q {
            for k in 0..n {
                src[k] = j[k] - deps[(k, dq)];
                gs[k] = g[k] - d_prime[(k, dq)];
            }
            let read = &mut reads[dq * w..(dq + 1) * w];
            if space.contains(&src) {
                lds.get_into(&gs, read);
            } else {
                kernel.initial(&src, read);
            }
        }
        kernel.compute(&j, &reads, &mut out);
        lds.set_all(&g, &out);
    }
    iters
}

/// The reference strategy's pack: fill `payload` with the region of
/// processor dependence `dm_idx`, reading the LDS per lattice point of the
/// region box; a point outside the allocation leaves its slot as it was.
pub fn reference_pack(plan: &ParallelPlan, lds: &Lds, dm_idx: usize, payload: &mut [f64]) {
    let (t, w) = (plan.tiled.transform(), lds.width());
    let lo = plan.comm.region_lo(&plan.comm.proc_deps[dm_idx], t.v());
    let mut idx = 0usize;
    for g in t.lattice().points_in_box(&lo, t.v()) {
        if lds.index_of(&g).is_some() {
            lds.get_into(&g, &mut payload[idx * w..(idx + 1) * w]);
        }
        idx += 1;
    }
    debug_assert_eq!(idx * w, payload.len(), "pack count mismatch");
}

/// The reference strategy's unpack of a message for tile dependence
/// `ds_idx` (carried by processor dependence `dm_idx`): the sender's region
/// points, addressed as data of tile `−ds` of the window, `g_k = jp_k −
/// ds_k·v_k`.
pub fn reference_unpack(
    plan: &ParallelPlan,
    lds: &mut Lds,
    ds_idx: usize,
    dm_idx: usize,
    payload: &[f64],
) {
    let (t, w) = (plan.tiled.transform(), lds.width());
    let (v, ds) = (t.v(), &plan.comm.tile_deps[ds_idx]);
    let lo = plan.comm.region_lo(&plan.comm.proc_deps[dm_idx], v);
    let mut idx = 0usize;
    for mut g in t.lattice().points_in_box(&lo, v) {
        for k in 0..g.len() {
            g[k] -= ds[k] * v[k];
        }
        lds.set_all(&g, &payload[idx * w..(idx + 1) * w]);
        idx += 1;
    }
    debug_assert_eq!(idx * w, payload.len(), "unpack count mismatch");
}

/// The reference strategy's part of its rank's output for `tile`: the LDS
/// cell of every point of `tile_iterations`, appended to `out` in that
/// order.
pub fn reference_read_tile(plan: &ParallelPlan, lds: &Lds, tile: &[i64], out: &mut Vec<f64>) {
    let w = lds.width();
    for (jp, _) in plan.tiled.tile_iterations(tile) {
        let at = out.len();
        out.resize(at + w, 0.0);
        lds.get_into(&jp, &mut out[at..]);
    }
}

/// The reference strategy's gather of `tile`: `values` is its rank's
/// output from the tile's first value on ([`reference_read_tile`]), and
/// every point of `tile_iterations` takes the next `w` of them. Returns
/// the number of points read.
pub fn reference_gather_tile(
    plan: &ParallelPlan,
    values: &[f64],
    tile: &[i64],
    ds: &mut DataSpace,
) -> usize {
    let w = ds.width();
    let mut points = 0;
    for (_, j) in plan.tiled.tile_iterations(tile) {
        ds.set_all(&j, &values[points * w..(points + 1) * w]);
        points += 1;
    }
    points
}

/// Verify a finished run in place: compare every rank's owned values with
/// `reference` over the rows [`gather`] places them on under the compiled
/// strategies ([`compare_tile`]), with no data space built. True iff no
/// cell is visited twice, every visited cell is written in `reference`
/// and equal to it bit for bit, and the visits cover every cell
/// `reference` wrote (`reference_written`, its `num_written()`): then a
/// gather would return `reference` exactly. Records the same `gather`
/// spans and histogram as [`gather`].
pub fn compare_in_place(
    plan: &ParallelPlan,
    results: &[RankOutput],
    reference: &DataSpace,
    reference_written: usize,
    obs: Option<&MetricsRegistry>,
) -> bool {
    let mut seen = vec![0u64; reference.num_cells().div_ceil(64)];
    let mut visits = 0u64;
    let same = for_each_owned_tile(plan, results, obs, |values, _, origin, clamp| {
        let v = compare_tile(plan.chain(), values, origin, clamp, reference, &mut seen)?;
        visits += v;
        Some(v as usize)
    });
    same && visits == reference_written as u64
}

/// Call `visit(values, tile, origin, clamp)` on every valid tile of
/// every rank in rank and chain order ([`ParallelPlan::for_each_tile`]):
/// `values` is the rank's output from the tile's first value on, and the
/// visit returns the number of points it read, or `None` to stop. Each
/// visit is observed as a `GatherNs` sample of its rank and each rank as
/// a `gather` driver span. Returns whether no visit stopped.
fn for_each_owned_tile(
    plan: &ParallelPlan,
    results: &[RankOutput],
    obs: Option<&MetricsRegistry>,
    mut visit: impl FnMut(&[f64], &[i64], &[i64], Option<&TileClamp>) -> Option<usize>,
) -> bool {
    let w = plan.algorithm.width();
    for (rank, out) in results.iter().enumerate() {
        let rank_t0 = obs.map(|r| r.now_ns());
        let mut tile_t0 = rank_t0;
        let mut at = 0;
        let done = plan.for_each_tile(rank, |tile, origin, clamp| {
            let read = visit(&out.values[at..], tile, origin, clamp);
            at += read.unwrap_or(0) * w;
            if let (Some(reg), Some(t0)) = (obs, tile_t0) {
                let now = reg.now_ns();
                reg.rank_metrics(rank)
                    .hist(HistId::GatherNs)
                    .observe(now.saturating_sub(t0));
                tile_t0 = Some(now);
            }
            read.is_some()
        });
        if let (Some(reg), Some(t0)) = (obs, rank_t0) {
            reg.driver_span(Phase::Gather, "gather", t0, rank as u64);
        }
        if !done {
            return false;
        }
    }
    true
}

/// The SPMD body of one rank — the direct analogue of the paper's
/// generated FORACROSS code skeleton (§3.2). [`execute`] runs it on every
/// in-process rank; the CLI's multi-process `--worker-rank` mode runs it
/// over a [`tilecc_cluster::TcpComm`] connected to sibling processes. The
/// compiled strategy splits each tile when `comm` runs
/// [`CommScheme::Overlapped`] ([`ExecStrategy::Compiled`]).
pub fn run_rank<L: Link>(
    plan: &ParallelPlan,
    comm: &mut RankCore<L>,
    mode: ExecMode,
    strategy: ExecStrategy,
) -> RankOutput {
    let rank = comm.rank();
    let n = plan.dim();
    let m = plan.m();
    let pid = plan.dist.pids[rank].clone();
    let (lo_t, hi_t) = plan.dist.chains[rank];
    let w = plan.algorithm.width();
    // Only a full run reads or writes the LDS window; a timing-only one
    // never allocates it.
    let mut lds = (mode == ExecMode::Full).then(|| plan.lds());
    let chain = plan.chain();

    let kernel = plan.algorithm.kernel.clone();

    let mut iterations: u64 = 0;
    // The output: each tile's owned cells, read once its last compute pass
    // ends and before the window moves on.
    let mut values: Vec<f64> = Vec::new();
    let mut scratch = ComputeScratch::new(n, plan.deps().cols(), w);
    let obs_on = comm.obs().is_some();
    // The split only pays off when the sends ride the background lane.
    let split = strategy == ExecStrategy::Compiled && comm.scheme() == CommScheme::Overlapped;

    let ckpt_every = comm.recovery_interval();
    let mut start_t = lo_t;
    if let Some(resumed) = comm.resume_state() {
        // A respawned worker restored its checkpoint file during transport
        // setup: rewind the walk and the application state to it.
        let pos = rewind_to(
            plan,
            rank,
            &resumed,
            &mut iterations,
            &mut values,
            lds.as_mut(),
        );
        start_t = lo_t + pos as i64;
    }
    // The chain walk runs inside the recovery loop: an injected crash
    // unwinds to the `match` below, and if the substrate can restore a
    // checkpoint the walk re-enters at the checkpointed chain position
    // with the application state rewound. Anything else propagates.
    loop {
        let walked = catch_unwind(AssertUnwindSafe(|| {
            for t_abs in start_t..=hi_t {
                let tpos = t_abs - lo_t; // chain-relative tile position

                // The window moves one tile along the chain at every
                // position, empty ones included; a walk starts in the
                // window of its first position (zeroed, or restored).
                if t_abs > start_t {
                    if let Some(lds) = lds.as_mut() {
                        lds.slide();
                    }
                }
                if let Some(k) = ckpt_every {
                    if (tpos as u64).is_multiple_of(k) {
                        let window = lds.as_ref().map_or(&[][..], Lds::values);
                        let state = encode_rank_state(iterations, &values, window);
                        comm.checkpoint(tpos as u64, &state);
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
                    if let Some(lds) = lds.as_mut() {
                        let unpack_t0 = if obs_on {
                            comm.obs().map(|o| o.now_ns())
                        } else {
                            None
                        };
                        match strategy {
                            ExecStrategy::Compiled => {
                                // A size mismatch means transport corruption;
                                // fail the rank loudly (release builds too).
                                if let Err(e) = unpack_region(chain, lds, i, &payload) {
                                    panic!("{e}");
                                }
                            }
                            ExecStrategy::Reference => {
                                reference_unpack(plan, lds, i, dm_idx, &payload)
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
                // A compute-interior tile (every point and every source in the
                // space) runs unclamped; the same residuals clip the others.
                let origin = plan.tiled.tile_origin(&cur_tile);
                let tc = plan.clamp.at(&origin);
                let is_interior = tc.compute_interior();
                let clamp = (!is_interior).then_some(&tc);
                let mut tile_vectorized: u64 = 0;
                // One compute pass over `spans`: count it (timing-only, no
                // LDS), walk the tile per point (the reference oracle, which
                // ignores `spans`) or run the compiled compute; then charge it
                // to the clock and record it as a `name` compute span.
                let mut pass = |comm: &mut RankCore<L>,
                                lds: &mut Option<Lds>,
                                name: &'static str,
                                spans: &[Span]| {
                    let t0 = if obs_on {
                        comm.obs().map(|o| o.now_ns())
                    } else {
                        None
                    };
                    let v0 = comm.local_time();
                    let iters = match (lds.as_mut(), strategy) {
                        (None, _) => count_tile(chain, clamp, spans),
                        (Some(lds), ExecStrategy::Reference) => {
                            reference_compute_tile(plan, lds, &cur_tile)
                        }
                        (Some(lds), _) => {
                            let (iters, batched) = compute_tile_fast(
                                chain,
                                lds,
                                &origin,
                                kernel.as_ref(),
                                &mut scratch,
                                spans,
                                clamp,
                            );
                            tile_vectorized += batched;
                            iters
                        }
                    };
                    comm.advance_compute(iters);
                    if let Some(t0) = t0 {
                        if iters > 0 {
                            let v1 = comm.local_time();
                            if let Some(o) = comm.obs() {
                                o.observe(HistId::ComputeTileNs, o.now_ns().saturating_sub(t0));
                                o.named_span(Phase::Compute, name, t0, (v0, v1), iters);
                            }
                        }
                    }
                    iters
                };
                // First pass → SEND → the rest. Split, the first pass is the
                // boundary slab, the dependence closure of the pack regions,
                // so after it every outgoing payload is final, and the private
                // interior computes while the sends ride the comm lane.
                // Unsplit, the first pass is the whole tile and no second pass
                // runs (even an empty one would tick the fault clock).
                let (name, first, rest) = match split.then(|| chain.split()) {
                    Some(s) => ("compute-boundary", &s.boundary, Some(&s.interior)),
                    None => (Phase::Compute.name(), &chain.walk, None),
                };
                let mut tile_iters = pass(comm, &mut lds, name, first);

                // --- SEND ---------------------------------------------------------
                send_tile(
                    plan, chain, comm, &lds, strategy, obs_on, &pid, &cur_tile, t_abs, w,
                );
                if let Some(interior) = rest {
                    tile_iters += pass(comm, &mut lds, "compute-interior", interior);
                }
                if let Some(lds) = &lds {
                    match strategy {
                        ExecStrategy::Compiled => {
                            let owned = (!tc.interior()).then_some(&tc);
                            read_owned_tile(chain, lds, owned, &mut values)
                        }
                        ExecStrategy::Reference => {
                            reference_read_tile(plan, lds, &cur_tile, &mut values)
                        }
                    }
                }
                iterations += tile_iters;
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
                            ExecStrategy::Compiled => Counter::CompiledDispatches,
                            ExecStrategy::Reference => Counter::ReferenceDispatches,
                        },
                        1,
                    );
                }
            }
        }));
        match walked {
            Ok(()) => break,
            Err(payload) => {
                if payload.is::<InjectedCrash>() {
                    if let Some(restored) = comm.try_restore() {
                        let (its, lds) = (&mut iterations, lds.as_mut());
                        let pos = rewind_to(plan, rank, &restored, its, &mut values, lds);
                        start_t = lo_t + pos as i64;
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
    RankOutput { values, iterations }
}

/// Serialize a rank's state: its iteration count, then its output so far
/// (`w` values per iteration, in [`RankOutput`] order) and, in a
/// checkpoint, its LDS window in row-major order, every value as an `f64`
/// bit pattern, all little-endian (`docs/wire-protocol.md`, "Rank
/// state"). One codec, two payloads: a checkpoint
/// ([`RankCore::checkpoint`]) at chain position `p` carries the output of
/// the tiles before `p` and the window tile `p` computes in, and a worker
/// process's `RESULT` carries its whole output and no window; a
/// timing-only run has no values in either. Decoding the bytes
/// ([`decode_rank_state`]) reproduces them bitwise.
pub fn encode_rank_state(iterations: u64, output: &[f64], window: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + (output.len() + window.len()) * 8);
    out.extend_from_slice(&iterations.to_le_bytes());
    for v in output.iter().chain(window) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`encode_rank_state`]: return the iteration count and the
/// output, and write the window into `window`. The sizes come from the
/// plan: `w` values per iteration (0 in a timing-only run, which carries
/// no values), at most `owned` iterations' output (the rank's
/// [`ParallelPlan::owned_points`]), and `window` is the rank's LDS for a
/// checkpoint and empty for a `RESULT`. The byte length must be exactly
/// `8 + 8·(iterations·w + window.len())`. Both lengths are checked before
/// anything is written, so malformed bytes are an error, never a panic,
/// and nothing is allocated beyond what the plan allows.
pub fn decode_rank_state(
    bytes: &[u8],
    w: usize,
    owned: usize,
    window: &mut [f64],
) -> Result<(u64, Vec<f64>), String> {
    let Some((head, body)) = bytes.split_first_chunk::<8>() else {
        return Err(format!(
            "truncated rank state: {} bytes, the iteration count needs 8",
            bytes.len()
        ));
    };
    let iterations = u64::from_le_bytes(*head);
    if w == 0 && !body.is_empty() {
        return Err(format!(
            "{} value bytes in the rank state of a timing-only run",
            body.len()
        ));
    }
    if w > 0 && iterations > owned as u64 {
        return Err(format!(
            "rank state carries the output of {iterations} iterations, the rank owns {owned} points"
        ));
    }
    let prefix = iterations as usize * w;
    let need = 8 * (prefix + window.len());
    if body.len() != need {
        return Err(format!(
            "rank state carries {} value bytes, the output of {iterations} iterations and \
             the rank's LDS of {} values need {need}",
            body.len(),
            window.len()
        ));
    }
    let mut values = body
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunk size"))));
    let output = values.by_ref().take(prefix).collect();
    for (v, x) in window.iter_mut().zip(values) {
        *v = x;
    }
    Ok((iterations, output))
}

/// Decode a worker's `RESULT`: a rank state with no window whose output,
/// in a full run (`w > 0`), covers exactly the rank's `owned` points. A
/// shorter output (another rank's, say) is an error here, where
/// [`decode_rank_state`] accepts it as a checkpoint's prefix.
pub fn decode_result(bytes: &[u8], w: usize, owned: usize) -> Result<(u64, Vec<f64>), String> {
    let (iterations, output) = decode_rank_state(bytes, w, owned, &mut [])?;
    if w > 0 && iterations != owned as u64 {
        return Err(format!(
            "result carries the output of {iterations} iterations, the rank owns {owned} points"
        ));
    }
    Ok((iterations, output))
}

/// Rewind a rank to a checkpoint's rank state: restore `iterations` and,
/// in a full run, the output so far and the LDS window, and return the
/// chain position to resume from. A state that does not fit the rank ends
/// the rank with the decoder's message.
fn rewind_to(
    plan: &ParallelPlan,
    rank: usize,
    restored: &Restored,
    iterations: &mut u64,
    output: &mut Vec<f64>,
    lds: Option<&mut Lds>,
) -> u64 {
    let (w, owned, window) = match lds {
        Some(lds) => (lds.width(), plan.owned_points(rank), lds.values_mut()),
        None => (0, 0, &mut [][..]),
    };
    match decode_rank_state(&restored.app, w, owned, window) {
        Ok((count, values)) => (*iterations, *output) = (count, values),
        Err(e) => panic!(
            "rank {rank}: cannot restore the checkpoint at chain position {}: {e}",
            restored.chain_pos
        ),
    }
    restored.chain_pos
}

/// The SEND phase of one tile: one message per processor dependence with a
/// valid successor tile, carrying values only in a full run (`lds` is
/// `Some`). It runs after the tile's first compute pass: the whole tile, or
/// the boundary slab of a split tile (every pack region lives in it, so the
/// payloads are final).
#[allow(clippy::too_many_arguments)]
fn send_tile<L: Link>(
    plan: &ParallelPlan,
    chain: &CompiledChain,
    comm: &mut RankCore<L>,
    lds: &Option<Lds>,
    strategy: ExecStrategy,
    obs_on: bool,
    pid: &[i64],
    cur_tile: &[i64],
    t_abs: i64,
    w: usize,
) {
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
        let count = chain.pack[dm_idx].points;
        let mut payload = Vec::new();
        if let Some(lds) = lds {
            let pack_t0 = if obs_on {
                comm.obs().map(|o| o.now_ns())
            } else {
                None
            };
            payload.resize(count * w, 0.0);
            match strategy {
                ExecStrategy::Compiled => pack_region(chain, lds, dm_idx, &mut payload),
                ExecStrategy::Reference => reference_pack(plan, lds, dm_idx, &mut payload),
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
        assert_eq!(
            full.report.total(Counter::BytesSent),
            timing.report.total(Counter::BytesSent)
        );
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
            faulty.report.total(Counter::Retransmits) > 0,
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

    /// One of a rank's two rank states from a full SOR run under a
    /// non-rectangular tiling (chains of several lengths, so output sizes
    /// differ between ranks): `what` names the payload, and the decoder is
    /// sized from the plan: `w` values per iteration, at most `owned`
    /// iterations and a `window` of that many LDS values.
    struct State {
        what: &'static str,
        bytes: Vec<u8>,
        iterations: u64,
        owned: usize,
        window: usize,
    }

    impl State {
        /// Decode as the payload it is, for a rank that owns `owned`
        /// points: a checkpoint with [`decode_rank_state`], a `RESULT`
        /// with [`decode_result`].
        fn decode_for(
            &self,
            w: usize,
            owned: usize,
            window: &mut [f64],
        ) -> Result<(u64, Vec<f64>), String> {
            match self.what {
                "output" => decode_result(&self.bytes, w, owned),
                _ => decode_rank_state(&self.bytes, w, owned, window),
            }
        }

        fn decode(&self, w: usize, window: &mut [f64]) -> Result<(u64, Vec<f64>), String> {
            self.decode_for(w, self.owned, window)
        }
    }

    /// SOR `M = 6, N = 9` under a skewed tiling, mapped along `m = 2`.
    fn skewed_sor_plan() -> Arc<ParallelPlan> {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 6), ("N", 9)]).unwrap();
        let t = TilingTransform::new(RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 3), (0, 1)],
            &[(-1, 4), (0, 1), (1, 4)],
        ]))
        .unwrap();
        Arc::new(ParallelPlan::new(alg, t, Some(2)).unwrap())
    }

    /// The distinct values of a filled window.
    fn filled_window(plan: &ParallelPlan) -> Vec<f64> {
        let len = plan.lds().values().len();
        (0..len).map(|i| 1.0 + i as f64 / 3.0).collect()
    }

    /// Every rank's mid-chain checkpoint state (the output of the first
    /// half of its valid tiles and a window filled with distinct values)
    /// and `RESULT` state (its whole output), with the plan.
    fn sor_rank_states() -> (Arc<ParallelPlan>, Vec<[State; 2]>) {
        let plan = skewed_sor_plan();
        let res = execute(
            plan.clone(),
            MachineModel::fast_ethernet_p3(),
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
        let (w, window) = (plan.algorithm.width(), filled_window(&plan));
        let states = (res.report.results.iter().enumerate())
            .map(|(rank, out)| {
                let owned = plan.owned_points(rank);
                assert_eq!(out.values.len(), owned * w);
                let mut tiles = 0;
                plan.for_each_tile(rank, |_, _, _| {
                    tiles += 1;
                    true
                });
                let (mut left, mut before) = (tiles / 2, 0u64);
                plan.for_each_tile(rank, |_, _, clamp| {
                    left > 0 && {
                        left -= 1;
                        before += count_tile(plan.chain(), clamp, &plan.chain().walk);
                        true
                    }
                });
                let prefix = &out.values[..before as usize * w];
                [
                    State {
                        what: "checkpoint",
                        bytes: encode_rank_state(before, prefix, &window),
                        iterations: before,
                        owned,
                        window: window.len(),
                    },
                    State {
                        what: "output",
                        bytes: encode_rank_state(out.iterations, &out.values, &[]),
                        iterations: out.iterations,
                        owned,
                        window: 0,
                    },
                ]
            })
            .collect();
        (plan, states)
    }

    /// Both states decode into buffers of their plan-derived size and
    /// encode back to the same bytes: a checkpoint gives back its output
    /// prefix and its window, and the decoded outputs gather into the
    /// run's data bitwise — the multi-process driver's path — each
    /// `RESULT` holding exactly the rank's owned values.
    #[test]
    fn rank_states_round_trip_through_gather() {
        let (plan, states) = sor_rank_states();
        let (w, filled) = (plan.algorithm.width(), filled_window(&plan));
        let mut outputs = Vec::new();
        let mut mid_chain = 0;
        for (rank, pair) in states.iter().enumerate() {
            for st in pair {
                let mut window = vec![0.0; st.window];
                let (iterations, values) = st.decode(w, &mut window).unwrap();
                assert_eq!(iterations, st.iterations);
                assert_eq!(values.len(), iterations as usize * w);
                assert_eq!(encode_rank_state(iterations, &values, &window), st.bytes);
                if st.what == "output" {
                    assert_eq!(iterations as usize, plan.owned_points(rank));
                    outputs.push(RankOutput { values, iterations });
                } else {
                    assert_eq!(window, filled);
                    mid_chain += usize::from(0 < iterations && (iterations as usize) < st.owned);
                }
            }
        }
        assert!(mid_chain > 0, "no checkpoint holds a partial output");
        for (out, pair) in outputs.iter().zip(&states) {
            let (_, prefix) = pair[0].decode(w, &mut filled.clone()).unwrap();
            assert!(out.values.starts_with(&prefix));
        }
        let total: u64 = outputs.iter().map(|o| o.iterations).sum();
        assert_eq!(total as usize, plan.total_iterations());
        let ds = gather(&plan, &outputs, ExecStrategy::Compiled, None);
        assert_eq!(plan.algorithm.execute_sequential().diff(&ds), None);
        // A timing-only state is the count alone.
        let timing = encode_rank_state(9, &[], &[]);
        assert_eq!(
            decode_rank_state(&timing, 0, 0, &mut []),
            Ok((9, Vec::new()))
        );
    }

    #[test]
    fn truncated_rank_state_is_an_error() {
        let (plan, states) = sor_rank_states();
        let w = plan.algorithm.width();
        for st in &states[0] {
            let mut window = vec![0.0; st.window];
            for cut in [0, 7] {
                let bytes = &st.bytes[..cut];
                for (w, window) in [(w, &mut window[..]), (0, &mut [][..])] {
                    let e = decode_rank_state(bytes, w, st.owned, window).unwrap_err();
                    assert!(e.contains("the iteration count needs 8"), "{e}");
                }
            }
            for cut in [8, st.bytes.len() - 1] {
                let bytes = &st.bytes[..cut];
                let e = decode_rank_state(bytes, w, st.owned, &mut window).unwrap_err();
                assert!(e.contains(" need"), "{}: {e}", st.what);
            }
        }
    }

    #[test]
    fn rank_state_with_trailing_bytes_is_an_error() {
        let (plan, states) = sor_rank_states();
        let w = plan.algorithm.width();
        for st in &states[0] {
            let mut window = vec![0.0; st.window];
            let bytes = [&st.bytes[..], &1.5f64.to_bits().to_le_bytes()].concat();
            let e = decode_rank_state(&bytes, w, st.owned, &mut window).unwrap_err();
            let (its, values) = (st.iterations, st.iterations as usize * w + st.window);
            let want = format!(
                "rank state carries {} value bytes, the output of {its} iterations and the \
                 rank's LDS of {} values need {}",
                8 * values + 8,
                st.window,
                8 * values
            );
            assert_eq!(e, want);
            // Nothing was written before the length check failed.
            assert!(window.iter().all(|&v| v == 0.0));
        }
    }

    /// Another rank's state may carry more output than this rank owns, a
    /// smaller rank's `RESULT` less, and another plan's checkpoint another
    /// window: all are refused before anything is written. A smaller
    /// rank's checkpoint is a legal output prefix.
    #[test]
    fn rank_state_of_another_ranks_lds_is_an_error() {
        let (plan, states) = sor_rank_states();
        let w = plan.algorithm.width();
        for kind in 0..2 {
            let mut sized: Vec<&State> = states.iter().map(|pair| &pair[kind]).collect();
            sized.sort_by_key(|st| st.iterations);
            let (small, big) = (sized[0], sized[sized.len() - 1]);
            assert!(small.owned < big.iterations as usize, "{}", small.what);
            let mut window = vec![0.0; small.window];
            let e = big.decode_for(w, small.owned, &mut window).unwrap_err();
            assert!(
                e.ends_with(&format!("the rank owns {} points", small.owned)),
                "{e}"
            );
            assert!(window.iter().all(|&v| v == 0.0));
            let smaller = small.decode_for(w, big.owned, &mut window);
            if small.what == "output" {
                let e = smaller.unwrap_err();
                assert_eq!(
                    e,
                    format!(
                        "result carries the output of {} iterations, the rank owns {} points",
                        small.iterations, big.owned
                    )
                );
            } else {
                assert_eq!(smaller.map(|(its, _)| its), Ok(small.iterations));
            }
        }
        // A rectangular tiling of the same nest has another window.
        let alg = compile_kernel_with(corpus::SOR, &[("M", 6), ("N", 9)]).unwrap();
        let t = TilingTransform::rectangular(&[2, 3, 3]).unwrap();
        let other = ParallelPlan::new(alg, t, Some(2)).unwrap();
        let mut theirs = other.lds();
        let st = &states[0][0];
        assert_ne!(theirs.values().len(), st.window);
        let e = st.decode(w, theirs.values_mut()).unwrap_err();
        assert!(e.contains("the rank's LDS of"), "{e}");
    }

    /// Values, output or window, in the rank state of a timing-only run.
    #[test]
    fn lds_bytes_in_a_timing_only_rank_state_are_an_error() {
        let (plan, states) = sor_rank_states();
        let w = plan.algorithm.width();
        for st in &states[0] {
            let e = decode_rank_state(&st.bytes, 0, st.owned, &mut []).unwrap_err();
            assert!(
                e.ends_with("value bytes in the rank state of a timing-only run"),
                "{e}"
            );
            // A full run's decoder wants the values a timing-only state
            // lacks.
            let mut window = vec![0.0; st.window];
            let timing = encode_rank_state(3, &[], &[]);
            let e = decode_rank_state(&timing, w, st.owned, &mut window).unwrap_err();
            assert!(e.starts_with("rank state carries 0 value bytes"), "{e}");
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

    /// Engine options selecting `scheme`.
    fn under(scheme: CommScheme) -> EngineOptions {
        EngineOptions {
            scheme,
            ..EngineOptions::default()
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
        let run = |strategy, scheme| {
            execute(
                plan.clone(),
                model,
                ExecMode::Full,
                strategy,
                Backend::Threaded,
                under(scheme),
            )
            .unwrap()
        };
        let reference = run(ExecStrategy::Reference, CommScheme::Blocking);
        let compiled = run(ExecStrategy::Compiled, CommScheme::Blocking);
        let overlapped = run(ExecStrategy::Compiled, CommScheme::Overlapped);
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
            overlapped.report.total(Counter::BytesSent),
            compiled.report.total(Counter::BytesSent)
        );
        assert_eq!(
            overlapped.report.total(Counter::MessagesSent),
            compiled.report.total(Counter::MessagesSent)
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
                ExecStrategy::Compiled,
                Backend::Threaded,
                under(CommScheme::Overlapped),
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
                ExecStrategy::Compiled,
                Backend::Threaded,
                under(CommScheme::Overlapped),
            )
            .unwrap()
        };
        let full = run(ExecMode::Full);
        let timing = run(ExecMode::TimingOnly);
        assert_eq!(full.makespan(), timing.makespan());
        assert_eq!(
            full.report.total(Counter::BytesSent),
            timing.report.total(Counter::BytesSent)
        );
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
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions {
                obs: Some(reg.clone()),
                ..under(CommScheme::Overlapped)
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

    /// The compiled strategy splits its tiles because the scheme is
    /// overlapped: on a plan with a private interior (ADI, `4×6×6` tiles)
    /// that finishes strictly before the unsplit reference strategy under
    /// the same scheme, never after blocking compiled, with the data of the
    /// sequential run.
    #[test]
    fn compiled_splits_under_the_overlapped_scheme() {
        let alg = compile_kernel_with(corpus::ADI, &[("T", 16), ("N", 24)]).unwrap();
        let t = TilingTransform::rectangular(&[4, 6, 6]).unwrap();
        let plan = Arc::new(ParallelPlan::new(alg, t, Some(0)).unwrap());
        let run = |mode, strategy, scheme| {
            let model = MachineModel::fast_ethernet_p3();
            execute(
                plan.clone(),
                model,
                mode,
                strategy,
                Backend::Threaded,
                under(scheme),
            )
            .unwrap()
        };
        let split = run(
            ExecMode::Full,
            ExecStrategy::Compiled,
            CommScheme::Overlapped,
        );
        let unsplit = run(
            ExecMode::TimingOnly,
            ExecStrategy::Reference,
            CommScheme::Overlapped,
        );
        let blocking = run(
            ExecMode::TimingOnly,
            ExecStrategy::Compiled,
            CommScheme::Blocking,
        );
        assert!(
            split.makespan() < unsplit.makespan(),
            "split {} must beat unsplit {}",
            split.makespan(),
            unsplit.makespan()
        );
        assert!(split.makespan() <= blocking.makespan());
        let seq = plan.algorithm.execute_sequential();
        assert_eq!(seq.diff(split.data.as_ref().unwrap()), None);
    }
}
