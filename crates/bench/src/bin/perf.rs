//! Wall-clock and virtual-time benchmarks of the compiled execution path.
//!
//! `perf [--test] [--out <path>]` walks the six paper workloads
//! (SOR/Jacobi/ADI under rectangular and non-rectangular tilings) once.
//! For each it
//!
//! 1. checks every optimized hot path bitwise against its baselines
//!    ([`HotPaths::check`]): compute, pack, unpack and gather of a
//!    compute-interior tile against the per-point loops of
//!    [`tilecc_bench::per_point`] and the executor's `reference_*` paths,
//!    and the row-clipped gather of a boundary tile against
//!    `reference_gather_tile`;
//! 2. runs the compiled strategy under the blocking and the overlapped
//!    scheme (the boundary/interior split) in `TimingOnly` mode: the
//!    overlapped virtual makespan must not exceed the blocking one, with
//!    the same bytes sent, and must win by at least 1.1x on at least one
//!    workload;
//! 3. runs the compiled strategy once in `Full` mode with metrics on: its
//!    data must equal `execute_sequential` bitwise, and it gives the
//!    virtual makespan and the batched-point coverage;
//! 4. times each path's baselines and its optimized form in paired rounds
//!    ([`paired_stat`]);
//! 5. times the compiled and reference `Full`-mode walls of a whole run
//!    ([`calibrated_wall`]).
//!
//! Gates: interior compute at least 3x over the reference path on every
//! workload, and at least 1.5x over the per-point loop on at least 4 of
//! the 6. On `sor_rect`, `jacobi_rect`, `adi_rect` and `adi_paper` the
//! compiled run's normalized wall is at most [`DSL_OVERHEAD_BOUND`]x the
//! one recorded by the hand-coded kernel its `.tk` kernel replaced
//! ([`HAND_NORM_MS`]). The record goes to `target/bench/hot_paths.json`.
//! With `--test`, the checks and the overlap gate run, nothing is timed
//! and no JSON is written.
//!
//! `perf --obs-overhead [--test]` instead measures the observability
//! layer: the compiled compute hot path with the executor's disabled-obs
//! gating must be within 2% of the raw loop (hooks are `Option` tests when
//! off), and an end-to-end run with metrics+tracing enabled reports its
//! real cost and writes the same `perf_obs_trace.json` /
//! `perf_obs_metrics.json` artifacts the CLI emits, in the working
//! directory (`--out` is a usage error).
//!
//! `perf --tune-bench [--test] [--out <path>]` runs the `tilecc tune`
//! search on all six paper workloads with the paper's fixed `H` seeded as
//! the baseline, and writes the tuned-vs-fixed comparison to
//! `BENCH_PR9.json` (modeled makespan, comm bytes, winning `H`, tuner
//! counters). Acceptance: the tuned `H`'s modeled makespan is never worse
//! than the paper's fixed `H` on any workload, and strictly better on at
//! least 2 of the 6. With `--test`, smaller iteration spaces and candidate
//! caps are used; the gates still apply.
//!
//! Every record is one `tilecc-bench-v1` object ([`write_record`]) in
//! `target/bench/<file name>` unless `--out` names a path. Any other
//! argument is a usage error (exit 2).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tilecc::matrices;
use tilecc_bench::per_point::{
    compute_tile_fast_per_point, gather_tile_per_cell, pack_region_per_index,
    unpack_region_per_index, HotPaths, Scratch,
};
use tilecc_cluster::obs::json::Json;
use tilecc_cluster::{CommScheme, Counter, EngineOptions, MachineModel, MetricsRegistry};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_parcode::compiled::{
    compute_tile_fast, gather_tile, pack_region, unpack_region, ComputeScratch,
};
use tilecc_parcode::executor::{
    reference_compute_tile, reference_gather_tile, reference_pack, reference_unpack,
};
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_tiling::TilingTransform;

/// Measure the cost of the observability layer on the compiled hot path.
///
/// The executor's per-tile instrumentation reduces to `Option` tests when no
/// registry is installed; this mode replays that gating pattern around the
/// real `compute_tile_fast` call and asserts the disabled-obs loop stays
/// within 2% of the raw loop. It then runs the full engine with metrics and
/// span tracing enabled to report the enabled-mode cost (informative, not
/// asserted — collecting data legitimately costs time) and writes the same
/// trace/metrics artifacts the CLI produces.
fn obs_overhead(smoke: bool) {
    let plan = ParallelPlan::new(
        compile_kernel_with(corpus::SOR, &[("M", 24), ("N", 32)]).unwrap(),
        TilingTransform::new(matrices::sor_rect(4, 6, 8)).unwrap(),
        Some(2),
    )
    .unwrap();
    let hot = HotPaths::new(&plan).expect("the SOR plan has an interior and a boundary tile");
    let (rank, tpos, origin) = (hot.interior.rank, hot.interior.tpos, &hot.interior.origin);
    let chain = plan.chain(rank);
    let kernel = plan.algorithm.kernel.as_ref();
    let (n, q, w) = (plan.dim(), plan.deps().cols(), plan.algorithm.width());

    // A registry that is never installed, opaque to the optimizer so the
    // branch is real, exactly like the executor's `comm.obs()` test.
    let disabled: Option<Arc<MetricsRegistry>> = std::hint::black_box(None);
    let hot_path = (!smoke).then(|| {
        paired_stat(
            "compute",
            chain.tile_points,
            &mut (hot.interior.lds(&plan), ComputeScratch::new(n, q, w)),
            &mut [("raw", &mut |(lds, scr)| {
                compute_tile_fast(chain, lds, tpos, origin, kernel, scr, &chain.walk, None);
            })],
            &mut |(lds, scr)| {
                // The executor's per-tile pattern with obs off: one branch
                // before the tile (timestamp capture skipped) and one after
                // (histogram/span recording skipped).
                let t0 = disabled.as_ref().map(|_| Instant::now());
                compute_tile_fast(chain, lds, tpos, origin, kernel, scr, &chain.walk, None);
                if let Some(reg) = disabled.as_ref() {
                    reg.rank_metrics(rank); // never reached
                    let _ = t0;
                }
            },
        )
    });

    // End-to-end: obs off vs fully enabled (metrics + spans).
    let plan = Arc::new(plan);
    let model = MachineModel::fast_ethernet_p3();
    let e2e = |obs: Option<Arc<MetricsRegistry>>| {
        execute(
            plan.clone(),
            model,
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions {
                obs,
                ..EngineOptions::default()
            },
        )
        .expect("execution failed")
    };
    let walls = (!smoke).then(|| {
        let on = || _ = e2e(Some(MetricsRegistry::new()));
        (calibrated_wall(|| _ = e2e(None)), calibrated_wall(on))
    });

    // One more enabled run whose artifacts we keep.
    let reg = MetricsRegistry::new();
    let res = e2e(Some(reg.clone()));
    let report = reg.run_report(&res.report.local_times);
    std::fs::write("perf_obs_trace.json", reg.chrome_trace(None).to_string()).expect("write trace");
    std::fs::write("perf_obs_metrics.json", report.to_json().pretty()).expect("write metrics");
    println!("wrote perf_obs_trace.json perf_obs_metrics.json");

    let (Some(stat), Some((off, on))) = (hot_path, walls) else {
        println!("obs-overhead smoke: end-to-end ran with obs on; nothing timed");
        return;
    };
    // Two noise-robust estimators of the (near-zero) true overhead, the
    // median of the paired per-round gated/raw ratios (the reciprocal of
    // the median raw/gated ratio, the round count being odd) and the
    // min/min ratio; take the lower. A real regression — say an
    // unconditional timestamp in the tile loop — moves both far past the
    // gate.
    let (gated, (_, raw, speedup)) = (&stat.optimized, &stat.baselines[0]);
    let overhead = (1.0 / speedup).min(gated.min_ns / raw.min_ns) - 1.0;
    println!(
        "compute hot path : raw {:.2} ns/iter, obs-off gated {:.2} ns/iter \
         (paired overhead {:+.3}%)",
        raw.median_ns,
        gated.median_ns,
        overhead * 100.0
    );
    println!(
        "end-to-end       : obs off {:.1} ms, obs on {:.1} ms ({:+.1}% normalized)",
        off.wall_ms,
        on.wall_ms,
        (on.norm_ms / off.norm_ms - 1.0) * 100.0
    );
    assert!(
        overhead < 0.02,
        "acceptance: disabled observability must cost <2% on the compiled hot path \
         (got {:+.3}%)",
        overhead * 100.0
    );
}

/// Wall-clock statistics of one path in ns per inner iteration: the median
/// round is the headline number (noise-robust); the minimum is kept as the
/// optimistic floor.
struct WallStat {
    median_ns: f64,
    min_ns: f64,
}

const WALL_WARMUP_RUNS: usize = 3;
const WALL_ROUNDS: usize = 15;
const MIN_ROUND_MS: u64 = 10;

/// One hot path's paired timing in ns per inner iteration.
struct PathStat {
    name: &'static str,
    inner: usize,
    optimized: WallStat,
    /// Each baseline's label, wall statistics and speedup: the median of
    /// its per-round baseline/optimized ratios.
    baselines: Vec<(&'static str, WallStat, f64)>,
}

/// One timed arm of [`paired_stat`].
type Arm<'a, S> = &'a mut dyn FnMut(&mut S);

/// Paired wall-clock comparison of `baselines` and an `optimized` path on
/// the shared `state`: warmup runs of every arm, then `WALL_ROUNDS` rounds
/// that each time one batch of at least `MIN_ROUND_MS` of every baseline
/// and then of the optimized path, back to back, so slow drift (frequency
/// scaling, noisy neighbours) cancels within the round.
fn paired_stat<S>(
    name: &'static str,
    inner: usize,
    state: &mut S,
    baselines: &mut [(&'static str, Arm<'_, S>)],
    optimized: Arm<'_, S>,
) -> PathStat {
    for _ in 0..WALL_WARMUP_RUNS {
        for (_, f) in baselines.iter_mut() {
            f(state);
        }
        optimized(state);
    }
    let mut round = |f: &mut dyn FnMut(&mut S)| {
        let t0 = Instant::now();
        let mut reps: u64 = 0;
        while reps < 3 || t0.elapsed() < Duration::from_millis(MIN_ROUND_MS) {
            f(state);
            reps += 1;
        }
        t0.elapsed().as_nanos() as f64 / (reps as usize * inner) as f64
    };
    let mut base_ns = vec![Vec::with_capacity(WALL_ROUNDS); baselines.len()];
    let mut opt_ns = Vec::with_capacity(WALL_ROUNDS);
    for _ in 0..WALL_ROUNDS {
        for ((_, f), ns) in baselines.iter_mut().zip(&mut base_ns) {
            ns.push(round(&mut **f));
        }
        opt_ns.push(round(&mut *optimized));
    }
    let stat = |mut s: Vec<f64>| {
        s.sort_by(f64::total_cmp);
        WallStat {
            median_ns: s[s.len() / 2],
            min_ns: s[0],
        }
    };
    let baselines = baselines
        .iter()
        .zip(base_ns)
        .map(|((label, _), ns)| {
            let ratios = ns.iter().zip(&opt_ns).map(|(b, o)| b / o).collect();
            (*label, stat(ns), stat(ratios).median_ns)
        })
        .collect();
    PathStat {
        name,
        inner,
        optimized: stat(opt_ns),
        baselines,
    }
}

/// Walls are normalized to a machine where [`calibration_ms`]'s loop
/// takes this long: `norm = wall · CAL_REF_MS / calibration_ms()`, with the
/// loop timed in the same process, just before each timed run.
const CAL_REF_MS: f64 = 25.0;

/// Timed runs per [`calibrated_wall`]; the median normalized run is kept.
const WALL_RUNS: usize = 9;

/// Wall ms of a fixed, dependent integer loop run once on every available
/// core at the same time, until the last copy finishes: cores lost to
/// other load or a lower clock slow it as they slow the multi-threaded
/// engine.
fn calibration_ms() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| {
                let mut x = std::hint::black_box(1u64);
                for i in 0..8_000_000u64 {
                    x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7);
                }
                std::hint::black_box(x)
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// One end-to-end run's wall: the median of [`WALL_RUNS`] runs by
/// normalized wall, with that run's raw wall and calibration.
#[derive(Clone, Copy)]
struct Wall {
    norm_ms: f64,
    wall_ms: f64,
    cal_ms: f64,
}

impl Wall {
    fn json(self) -> Json {
        Json::obj([
            ("norm_ms", self.norm_ms.into()),
            ("wall_ms", self.wall_ms.into()),
            ("cal_ms", self.cal_ms.into()),
        ])
    }
}

/// The wall of `run`, each of [`WALL_RUNS`] runs timed right after its own
/// calibration, so a change in machine speed between runs scales both.
/// Every end-to-end wall `perf` reports is timed this way.
fn calibrated_wall(mut run: impl FnMut()) -> Wall {
    let mut runs: Vec<Wall> = (0..WALL_RUNS)
        .map(|_| {
            let cal_ms = calibration_ms();
            let t0 = Instant::now();
            run();
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            Wall {
                norm_ms: wall_ms * CAL_REF_MS / cal_ms,
                wall_ms,
                cal_ms,
            }
        })
        .collect();
    runs.sort_by(|a, b| a.norm_ms.total_cmp(&b.norm_ms));
    runs[WALL_RUNS / 2]
}

/// Gate: end-to-end, a corpus kernel's normalized wall may be at most this
/// factor over the normalized wall the hand-coded kernel it replaced
/// recorded ([`HAND_NORM_MS`]). The tape evaluates the same arithmetic
/// through an op-at-a-time interpreter over lane blocks, and measured
/// within ~1.1x of the hand-coded kernels; 1.5x leaves headroom for noisy
/// machines while still catching an accidental de-batching regression.
const DSL_OVERHEAD_BOUND: f64 = 1.5;

/// `Full`-mode walls of the hand-coded Rust kernels that the `.tk` corpus
/// replaced, normalized by [`CAL_REF_MS`] as [`calibrated_wall`] times a
/// run: the median of five processes on a 2-vCPU x86-64 VM, recorded
/// before the hand-coded kernels were removed, at these workloads' sizes,
/// tilings and mappings.
const HAND_NORM_MS: [(&str, f64); 4] = [
    ("sor_rect", 29.83),
    ("jacobi_rect", 12.53),
    ("adi_rect", 12.89),
    ("adi_paper", 13.47),
];

/// Machine identification for the bench JSON: OS, architecture, logical
/// CPU count, and `cpu_model` as given.
fn machine(cpu_model: &str) -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("os", std::env::consts::OS.into()),
        ("arch", std::env::consts::ARCH.into()),
        ("cpus", cpus.into()),
        ("cpu_model", cpu_model.into()),
    ])
}

/// The CPU model string when `/proc/cpuinfo` offers one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Every `perf` record: the `tilecc-bench-v1` envelope of `schema`,
/// `bench`, `machine`, `timing` (only where the mode times anything),
/// `workloads` and `gates`, printed pretty to `out_path`.
fn write_record(
    out_path: &str,
    bench: &str,
    timing: Option<Json>,
    workloads: Vec<(&str, Json)>,
    gates: Json,
) {
    let mut fields = vec![
        ("schema", "tilecc-bench-v1".into()),
        ("bench", bench.into()),
        ("machine", machine(&cpu_model())),
    ];
    fields.extend(timing.map(|t| ("timing", t)));
    fields.extend([("workloads", Json::obj(workloads)), ("gates", gates)]);
    std::fs::write(out_path, Json::obj(fields).pretty()).expect("write bench JSON");
}

/// The paper-workload bench (see the module doc), written to `out_path`.
fn hot_paths(out_path: &str, smoke: bool) {
    let model = MachineModel::fast_ethernet_p3();
    let mut records = Vec::new();
    let (mut min_reference, mut per_point_wins) = (f64::INFINITY, 0u32);
    let (mut max_overlap, mut max_dsl_overhead) = (0.0f64, 0.0f64);
    for (name, plan) in paper_workloads() {
        println!("== {name} ==");
        let plan = Arc::new(plan);
        let hot = HotPaths::new(&plan).unwrap_or_else(|e| panic!("{name}: {e}"));
        let batched = hot.check().unwrap_or_else(|e| panic!("{name}: {e}"));
        // SOR's skewed innermost dependence has lag 1, so its plan cannot
        // batch (the analysis proves any chunk would read stale values);
        // it must still win on the row-copy pack/unpack/gather paths.
        let expect_batched = !name.starts_with("sor");
        assert!(
            !expect_batched || batched > 0,
            "{name}: plan-time lag analysis produced no batched rows"
        );
        let points = plan.chain(hot.interior.rank).tile_points;
        let paths = if smoke { Vec::new() } else { time_paths(&hot) };

        let run = |mode, strategy, scheme, obs| {
            let opts = EngineOptions {
                scheme,
                obs,
                ..EngineOptions::default()
            };
            execute(plan.clone(), model, mode, strategy, Backend::Threaded, opts)
                .expect("execution failed")
        };

        // --- overlap gate: deterministic virtual makespans ---------------
        let timing_only = |scheme| {
            let (reg, compiled) = (MetricsRegistry::new(), ExecStrategy::Compiled);
            let res = run(ExecMode::TimingOnly, compiled, scheme, Some(reg.clone()));
            let report = reg.run_report(&res.report.local_times);
            let hidden: f64 = report.ranks.iter().map(|r| r.overlap_hidden).sum();
            (res.report.total(Counter::BytesSent), res.makespan(), hidden)
        };
        let (blocking_bytes, blocking, _) = timing_only(CommScheme::Blocking);
        let (overlapped_bytes, overlapped, hidden) = timing_only(CommScheme::Overlapped);
        assert_eq!(
            blocking_bytes, overlapped_bytes,
            "{name}: overlapping must not change traffic"
        );
        assert!(
            overlapped <= blocking + 1e-12,
            "acceptance: {name} overlapped {overlapped} must not exceed blocking {blocking}"
        );
        let overlap_speedup = blocking / overlapped;
        max_overlap = max_overlap.max(overlap_speedup);

        // --- end-to-end: data, virtual makespan, batch coverage, walls ---
        let reg = MetricsRegistry::new();
        let full = run(
            ExecMode::Full,
            ExecStrategy::Compiled,
            CommScheme::Blocking,
            Some(reg.clone()),
        );
        let data = full.data.as_ref().expect("a Full run returns its data");
        if let Some(bad) = plan.algorithm.execute_sequential().diff(data) {
            panic!("{name}: parallel data differs from sequential at {bad:?}");
        }
        let report = reg.run_report(&full.report.local_times);
        let e2e_vectorized = report.total(Counter::VectorizedPoints);
        let e2e_iterations = report.total(Counter::Iterations);
        assert!(
            !expect_batched || e2e_vectorized > 0,
            "{name}: end-to-end run reported no batched points"
        );
        let walls = (!smoke).then(|| {
            let wall = |strategy| {
                calibrated_wall(|| _ = run(ExecMode::Full, strategy, CommScheme::Blocking, None))
            };
            (wall(ExecStrategy::Compiled), wall(ExecStrategy::Reference))
        });

        // --- report ------------------------------------------------------
        let mut path_records = Vec::new();
        for p in &paths {
            let mut line = format!(
                "  {:<15} optimized {:>8.2} ns/iter",
                p.name, p.optimized.median_ns
            );
            let mut fields = vec![
                ("optimized_ns".to_string(), p.optimized.median_ns.into()),
                ("optimized_min_ns".to_string(), p.optimized.min_ns.into()),
            ];
            for (label, stat, speedup) in &p.baselines {
                let _ = write!(line, "  {label} {:>8.2} ({speedup:>5.2}x)", stat.median_ns);
                fields.extend([
                    (format!("{label}_ns"), stat.median_ns.into()),
                    (format!("{label}_min_ns"), stat.min_ns.into()),
                    (format!("{label}_speedup"), (*speedup).into()),
                ]);
                if p.name == "compute" && *label == "reference" {
                    min_reference = min_reference.min(*speedup);
                }
                if p.name == "compute" && *label == "per_point" && *speedup >= 1.5 {
                    per_point_wins += 1;
                }
            }
            println!("{line}  ({} iters)", p.inner);
            fields.push(("iters".to_string(), p.inner.into()));
            path_records.push((p.name.to_string(), Json::Obj(fields)));
        }
        if smoke {
            println!("  every hot path agrees bitwise with its baselines");
        }
        println!(
            "  overlap         blocking {blocking} s  overlapped {overlapped} s  \
             speedup {overlap_speedup:.3}x  hidden {hidden:.6} s"
        );
        println!(
            "  end-to-end      batched {batched}/{points} tile points, \
             {e2e_vectorized}/{e2e_iterations} iterations, data equals sequential"
        );
        let overlap = Json::obj([
            ("blocking_makespan", blocking.into()),
            ("overlapped_makespan", overlapped.into()),
            ("speedup", overlap_speedup.into()),
            ("overlap_hidden", hidden.into()),
        ]);
        let mut record = vec![
            ("paths", Json::Obj(path_records)),
            ("tile_points", points.into()),
            ("batched_points", batched.into()),
            ("batched_fraction", (batched as f64 / points as f64).into()),
            ("e2e_vectorized_points", e2e_vectorized.into()),
            ("e2e_iterations", e2e_iterations.into()),
            ("virtual_makespan_s", full.makespan().into()),
        ];
        if let Some((compiled, reference)) = walls {
            println!(
                "  Full-mode wall  compiled {:.2} ms  reference {:.2} ms normalized ({:.2}x)",
                compiled.norm_ms,
                reference.norm_ms,
                reference.norm_ms / compiled.norm_ms
            );
            record.extend([
                ("e2e_wall", compiled.json()),
                ("e2e_reference_wall", reference.json()),
            ]);
            if let Some(&(_, hand_ms)) = HAND_NORM_MS.iter().find(|(n, _)| *n == name) {
                let overhead = compiled.norm_ms / hand_ms;
                max_dsl_overhead = max_dsl_overhead.max(overhead);
                println!("  hand-coded      {hand_ms:.2} ms normalized (.tk {overhead:.2}x)");
                record.extend([
                    ("hand_norm_ms", hand_ms.into()),
                    ("dsl_overhead", overhead.into()),
                ]);
            }
        }
        record.push(("overlap", overlap));
        records.push((name, Json::obj(record)));
    }
    assert!(
        max_overlap >= 1.1,
        "acceptance: overlapping must win >= 1.1x on at least one paper workload \
         (best {max_overlap:.3}x)"
    );
    if smoke {
        println!(
            "smoke: every hot path and every run's data checked and the overlap gate passed; \
             nothing timed, no JSON written"
        );
        return;
    }
    assert!(
        min_reference >= 3.0,
        "acceptance: interior compute must be >= 3x over the reference path on every \
         paper workload (got {min_reference:.2}x)"
    );
    assert!(
        per_point_wins >= 4,
        "acceptance: interior compute must be >= 1.5x over the per-point loop on at least \
         4 of 6 paper workloads (got {per_point_wins})"
    );
    assert!(
        max_dsl_overhead <= DSL_OVERHEAD_BOUND,
        "acceptance: corpus kernels must stay within {DSL_OVERHEAD_BOUND}x of the recorded \
         hand-coded walls end-to-end, normalized (worst {max_dsl_overhead:.2}x)"
    );
    let timing = Json::obj([
        ("unit", "ns_per_iter".into()),
        ("warmup_runs", WALL_WARMUP_RUNS.into()),
        ("rounds", WALL_ROUNDS.into()),
        ("statistic", "median".into()),
        ("speedup", "median of paired per-round ratios".into()),
        ("min_round_ms", MIN_ROUND_MS.into()),
        ("wall_runs", WALL_RUNS.into()),
        (
            "wall",
            "median run by norm_ms = wall_ms * cal_ref_ms / cal_ms".into(),
        ),
        ("cal_ref_ms", CAL_REF_MS.into()),
    ]);
    let gates = Json::obj([
        ("min_compute_speedup_reference", min_reference.into()),
        ("compute_workloads_ge_1_5x_per_point", per_point_wins.into()),
        ("max_overlap_speedup", max_overlap.into()),
        ("max_dsl_overhead", max_dsl_overhead.into()),
        ("dsl_overhead_bound", DSL_OVERHEAD_BOUND.into()),
    ]);
    write_record(
        out_path,
        "paper-workload hot paths vs per-point and reference baselines",
        Some(timing),
        records,
        gates,
    );
    println!(
        "wrote {out_path} (compute >= {min_reference:.2}x over reference; {per_point_wins}/6 \
         workloads >= 1.5x over per-point; max overlap speedup {max_overlap:.3}x; \
         max .tk overhead {max_dsl_overhead:.2}x of {DSL_OVERHEAD_BOUND}x)"
    );
}

/// Every hot path of `hot` timed against its baselines by [`paired_stat`],
/// each from the state [`HotPaths::check`] checks it on.
fn time_paths(hot: &HotPaths) -> Vec<PathStat> {
    let (plan, s, pp) = (hot.plan, &hot.interior, &hot.pp);
    let (n, q, w) = (plan.dim(), plan.deps().cols(), plan.algorithm.width());
    let (chain, kernel) = (plan.chain(s.rank), plan.algorithm.kernel.as_ref());
    let (tpos, origin, tile) = (s.tpos, &s.origin[..], &s.tile[..]);
    let points = chain.tile_points;

    let mut state = (
        s.lds(plan),
        Scratch::new(n, q, w),
        ComputeScratch::new(n, q, w),
    );
    let mut paths = vec![paired_stat(
        "compute",
        points,
        &mut state,
        &mut [
            ("per_point", &mut |(lds, scr, _)| {
                compute_tile_fast_per_point(pp, lds, tpos, origin, kernel, scr);
            }),
            ("reference", &mut |(lds, _, _)| {
                reference_compute_tile(plan, lds, tpos, tile);
            }),
        ],
        &mut |(lds, _, scr)| {
            compute_tile_fast(chain, lds, tpos, origin, kernel, scr, &chain.walk, None);
        },
    )];

    let lds = s.lds(plan);
    if let Some((dm_idx, ds_idx)) = hot.region {
        let count = plan.region_counts[dm_idx];
        paths.push(paired_stat(
            "pack",
            count,
            &mut vec![0.0f64; count * w],
            &mut [
                ("per_point", &mut |p| {
                    pack_region_per_index(pp, &lds, tpos, dm_idx, p)
                }),
                ("reference", &mut |p| {
                    reference_pack(plan, &lds, tpos, dm_idx, p)
                }),
            ],
            &mut |p| pack_region(chain, &lds, tpos, dm_idx, p),
        ));
        let payload = hot.unpack_payload(ds_idx);
        paths.push(paired_stat(
            "unpack",
            payload.len() / w,
            &mut s.lds(plan),
            &mut [
                ("per_point", &mut |lds| {
                    unpack_region_per_index(pp, lds, tpos, ds_idx, &payload).unwrap();
                }),
                ("reference", &mut |lds| {
                    reference_unpack(plan, lds, tpos, ds_idx, dm_idx, &payload);
                }),
            ],
            &mut |lds| unpack_region(chain, lds, tpos, ds_idx, &payload).unwrap(),
        ));
    }

    let (rows, in_points) = s.outputs(plan, &lds);
    paths.push(paired_stat(
        "gather",
        points,
        &mut hot.data_space(),
        &mut [
            ("per_point", &mut |ds| {
                gather_tile_per_cell(pp, &lds, tpos, origin, ds)
            }),
            ("reference", &mut |ds| {
                _ = reference_gather_tile(plan, &in_points, tile, ds)
            }),
        ],
        &mut |ds| _ = gather_tile(chain, &rows, origin, None, ds),
    ));

    let b = &hot.boundary;
    let (bchain, clamp) = (plan.chain(b.rank), plan.clamp.at(&b.origin));
    let (rows, in_points) = b.outputs(plan, &b.lds(plan));
    paths.push(paired_stat(
        "gather_boundary",
        plan.tiled.tile_iterations(&b.tile).count(),
        &mut hot.data_space(),
        &mut [("reference", &mut |ds| {
            _ = reference_gather_tile(plan, &in_points, &b.tile, ds)
        })],
        &mut |ds| _ = gather_tile(bchain, &rows, &b.origin, Some(&clamp), ds),
    ));
    paths
}

/// The paper's SOR/Jacobi/ADI workloads under their rectangular and
/// non-rectangular tilings.
fn paper_workloads() -> Vec<(&'static str, ParallelPlan)> {
    vec![
        (
            "sor_rect",
            ParallelPlan::new(
                compile_kernel_with(corpus::SOR, &[("M", 24), ("N", 32)]).unwrap(),
                TilingTransform::new(matrices::sor_rect(4, 6, 8)).unwrap(),
                Some(2),
            )
            .unwrap(),
        ),
        (
            "sor_nr",
            ParallelPlan::new(
                compile_kernel_with(corpus::SOR, &[("M", 24), ("N", 32)]).unwrap(),
                TilingTransform::new(matrices::sor_nr(4, 6, 8)).unwrap(),
                Some(2),
            )
            .unwrap(),
        ),
        (
            "jacobi_rect",
            ParallelPlan::new(
                compile_kernel_with(corpus::JACOBI, &[("T", 16), ("N", 24)]).unwrap(),
                TilingTransform::new(matrices::jacobi_rect(4, 6, 6)).unwrap(),
                Some(1),
            )
            .unwrap(),
        ),
        (
            "jacobi_nr",
            ParallelPlan::new(
                compile_kernel_with(corpus::JACOBI, &[("T", 16), ("N", 24)]).unwrap(),
                TilingTransform::new(matrices::jacobi_nr(4, 6, 6)).unwrap(),
                Some(1),
            )
            .unwrap(),
        ),
        (
            "adi_rect",
            ParallelPlan::new(
                compile_kernel_with(corpus::ADI, &[("T", 16), ("N", 24)]).unwrap(),
                TilingTransform::new(matrices::adi_rect(4, 6, 6)).unwrap(),
                Some(0),
            )
            .unwrap(),
        ),
        (
            "adi_paper",
            ParallelPlan::new(
                compile_kernel_with(corpus::ADI_PAPER, &[("T", 16), ("N", 24)]).unwrap(),
                TilingTransform::new(matrices::adi_rect(4, 6, 6)).unwrap(),
                Some(1),
            )
            .unwrap(),
        ),
    ]
}

/// `tilecc tune` vs the paper's fixed `H` on the six paper workloads,
/// written to `BENCH_PR9.json`. The fixed `H` is seeded into the tuner's
/// candidate list, so "tuned never worse" is structural; "strictly better
/// on ≥ 2 workloads" is the real gate — the cone-derived search space must
/// actually contain wins the paper's hand-picked matrices miss.
fn tune_bench(out_path: &str, smoke: bool) {
    use tilecc::{tune_labeled, TuneOptions, Variant, Workload};
    let model = MachineModel::fast_ethernet_p3();
    let (sor, jacobi, adi, cap) = if smoke {
        (
            Workload::Sor { m: 6, n: 9 },
            Workload::Jacobi { t: 6, n: 8 },
            Workload::Adi { t: 6, n: 8 },
            48,
        )
    } else {
        (
            Workload::Sor { m: 12, n: 18 },
            Workload::Jacobi { t: 8, n: 12 },
            Workload::Adi { t: 8, n: 12 },
            128,
        )
    };
    type TuneCase = (&'static str, Workload, Variant, (i64, i64, i64));
    let cases: [TuneCase; 6] = [
        ("sor_rect", sor, Variant::Rect, (2, 3, 2)),
        ("sor_nr", sor, Variant::NonRect, (2, 3, 2)),
        ("jacobi_rect", jacobi, Variant::Rect, (2, 4, 3)),
        ("jacobi_nr", jacobi, Variant::NonRect, (2, 4, 3)),
        ("adi_rect", adi, Variant::Rect, (2, 3, 2)),
        ("adi_nr", adi, Variant::NonRect, (2, 3, 2)),
    ];

    let mut records = Vec::new();
    let mut strict_wins = 0u32;
    let nc = cases.len();
    for (name, w, variant, (x, y, z)) in cases {
        let alg = w.algorithm();
        let fixed_h = w.tiling(variant, x, y, z);
        let mut opts = TuneOptions::new(x * y * z, w.mapping_dim());
        opts.max_candidates = cap;
        opts.include = vec![fixed_h];
        let out =
            tune_labeled(&alg, &opts, model, &w.label()).expect("paper kernels have a tiling cone");
        let best = out
            .best()
            .unwrap_or_else(|| panic!("{name}: no candidate survived the tuner"));
        let fixed = out
            .best_included()
            .unwrap_or_else(|| panic!("{name}: the paper-fixed H was not evaluated"));
        assert!(
            best.summary.makespan <= fixed.summary.makespan,
            "{name}: tuned makespan {} worse than fixed {}",
            best.summary.makespan,
            fixed.summary.makespan
        );
        let strict = best.summary.makespan < fixed.summary.makespan;
        strict_wins += u32::from(strict);
        let improvement = fixed.summary.makespan / best.summary.makespan;
        println!(
            "== {name} == fixed {:.6} tuned {:.6} ({:.3}x){} [{} evaluated]",
            fixed.summary.makespan,
            best.summary.makespan,
            improvement,
            if strict { " strict win" } else { "" },
            out.evaluated
        );
        let cand = |c: &tilecc::TunedCandidate| {
            Json::obj([
                ("h", tilecc::tune::fmt_h(&c.h).into()),
                ("makespan", c.summary.makespan.into()),
                ("bytes", c.summary.bytes.into()),
                ("messages", c.summary.messages.into()),
                ("procs", c.summary.procs.into()),
                ("speedup", c.summary.speedup.into()),
            ])
        };
        let counters = Json::obj([
            ("generated", out.generated.into()),
            ("invalid", out.invalid.into()),
            ("illegal", out.illegal.into()),
            ("deduped", out.deduped.into()),
            ("truncated", out.truncated.into()),
            ("failed", out.failed.into()),
            ("evaluated", out.evaluated.into()),
        ]);
        records.push((
            name,
            Json::obj([
                ("kernel", w.label().into()),
                ("volume", (x * y * z).into()),
                ("m", w.mapping_dim().into()),
                ("fixed_variant", variant.label().into()),
                ("fixed", cand(fixed)),
                ("tuned", cand(best)),
                ("improvement", improvement.into()),
                ("strict_win", strict.into()),
                ("counters", counters),
            ]),
        ));
    }
    let gates = Json::obj([
        ("tuned_never_worse", true.into()),
        ("strict_wins", strict_wins.into()),
        ("required_strict_wins", 2u32.into()),
    ]);
    assert!(
        strict_wins >= 2,
        "tuner strictly beat the paper's fixed H on only {strict_wins} of {nc} workloads (need 2)"
    );
    write_record(
        out_path,
        "tiling auto-tuner vs the paper's fixed H, modeled on fast_ethernet_p3",
        None,
        records,
        gates,
    );
    println!("wrote {out_path} ({strict_wins}/{nc} strict wins)");
}

/// The three `perf` modes.
#[derive(Debug, PartialEq)]
enum Mode {
    HotPaths,
    ObsOverhead,
    TuneBench,
}

/// A parsed command line: the mode, `--test` and `--out`.
#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    smoke: bool,
    out: Option<String>,
}

/// Parse `perf`'s arguments; an error is a usage error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut smoke, mut out, mut mode) = (false, None, None);
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--test" => smoke = true,
            "--out" => out = Some(args.next().ok_or("--out needs a path")?),
            "--obs-overhead" if mode.is_none() => mode = Some(Mode::ObsOverhead),
            "--tune-bench" if mode.is_none() => mode = Some(Mode::TuneBench),
            _ => return Err(format!("unknown or second mode argument `{a}`")),
        }
    }
    let mode = mode.unwrap_or(Mode::HotPaths);
    if mode == Mode::ObsOverhead && out.is_some() {
        return Err("--obs-overhead takes no --out: it writes into the working directory".into());
    }
    Ok(Args { mode, smoke, out })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}\nusage: perf [--obs-overhead | --tune-bench] [--test] [--out <path>]");
        std::process::exit(2)
    });
    // Without `--out` a record goes under `target/bench/`, so a local run
    // never rewrites the tracked copy at the repo root.
    let out = |name: &str| {
        args.out.clone().unwrap_or_else(|| {
            std::fs::create_dir_all("target/bench").expect("create target/bench");
            format!("target/bench/{name}")
        })
    };
    match args.mode {
        Mode::HotPaths => hot_paths(&out("hot_paths.json"), args.smoke),
        Mode::ObsOverhead => obs_overhead(args.smoke),
        Mode::TuneBench => tune_bench(&out("BENCH_PR9.json"), args.smoke),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_record_keeps_a_quoted_cpu_model() {
        let model = r#"Vendor "Fast" CPU @ 3.0GHz \ rev\t2"#;
        let record = machine(model);
        for text in [record.to_string(), record.pretty()] {
            let back = tilecc_cluster::obs::json::parse(&text).unwrap();
            assert_eq!(back, record);
            assert_eq!(back.get("cpu_model").and_then(Json::as_str), Some(model));
        }
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn arguments_parse_into_one_of_three_modes() {
        assert_eq!(
            parse(&["--tune-bench", "--out", "x"]),
            Ok(Args {
                mode: Mode::TuneBench,
                smoke: false,
                out: Some("x".into()),
            })
        );
        assert_eq!(
            parse(&["--test"]).map(|a| (a.mode, a.smoke)),
            Ok((Mode::HotPaths, true))
        );
        for bad in [
            &["--obs-overhead", "--out", "x"][..],
            &["--out", "x", "--obs-overhead"],
            &["--dsl-bench"],
            &["--tune-bench", "--obs-overhead"],
            &["--out"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be a usage error");
        }
    }
}
