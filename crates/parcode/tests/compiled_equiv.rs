//! Compiled vs. reference execution equivalence: the flat-index path must
//! reproduce the per-point reference path bitwise, with identical makespans
//! and message traffic, on the paper's SOR/Jacobi/ADI tilings — plus the
//! traversal-count regression test for the gather phase.

use std::sync::Arc;
use tilecc_cluster::{Counter, EngineOptions, MachineModel, MetricsRegistry};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::RMat;
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_tiling::TilingTransform;

fn plans() -> Vec<(&'static str, ParallelPlan)> {
    let sor_nr = RMat::from_fractions(&[
        &[(1, 2), (0, 1), (0, 1)],
        &[(0, 1), (1, 3), (0, 1)],
        &[(-1, 4), (0, 1), (1, 4)],
    ]);
    // The paper's Jacobi non-rectangular tiling (§4.2) with x=2, y=z=4.
    let jacobi_nr = RMat::from_fractions(&[
        &[(1, 2), (-1, 4), (0, 1)],
        &[(0, 1), (1, 4), (0, 1)],
        &[(0, 1), (0, 1), (1, 4)],
    ]);
    vec![
        (
            "sor_rect",
            ParallelPlan::new(
                compile_kernel_with(corpus::SOR, &[("M", 10), ("N", 14)]).unwrap(),
                TilingTransform::rectangular(&[2, 3, 4]).unwrap(),
                Some(2),
            )
            .unwrap(),
        ),
        (
            "sor_nr",
            ParallelPlan::new(
                compile_kernel_with(corpus::SOR, &[("M", 10), ("N", 14)]).unwrap(),
                TilingTransform::new(sor_nr).unwrap(),
                Some(2),
            )
            .unwrap(),
        ),
        (
            "jacobi_rect",
            ParallelPlan::new(
                compile_kernel_with(corpus::JACOBI, &[("T", 8), ("N", 12)]).unwrap(),
                TilingTransform::rectangular(&[2, 4, 4]).unwrap(),
                Some(1),
            )
            .unwrap(),
        ),
        (
            "jacobi_nr",
            ParallelPlan::new(
                compile_kernel_with(corpus::JACOBI, &[("T", 8), ("N", 12)]).unwrap(),
                TilingTransform::new(jacobi_nr).unwrap(),
                Some(1),
            )
            .unwrap(),
        ),
        (
            "adi_rect",
            ParallelPlan::new(
                compile_kernel_with(corpus::ADI, &[("T", 8), ("N", 12)]).unwrap(),
                TilingTransform::rectangular(&[2, 4, 4]).unwrap(),
                Some(0),
            )
            .unwrap(),
        ),
        (
            "adi_paper",
            ParallelPlan::new(
                compile_kernel_with(corpus::ADI_PAPER, &[("T", 8), ("N", 15)]).unwrap(),
                TilingTransform::rectangular(&[3, 5, 5]).unwrap(),
                Some(1),
            )
            .unwrap(),
        ),
    ]
}

fn run(plan: &Arc<ParallelPlan>, strategy: ExecStrategy) -> tilecc_parcode::ExecutionResult {
    execute(
        plan.clone(),
        MachineModel::fast_ethernet_p3(),
        ExecMode::Full,
        strategy,
        Backend::Threaded,
        EngineOptions::default(),
    )
    .unwrap_or_else(|e| panic!("execution failed: {e}"))
}

#[test]
fn compiled_matches_reference_bitwise_with_identical_makespans() {
    for (name, plan) in plans() {
        let seq = plan.algorithm.execute_sequential();
        let total = plan.total_iterations();
        let plan = Arc::new(plan);
        let compiled = run(&plan, ExecStrategy::Compiled);
        let reference = run(&plan, ExecStrategy::Reference);
        assert_eq!(
            compiled.total_iterations as usize, total,
            "{name}: iteration conservation (compiled)"
        );
        assert_eq!(
            compiled.total_iterations, reference.total_iterations,
            "{name}: iteration counts differ"
        );
        assert_eq!(
            compiled.makespan(),
            reference.makespan(),
            "{name}: makespans differ"
        );
        assert_eq!(
            compiled.report.total(Counter::BytesSent),
            reference.report.total(Counter::BytesSent),
            "{name}: message traffic differs"
        );
        let cd = compiled.data.unwrap();
        let rd = reference.data.unwrap();
        assert_eq!(cd.diff(&rd), None, "{name}: compiled vs reference data");
        assert_eq!(seq.diff(&cd), None, "{name}: compiled vs sequential data");
    }
}

/// The gather-phase fix: the reference path walks every tile's TTIS three
/// times per `Full` run (compute, the rank reading its output, gather),
/// so it stays independent of the compiled rows; the compiled path walks
/// no tile at all (boundary tiles compute and gather through clamped plan-time runs),
/// and neither do timing-only runs of the compiled or overlapped strategy
/// (boundary tiles count through the same runs).
#[test]
fn compiled_path_eliminates_duplicate_traversals() {
    for (name, plan) in plans() {
        let deps = plan.deps().clone();
        let tiles: Vec<Vec<i64>> = plan
            .tiled
            .tiles()
            .filter(|t| plan.tiled.tile_valid(t))
            .collect();
        let num_tiles = tiles.len() as u64;
        let boundary = tiles
            .iter()
            .filter(|t| !plan.tiled.tile_is_interior(t))
            .count() as u64;
        let interior_compute = tiles
            .iter()
            .filter(|t| plan.tiled.tile_is_compute_interior(t, &deps))
            .count() as u64;
        let plan = Arc::new(plan);

        let before = plan.tiled.traversal_count();
        let _ = run(&plan, ExecStrategy::Reference);
        let reference_walks = plan.tiled.traversal_count() - before;
        assert_eq!(
            reference_walks,
            3 * num_tiles,
            "{name}: reference path walks each tile three times (compute + output + gather)"
        );

        let before = plan.tiled.traversal_count();
        let _ = run(&plan, ExecStrategy::Compiled);
        let compiled_walks = plan.tiled.traversal_count() - before;
        assert!(
            boundary > 0,
            "{name}: expected boundary tiles, or a zero walk count proves nothing"
        );
        assert_eq!(
            compiled_walks, 0,
            "{name}: compiled path must not walk any tile ({boundary} boundary tiles)"
        );
        assert!(
            compiled_walks < reference_walks,
            "{name}: compiled path must traverse strictly less"
        );
        for strategy in [ExecStrategy::Compiled, ExecStrategy::Overlapped] {
            let before = plan.tiled.traversal_count();
            let _ = execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::TimingOnly,
                strategy,
                Backend::Threaded,
                EngineOptions::default(),
            )
            .unwrap();
            assert_eq!(
                plan.tiled.traversal_count() - before,
                0,
                "{name}: timing-only {strategy:?} run must not walk any tile"
            );
        }
        // The split is only worthwhile if some tiles actually take the
        // dense loop on these paper-sized problems.
        assert!(
            interior_compute > 0,
            "{name}: expected at least one compute-interior tile"
        );
    }
}

/// Timing-only mode must agree with both full-mode strategies on makespan
/// and traffic (addressing is real time; virtual time depends only on
/// iteration counts and message sizes).
#[test]
fn strategies_share_virtual_time_with_timing_only() {
    let (name, plan) = plans().remove(1); // sor_nr: non-trivial lattice
    let plan = Arc::new(plan);
    let timing = execute(
        plan.clone(),
        MachineModel::fast_ethernet_p3(),
        ExecMode::TimingOnly,
        ExecStrategy::Compiled,
        Backend::Threaded,
        EngineOptions::default(),
    )
    .unwrap();
    let full = run(&plan, ExecStrategy::Compiled);
    assert_eq!(timing.makespan(), full.makespan(), "{name}");
    assert_eq!(
        timing.report.total(Counter::BytesSent),
        full.report.total(Counter::BytesSent),
        "{name}"
    );
    assert!(timing.data.is_none());
}

/// Boundary tiles batch too: on a plan with no compute-interior tile at
/// all, each run's window (every source in the space) still goes through
/// the kernel's batch entry, and the data stays bitwise equal to the
/// sequential oracle and to the reference strategy.
#[test]
fn boundary_tiles_batch_their_windows() {
    // Every tile spans the whole t range, so every tile holds points at
    // t = 1, whose t − 1 sources lie outside the space.
    let plan = ParallelPlan::new(
        compile_kernel_with(corpus::JACOBI, &[("T", 4), ("N", 12)]).unwrap(),
        TilingTransform::rectangular(&[4, 6, 6]).unwrap(),
        Some(1),
    )
    .unwrap();
    let deps = plan.deps().clone();
    assert!(
        plan.tiled
            .tiles()
            .all(|t| !plan.tiled.tile_is_compute_interior(&t, &deps)),
        "the plan must have no compute-interior tile"
    );
    let seq = plan.algorithm.execute_sequential();
    let plan = Arc::new(plan);
    let reg = MetricsRegistry::new();
    let compiled = execute(
        plan.clone(),
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
    let report = reg.run_report(&compiled.report.local_times);
    assert_eq!(report.total(Counter::InteriorTiles), 0);
    assert!(
        report.total(Counter::VectorizedPoints) > 0,
        "no boundary tile took the batch entry"
    );
    let reference = run(&plan, ExecStrategy::Reference);
    let cd = compiled.data.unwrap();
    assert_eq!(seq.diff(&cd), None, "compiled vs sequential data");
    assert_eq!(
        cd.diff(&reference.data.unwrap()),
        None,
        "compiled vs reference data"
    );
}

/// 4-D boundary rows end to end: `heat3d.tk` (every one of its tiles is a
/// boundary tile) at a small rect whose rows stay whole in the space, and
/// a variant over a cut space. Compiled and overlapped data equal the
/// scan and the per-point oracle bitwise, and on the rect every point of
/// the compiled run, edge rows included, takes the batch entry.
#[test]
fn heat3d_boundary_rows_batch_whole_and_match_the_scan() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/kernels/heat3d.tk"
    ))
    .unwrap();
    let cut = src.replace(
        "iter z = 1 to N",
        "iter z = max(1, x - 2) to min(N, x + y - 1)",
    );
    assert_ne!(cut, src, "the cut must change the space");
    let params = [("T", 4), ("N", 6)];
    for (name, src, whole) in [("heat3d", &src, true), ("heat3d_cut", &cut, false)] {
        let alg = compile_kernel_with(src, &params).unwrap();
        let seq = alg.execute_sequential();
        assert_eq!(alg.execute_scan().diff(&seq), None, "{name}: scan");
        let plan = ParallelPlan::new(
            alg,
            TilingTransform::rectangular(&[2, 4, 4, 16]).unwrap(),
            Some(1),
        )
        .unwrap();
        let plan = Arc::new(plan);
        for strategy in [ExecStrategy::Compiled, ExecStrategy::Overlapped] {
            let reg = MetricsRegistry::new();
            let result = execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::Full,
                strategy,
                Backend::Threaded,
                EngineOptions {
                    obs: Some(reg.clone()),
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            let report = reg.run_report(&result.report.local_times);
            assert_eq!(report.total(Counter::InteriorTiles), 0, "{name}");
            let data = result.data.unwrap();
            assert_eq!(data.diff(&seq), None, "{name} {strategy:?}: data");
            let (iters, vectorized) = (
                report.total(Counter::Iterations),
                report.total(Counter::VectorizedPoints),
            );
            assert_eq!(iters, plan.total_iterations() as u64, "{name}");
            if whole && strategy == ExecStrategy::Compiled {
                assert_eq!(vectorized, iters, "{name}: edge rows ran per point");
            }
        }
    }
}
