//! Compiled vs. reference execution equivalence: the flat-index path must
//! reproduce the per-point reference path bitwise, with identical makespans
//! and message traffic, on the paper's SOR/Jacobi/ADI tilings — plus the
//! traversal-count regression test for the gather phase.

use std::sync::Arc;
use tilecc_cluster::{EngineOptions, MachineModel};
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
            compiled.report.total_bytes(),
            reference.report.total_bytes(),
            "{name}: message traffic differs"
        );
        let cd = compiled.data.unwrap();
        let rd = reference.data.unwrap();
        assert_eq!(cd.diff(&rd), None, "{name}: compiled vs reference data");
        assert_eq!(seq.diff(&cd), None, "{name}: compiled vs sequential data");
    }
}

/// The gather-phase fix: the reference path walks every tile's TTIS twice
/// per `Full` run (compute + gather); the compiled path walks no tile at
/// all (boundary tiles compute and gather through clamped plan-time runs).
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
            2 * num_tiles,
            "{name}: reference path walks each tile twice (compute + gather)"
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
        timing.report.total_bytes(),
        full.report.total_bytes(),
        "{name}"
    );
    assert!(timing.data.is_none());
}
