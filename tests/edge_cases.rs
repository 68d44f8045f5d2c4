//! Degenerate-configuration integration tests: single tiles, single
//! processors, unit tiles, tiny spaces — the framework must stay correct at
//! every boundary of its parameter space.

use std::sync::Arc;
use tilecc::{matrices, Pipeline};
use tilecc_cluster::{EngineOptions, MachineModel};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::IMat;
use tilecc_loopnest::{Algorithm, Kernel, LoopNest};
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_polytope::Polyhedron;
use tilecc_tiling::TilingTransform;

fn verify(alg: Algorithm, t: TilingTransform, m: Option<usize>) -> usize {
    let seq = alg.execute_sequential();
    let plan = Arc::new(ParallelPlan::new(alg, t, m).unwrap());
    let procs = plan.num_procs();
    let res = execute(
        plan,
        MachineModel::fast_ethernet_p3(),
        ExecMode::Full,
        ExecStrategy::Compiled,
        Backend::Threaded,
        EngineOptions::default(),
    )
    .unwrap();
    assert_eq!(seq.diff(res.data.as_ref().unwrap()), None);
    procs
}

#[test]
fn one_tile_covers_the_whole_space() {
    // Tile larger than the space: exactly one tile, one processor, no
    // communication.
    let alg = compile_kernel_with(corpus::ADI, &[("T", 4), ("N", 5)]).unwrap();
    let t = TilingTransform::rectangular(&[100, 100, 100]).unwrap();
    let procs = verify(alg, t, Some(0));
    assert_eq!(procs, 1);
}

#[test]
fn single_processor_chain() {
    // Grid dims fully covered by one tile each; only the chain dimension is
    // split: one processor, many tiles, all dependencies intra-chain.
    let alg = compile_kernel_with(corpus::ADI, &[("T", 12), ("N", 5)]).unwrap();
    let t = TilingTransform::rectangular(&[2, 100, 100]).unwrap();
    let procs = verify(alg, t, Some(0));
    assert_eq!(procs, 1);
}

#[test]
fn unit_tiles_maximize_communication() {
    // v = (1,1,1): every iteration is its own tile; heavy messaging.
    let alg = compile_kernel_with(corpus::ADI, &[("T", 3), ("N", 4)]).unwrap();
    let t = TilingTransform::rectangular(&[1, 1, 1]).unwrap();
    let procs = verify(alg, t, Some(0));
    assert_eq!(procs, 16);
}

#[test]
fn single_point_space() {
    struct One;
    impl Kernel for One {
        fn width(&self) -> usize {
            1
        }
        fn compute(&self, _j: &[i64], reads: &[f64], out: &mut [f64]) {
            out[0] = reads[0] + 1.0;
        }
        fn initial(&self, _j: &[i64], out: &mut [f64]) {
            out[0] = 41.0;
        }
    }
    let space = Polyhedron::from_box(&[5, 5], &[5, 5]);
    let deps = IMat::from_rows(&[&[1], &[0]]);
    let alg = Algorithm::new("one", LoopNest::new(space, deps), Arc::new(One));
    let seq = alg.execute_sequential();
    assert_eq!(seq.get(&[5, 5]), Some(42.0));
    let t = TilingTransform::rectangular(&[3, 3]).unwrap();
    let plan = Arc::new(ParallelPlan::new(alg, t, Some(0)).unwrap());
    assert_eq!(plan.num_procs(), 1);
    let res = execute(
        plan,
        MachineModel::fast_ethernet_p3(),
        ExecMode::Full,
        ExecStrategy::Compiled,
        Backend::Threaded,
        EngineOptions::default(),
    )
    .unwrap();
    assert_eq!(res.total_iterations, 1);
    assert_eq!(res.data.unwrap().get(&[5, 5]), Some(42.0));
}

#[test]
fn chain_of_length_one_per_processor() {
    // The mapping dimension has exactly one tile: the "chains" degenerate to
    // single tiles and all communication is inter-processor.
    let alg = compile_kernel_with(corpus::ADI, &[("T", 2), ("N", 8)]).unwrap();
    let t = TilingTransform::rectangular(&[4, 2, 2]).unwrap();
    // i, j ∈ [1, 8] with edge 2 ⇒ tile indices 0..=4 (5 per dim, the first
    // and last partially filled).
    let procs = verify(alg, t, Some(0));
    assert_eq!(procs, 25);
}

#[test]
fn asymmetric_extreme_aspect_ratio_tiles() {
    let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 10)]).unwrap();
    for sizes in [[1, 30, 2], [8, 1, 40], [40, 40, 1]] {
        let t = TilingTransform::rectangular(&sizes).unwrap();
        verify(alg.clone(), t, None);
    }
}

#[test]
fn zero_comm_model_single_tile_speedup_is_one() {
    let alg = compile_kernel_with(corpus::ADI, &[("T", 4), ("N", 5)]).unwrap();
    let t = TilingTransform::rectangular(&[100, 100, 100]).unwrap();
    let pipe = Pipeline::compile_transform(alg, t, Some(0)).unwrap();
    let summary = pipe
        .simulate(
            MachineModel::zero_comm(1e-6),
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
    let speedup = summary.speedup;
    assert!((speedup - 1.0).abs() < 1e-9, "speedup = {speedup}");
}

#[test]
fn non_rectangular_unit_determinant_tiles() {
    // A cone tiling with tile size 1 — every lattice cell is one iteration.
    let alg = compile_kernel_with(corpus::ADI, &[("T", 3), ("N", 4)]).unwrap();
    let t = TilingTransform::new(matrices::adi_nr3(1, 1, 1)).unwrap();
    assert_eq!(t.tile_size(), Ok(1));
    verify(alg, t, Some(0));
}
