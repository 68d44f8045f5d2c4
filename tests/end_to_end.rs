//! End-to-end integration: for every kernel × tiling × space combination,
//! the generated data-parallel program must produce *bitwise* the same data
//! space as the sequential reference execution, conserve the iteration
//! count, and locate every iteration consistently (`loc`/`loc⁻¹`).

use std::sync::Arc;
use tilecc::{matrices, Pipeline};
use tilecc_cluster::{EngineOptions, MachineModel};
use tilecc_frontend::{compile_kernel, compile_kernel_with, corpus};
use tilecc_linalg::{IMat, RMat, Rational};
use tilecc_loopnest::{Algorithm, Kernel, LoopNest};
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_polytope::{Constraint, Polyhedron};
use tilecc_tiling::TilingTransform;

fn verify(alg: Algorithm, h: RMat, m: Option<usize>) {
    let name = alg.name.clone();
    let seq = alg.execute_sequential();
    let plan = Arc::new(ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), m).unwrap());
    let total = plan.total_iterations();
    let res = execute(
        plan.clone(),
        MachineModel::fast_ethernet_p3(),
        ExecMode::Full,
        ExecStrategy::Compiled,
        Backend::Threaded,
        EngineOptions::default(),
    )
    .unwrap();
    assert_eq!(
        res.total_iterations as usize, total,
        "{name}: iteration conservation"
    );
    let par = res.data.expect("full mode returns data");
    assert_eq!(seq.diff(&par), None, "{name}: parallel result differs");
    // Every iteration has a unique, invertible storage location.
    for j in plan.tiled.space_bounds().points() {
        let (pid, addr) = plan.loc(&j);
        assert_eq!(plan.loc_inv(&pid, &addr), j, "{name}: loc round trip");
    }
}

#[test]
fn sor_all_tilings() {
    for (h, m) in [
        (matrices::rect(2, 3, 4), Some(2)),
        (matrices::sor_nr(2, 3, 4), Some(2)),
        (matrices::sor_nr(3, 3, 3), Some(2)),
        (matrices::rect(4, 4, 2), None),
    ] {
        verify(
            compile_kernel_with(corpus::SOR, &[("M", 5), ("N", 7)]).unwrap(),
            h,
            m,
        );
    }
}

#[test]
fn jacobi_all_tilings() {
    for (h, m) in [
        (matrices::rect(2, 4, 4), Some(0)),
        (matrices::jacobi_nr(2, 4, 4), Some(0)),
        (matrices::jacobi_nr(3, 6, 4), Some(0)),
    ] {
        verify(
            compile_kernel_with(corpus::JACOBI, &[("T", 5), ("N", 8)]).unwrap(),
            h,
            m,
        );
    }
}

#[test]
fn adi_all_four_tilings() {
    for h in [
        matrices::rect(2, 4, 4),
        matrices::adi_nr1(2, 4, 4),
        matrices::adi_nr2(2, 4, 4),
        matrices::adi_nr3(2, 4, 4),
    ] {
        verify(
            compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 9)]).unwrap(),
            h,
            Some(0),
        );
    }
}

#[test]
fn mapping_along_every_dimension_is_correct() {
    for m in 0..3 {
        verify(
            compile_kernel_with(corpus::ADI, &[("T", 5), ("N", 8)]).unwrap(),
            matrices::rect(2, 3, 3),
            Some(m),
        );
        verify(
            compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap(),
            matrices::sor_nr(2, 3, 3),
            Some(m),
        );
    }
}

/// A tiling whose `H'` is non-unimodular: the TTIS lattice is sparse and
/// the HNF strides are non-trivial (c = (1,2,1) here).
#[test]
fn non_unit_stride_lattice_end_to_end() {
    let h = RMat::from_fractions(&[
        &[(1, 4), (1, 8), (0, 1)],
        &[(0, 1), (1, 4), (0, 1)],
        &[(0, 1), (0, 1), (1, 4)],
    ]);
    let t = TilingTransform::new(h.clone()).unwrap();
    assert!(
        t.strides().iter().any(|&c| c > 1),
        "strides = {:?}",
        t.strides()
    );
    verify(
        compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 8)]).unwrap(),
        h,
        Some(0),
    );
}

/// Dependence vectors longer than a tile edge produce tile-dependence
/// components of 2 — exercising multi-hop receives and the deep halo.
#[test]
fn long_dependencies_span_multiple_tiles() {
    struct LongDep;
    impl Kernel for LongDep {
        fn width(&self) -> usize {
            1
        }
        fn compute(&self, _j: &[i64], reads: &[f64], out: &mut [f64]) {
            out[0] = 0.5 * reads[0] + 0.25 * reads[1] + 1.0;
        }
        fn initial(&self, j: &[i64], out: &mut [f64]) {
            out[0] = (j[0] * 3 + j[1]) as f64 * 0.01;
        }
    }
    let space = Polyhedron::from_box(&[0, 0], &[14, 14]);
    // d = (3,0) and (1,2): tile edges 2×3 ⇒ d^S components up to 2.
    let deps = IMat::from_rows(&[&[3, 1], &[0, 2]]);
    let alg = Algorithm::new("longdep", LoopNest::new(space, deps), Arc::new(LongDep));
    verify(alg, matrices_2d(2, 3), Some(1));
    // Also with the long direction mapped.
    let alg = Algorithm::new(
        "longdep2",
        LoopNest::new(
            Polyhedron::from_box(&[0, 0], &[14, 14]),
            IMat::from_rows(&[&[3, 1], &[0, 2]]),
        ),
        Arc::new(LongDep),
    );
    verify(alg, matrices_2d(2, 3), Some(0));
}

fn matrices_2d(x: i64, y: i64) -> RMat {
    RMat::from_fn(2, 2, |i, j| {
        if i == j {
            Rational::new(1, [x, y][i] as i128)
        } else {
            Rational::ZERO
        }
    })
}

/// General convex (non-box) iteration space: a clipped prism.
#[test]
fn general_convex_space_end_to_end() {
    struct Sum;
    impl Kernel for Sum {
        fn width(&self) -> usize {
            1
        }
        fn compute(&self, _j: &[i64], reads: &[f64], out: &mut [f64]) {
            out[0] = reads[0] + reads[1] + reads[2] + 1.0;
        }
        fn initial(&self, _j: &[i64], out: &mut [f64]) {
            out[0] = 0.25;
        }
    }
    let mut space = Polyhedron::from_box(&[1, 1, 1], &[10, 12, 12]);
    space.add(Constraint::new(vec![0, -1, -1], 18)); // i + j <= 18
    space.add(Constraint::new(vec![-1, 1, 0], 8)); // i <= t + 8
    let deps = IMat::from_rows(&[&[1, 1, 1], &[0, 1, 0], &[0, 0, 1]]);
    let alg = Algorithm::new("prism", LoopNest::new(space, deps), Arc::new(Sum));
    verify(alg.clone(), matrices::rect(3, 4, 4), Some(0));
    verify(alg, matrices::adi_nr3(3, 4, 4), Some(0));
}

/// Timing-only and full modes must agree on all virtual-time quantities.
#[test]
fn timing_only_equals_full_timing() {
    let alg = compile_kernel_with(corpus::JACOBI, &[("T", 5), ("N", 8)]).unwrap();
    let plan = Arc::new(
        ParallelPlan::new(
            alg,
            TilingTransform::new(matrices::jacobi_nr(2, 4, 4)).unwrap(),
            Some(0),
        )
        .unwrap(),
    );
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
    let fast = execute(
        plan,
        model,
        ExecMode::TimingOnly,
        ExecStrategy::Compiled,
        Backend::Threaded,
        EngineOptions::default(),
    )
    .unwrap();
    assert_eq!(full.makespan(), fast.makespan());
    assert_eq!(full.total_iterations, fast.total_iterations);
    assert_eq!(full.report.total_messages(), fast.report.total_messages());
    assert_eq!(full.report.total_bytes(), fast.report.total_bytes());
    for (a, b) in full.report.local_times.iter().zip(&fast.report.local_times) {
        assert_eq!(a, b);
    }
}

/// The same plan must produce identical results and virtual times across
/// repeated runs (functional determinism of the threaded engine).
#[test]
fn repeated_runs_are_deterministic() {
    let mk = || {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        Pipeline::compile(alg, matrices::sor_nr(2, 3, 3), Some(2)).unwrap()
    };
    let model = MachineModel::fast_ethernet_p3();
    let (s1, d1) = mk()
        .run_verified(
            model,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
    let (s2, d2) = mk()
        .run_verified(
            model,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
    assert_eq!(d1.diff(&d2), None);
    assert_eq!(s1.makespan, s2.makespan);
    assert_eq!(s1.bytes, s2.bytes);
}

/// Skewed 1-D heat over a 2-D (time × space) nest.
const HEAT1D: &str = "\
kernel heat1d
iter t = 1 to 8
iter i = 1 to 12
skew = [1,0; 1,1]
array A = bnd()
A[t,i] = A[t-1,i] + 0.2*(A[t-1,i-1] - 2*A[t-1,i] + A[t-1,i+1])
";

/// A 4-D wavefront (3-D heat + time) with non-negative dependences.
const WAVE4D: &str = "\
kernel wave4d
iter t = 1 to 4
iter x = 1 to 5
iter y = 1 to 5
iter z = 1 to 5
array A = bnd()
A[t,x,y,z] = 0.4*A[t-1,x,y,z] + 0.2*(A[t-1,x-1,y,z] + A[t-1,x,y-1,z] + A[t-1,x,y,z-1])
";

/// 2-D nest (heat-1D): the framework is not 3-D specific.
#[test]
fn heat1d_two_dimensional_end_to_end() {
    for m in [Some(0), Some(1), None] {
        let alg = compile_kernel(HEAT1D).unwrap();
        let seq = alg.execute_sequential();
        let plan = Arc::new(
            ParallelPlan::new(alg, TilingTransform::rectangular(&[3, 4]).unwrap(), m).unwrap(),
        );
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
    }
    // Non-rectangular 2-D tiling with the second row parallel to the
    // heat-1D tiling-cone ray (2,−1).
    let alg = compile_kernel(HEAT1D).unwrap();
    let seq = alg.execute_sequential();
    let h = RMat::from_fractions(&[&[(1, 3), (0, 1)], &[(1, 4), (-1, 8)]]);
    let plan = Arc::new(ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(1)).unwrap());
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
}

/// 4-D nest: rectangular and skewed tilings over a 4-D wavefront.
#[test]
fn wave4d_four_dimensional_end_to_end() {
    let alg = compile_kernel(WAVE4D).unwrap();
    let seq = alg.execute_sequential();
    for h in [
        RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1), (0, 1)],
            &[(0, 1), (1, 3), (0, 1), (0, 1)],
            &[(0, 1), (0, 1), (1, 3), (0, 1)],
            &[(0, 1), (0, 1), (0, 1), (1, 3)],
        ]),
        // First row on the 4-D tiling cone: (1,−1,−1,−1)/2.
        RMat::from_fractions(&[
            &[(1, 2), (-1, 2), (-1, 2), (-1, 2)],
            &[(0, 1), (1, 3), (0, 1), (0, 1)],
            &[(0, 1), (0, 1), (1, 3), (0, 1)],
            &[(0, 1), (0, 1), (0, 1), (1, 3)],
        ]),
    ] {
        let plan = Arc::new(
            ParallelPlan::new(alg.clone(), TilingTransform::new(h).unwrap(), Some(0)).unwrap(),
        );
        let total = plan.total_iterations();
        let res = execute(
            plan,
            MachineModel::fast_ethernet_p3(),
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
        assert_eq!(res.total_iterations as usize, total);
        assert_eq!(seq.diff(res.data.as_ref().unwrap()), None);
    }
}

/// The faithful Table-3 ADI (two written arrays X and B plus the read-only
/// coefficient array A) through the full parallel pipeline: the paper calls
/// its single-array model "only a notational restriction" — this is the
/// multi-array case, bitwise verified.
#[test]
fn adi_paper_multi_array_end_to_end() {
    for h in [
        matrices::rect(2, 4, 4),
        matrices::adi_nr3(2, 4, 4),
        matrices::adi_nr1(3, 3, 4),
    ] {
        let alg = compile_kernel_with(corpus::ADI_PAPER, &[("T", 6), ("N", 8)]).unwrap();
        assert_eq!(alg.width(), 2);
        let seq = alg.execute_sequential();
        let plan =
            Arc::new(ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(0)).unwrap());
        let res = execute(
            plan.clone(),
            MachineModel::fast_ethernet_p3(),
            ExecMode::Full,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
        assert_eq!(
            seq.diff(res.data.as_ref().unwrap()),
            None,
            "multi-array mismatch"
        );
        // Message sizes double with the component count.
        assert!(res.report.total_bytes() > 0);
        // Tiled sequential reordering also matches.
        let tiled_seq = tilecc_parcode::execute_tiled_sequential(&plan);
        assert_eq!(seq.diff(&tiled_seq), None);
    }
}

/// Regression: non-monotone message consumption. With tile-dependence
/// m-components of {0, 2} (here `d' = (6,1,0)` against tile edge 3), the
/// minimum-successor rule consumes a sender's messages out of send order
/// (e.g. preds 9, 11, 10, 12), so FIFO channels alone mis-pair messages —
/// MPI-style tag matching in the substrate restores correctness. Found by
/// randomized property testing.
#[test]
fn non_monotone_minsucc_needs_message_tags() {
    struct K2;
    impl Kernel for K2 {
        fn width(&self) -> usize {
            1
        }
        fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
            let mut acc = 0.125 * (j[0] % 5) as f64;
            for (i, r) in reads.iter().enumerate() {
                acc += (0.2 + 0.1 * i as f64) * r;
            }
            out[0] = acc;
        }
        fn initial(&self, j: &[i64], out: &mut [f64]) {
            out[0] = ((j.iter().sum::<i64>()).rem_euclid(97)) as f64 / 97.0;
        }
    }
    let mut space = Polyhedron::from_box(&[1, 1, 1], &[10, 10, 12]);
    space.add(Constraint::new(vec![0, 1, 1], -5));
    space.add(Constraint::new(vec![1, 0, 1], -9));
    // Columns: (2,0,1), (0,2,1), (0,2,0), (1,2,0).
    let deps = IMat::from_rows(&[&[2, 0, 0, 1], &[0, 2, 2, 2], &[1, 1, 0, 0]]);
    // Tiling-cone rows (−2,1,4), (0,0,1), (1,0,0) scaled by 1/3: the first
    // transformed dependence component reaches 6 = 2 tile edges.
    let h = RMat::from_fractions(&[
        &[(-2, 3), (1, 3), (4, 3)],
        &[(0, 1), (0, 1), (1, 3)],
        &[(1, 3), (0, 1), (0, 1)],
    ]);
    let alg = Algorithm::new("tagcase", LoopNest::new(space, deps), Arc::new(K2));
    let seq = alg.execute_sequential();
    let plan = Arc::new(ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(0)).unwrap());
    assert!(
        plan.comm.tile_deps.iter().any(|d| d[0] >= 2),
        "precondition: a tile dependence must hop two tiles along m"
    );
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
}
