//! Micro-benchmarks of the compiler's building blocks: Hermite Normal Form,
//! Fourier–Motzkin elimination, TTIS lattice traversal, tile-dependence
//! computation, and the `loc`/`loc⁻¹` address translations.
//!
//! Runs under the dependency-free harness in `tilecc_bench::harness`; under
//! `cargo test` each benchmark executes once as a smoke test.

use std::hint::black_box;
use tilecc::matrices;
use tilecc_bench::harness::Harness;
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::{column_hnf, IMat, Lattice};
use tilecc_parcode::ParallelPlan;
use tilecc_polytope::{Constraint, LoopNestBounds, Polyhedron};
use tilecc_tiling::{TiledSpace, TilingTransform};

fn bench_hnf(h: &mut Harness) {
    let matrices: Vec<IMat> = vec![
        IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0], &[-1, 0, 1]]),
        IMat::from_rows(&[&[2, 1, 0], &[0, 1, 0], &[0, 0, 1]]),
        IMat::from_rows(&[&[3, 1, -2], &[-1, 4, 2], &[5, 0, 7]]),
        IMat::from_rows(&[
            &[4, 1, -2, 3],
            &[-1, 4, 2, 0],
            &[5, 0, 7, 1],
            &[2, -3, 1, 6],
        ]),
    ];
    h.bench("hnf/column_hnf_batch", || {
        for m in &matrices {
            black_box(column_hnf(black_box(m)));
        }
    });
}

fn bench_fourier_motzkin(h: &mut Harness) {
    // The SOR tile-space projection: 6 variables down to 3.
    let alg = compile_kernel_with(corpus::SOR, &[("M", 50), ("N", 100)]).unwrap();
    let space = alg.nest.space().clone();
    let t = TilingTransform::new(matrices::sor_nr(13, 38, 25)).unwrap();
    h.bench("fm/tile_space_projection_sor", || {
        black_box(TiledSpace::new(t.clone(), space.clone()).unwrap());
    });

    let mut p = Polyhedron::universe(4);
    p.add(Constraint::new(vec![1, 0, 0, 0], 0));
    p.add(Constraint::new(vec![-1, 0, 0, 0], 50));
    p.add(Constraint::new(vec![-1, 1, 0, 0], 0));
    p.add(Constraint::new(vec![1, -1, 1, 0], 30));
    p.add(Constraint::new(vec![0, 2, -1, 1], 10));
    p.add(Constraint::new(vec![0, -2, 1, -1], 40));
    p.add(Constraint::new(vec![0, 0, 1, 1], 5));
    p.add(Constraint::new(vec![0, 0, -1, -1], 60));
    h.bench("fm/project_4d_to_1d", || {
        black_box(black_box(&p).project_onto_first(1).unwrap());
    });
}

fn bench_lattice_walk(h: &mut Harness) {
    // Sparse lattice (index 2) in a 32³ box.
    let basis = IMat::from_rows(&[&[2, 1, 0], &[0, 1, 0], &[0, 0, 1]]);
    let lat = Lattice::from_columns(&basis);
    let lo = vec![0i64; 3];
    let hi = vec![32i64; 3];
    h.bench("lattice/walk_32cubed_index2", || {
        black_box(lat.points_in_box(&lo, &hi).count());
    });
    let dense = Lattice::standard(3);
    h.bench("lattice/walk_32cubed_dense", || {
        black_box(dense.points_in_box(&lo, &hi).count());
    });
}

fn bench_tile_deps(h: &mut Harness) {
    let alg = compile_kernel_with(corpus::SOR, &[("M", 30), ("N", 60)]).unwrap();
    let space = alg.nest.space().clone();
    let deps = alg.nest.deps().clone();
    let t = TilingTransform::new(matrices::sor_nr(8, 23, 15)).unwrap();
    let tiled = TiledSpace::new(t, space).unwrap();
    h.bench("tiling/tile_deps_sor_nr", || {
        black_box(tiled.tile_deps(black_box(&deps)));
    });
}

fn bench_loc_round_trip(h: &mut Harness) {
    let alg = compile_kernel_with(corpus::SOR, &[("M", 10), ("N", 16)]).unwrap();
    let t = TilingTransform::new(matrices::sor_nr(3, 7, 5)).unwrap();
    let plan = ParallelPlan::new(alg, t, Some(2)).unwrap();
    let points: Vec<Vec<i64>> = plan.tiled.space_bounds().points().collect();
    h.bench("plan/loc_loc_inv_per_point", || {
        for j in &points {
            let (pid, addr) = plan.loc(j);
            black_box(plan.loc_inv(&pid, &addr));
        }
    });
}

fn bench_point_scan(h: &mut Harness) {
    let alg = compile_kernel_with(corpus::SOR, &[("M", 16), ("N", 24)]).unwrap();
    let bounds = LoopNestBounds::new(alg.nest.space()).unwrap();
    h.bench("polytope/scan_skewed_sor_space", || {
        black_box(bounds.points().count());
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_hnf(&mut h);
    bench_fourier_motzkin(&mut h);
    bench_lattice_walk(&mut h);
    bench_tile_deps(&mut h);
    bench_loc_round_trip(&mut h);
    bench_point_scan(&mut h);
    h.finish();
}
