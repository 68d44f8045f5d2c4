//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * `lds_ablation` — condensed LDS addressing (the paper's `map()` with
//!   stride division) vs. a naive uncondensed TTIS-image array. The paper
//!   argues condensation both saves memory and exploits cache locality.
//! * `clamp_ablation` — per-point membership testing on every tile vs. the
//!   convexity-based interior-tile fast path.
//! * `mapping_ablation` — wall cost of simulating under each mapping
//!   dimension (the makespans themselves are printed by the `ablation`
//!   binary).
//!
//! Runs under the dependency-free harness in `tilecc_bench::harness`; under
//! `cargo test` each benchmark executes once as a smoke test.

use std::hint::black_box;
use tilecc::matrices;
use tilecc_bench::harness::Harness;
use tilecc_cluster::{EngineOptions, MachineModel};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::RMat;
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_tiling::{CommPlan, Lds, LdsGeometry, TiledSpace, TilingTransform};

/// A tiling with non-unit strides so condensation actually compresses.
fn strided_transform() -> TilingTransform {
    TilingTransform::new(RMat::from_fractions(&[
        &[(1, 8), (1, 16), (0, 1)],
        &[(0, 1), (1, 8), (0, 1)],
        &[(0, 1), (0, 1), (1, 8)],
    ]))
    .unwrap()
}

fn lds_ablation(h: &mut Harness) {
    let t = strided_transform();
    let alg = compile_kernel_with(corpus::ADI, &[("T", 32), ("N", 32)]).unwrap();
    let tiled = TiledSpace::new(t.clone(), alg.nest.space().clone()).unwrap();
    let plan = CommPlan::new(&tiled, alg.nest.deps(), 0);
    let geo = LdsGeometry::new(&t, &plan);
    let num_tiles = 4i64;
    let points: Vec<Vec<i64>> = t.ttis_points().collect();

    let mut lds = Lds::new(geo.clone(), vec![0, 0, 0], num_tiles);
    h.bench("lds_ablation/condensed_map_write_read", || {
        let mut acc = 0.0;
        for tp in 0..num_tiles {
            for jp in &points {
                let gg = lds.unrolled(tp, jp);
                lds.set(&gg, (gg[0] + gg[1]) as f64);
                acc += lds.get(&gg);
            }
        }
        black_box(acc);
    });

    // Uncondensed: one cell per TTIS *box* coordinate (holes wasted).
    let v = t.v().to_vec();
    let ext = [v[0] * num_tiles, v[1], v[2]];
    let mut arr = vec![0.0f64; (ext[0] * ext[1] * ext[2]) as usize];
    h.bench("lds_ablation/naive_ttis_image_write_read", || {
        let mut acc = 0.0;
        for tp in 0..num_tiles {
            for jp in &points {
                let idx = (((tp * v[0] + jp[0]) * ext[1] + jp[1]) * ext[2] + jp[2]) as usize;
                arr[idx] = (jp[0] + jp[1]) as f64;
                acc += arr[idx];
            }
        }
        black_box(acc);
    });

    // Memory footprint comparison is asserted (the paper's storage claim).
    let condensed_cells: i64 = geo.extents(num_tiles).iter().product();
    let naive_cells: i64 = t.v()[0] * num_tiles * t.v()[1] * t.v()[2];
    assert!(
        condensed_cells < naive_cells,
        "condensation must shrink storage"
    );
}

fn clamp_ablation(h: &mut Harness) {
    let alg = compile_kernel_with(corpus::SOR, &[("M", 16), ("N", 24)]).unwrap();
    let t = TilingTransform::new(matrices::sor_nr(4, 10, 8)).unwrap();
    let tiled = TiledSpace::new(t, alg.nest.space().clone()).unwrap();
    let tiles: Vec<Vec<i64>> = tiled.tiles().collect();
    h.bench("clamp_ablation/per_point_membership", || {
        let mut n = 0usize;
        for tile in &tiles {
            n += tiled.tile_iterations(tile).count();
        }
        black_box(n);
    });
    h.bench("clamp_ablation/interior_corner_fast_path", || {
        let mut n = 0usize;
        for tile in &tiles {
            n += tiled.tile_volume_fast(tile);
        }
        black_box(n);
    });
}

fn mapping_ablation(h: &mut Harness) {
    for m in 0..3usize {
        h.bench(&format!("mapping_ablation/simulate_adi_mapdim/{m}"), || {
            let alg = compile_kernel_with(corpus::ADI, &[("T", 24), ("N", 32)]).unwrap();
            let t = TilingTransform::new(matrices::rect(5, 9, 9)).unwrap();
            let plan = std::sync::Arc::new(ParallelPlan::new(alg, t, Some(m)).unwrap());
            black_box(
                execute(
                    plan,
                    MachineModel::fast_ethernet_p3(),
                    ExecMode::TimingOnly,
                    ExecStrategy::Compiled,
                    Backend::Threaded,
                    EngineOptions::default(),
                )
                .unwrap(),
            );
        });
    }
}

fn main() {
    let mut h = Harness::from_args();
    lds_ablation(&mut h);
    clamp_ablation(&mut h);
    mapping_ablation(&mut h);
    h.finish();
}
