//! Parallelize *your own* loop nest: define an iteration space, a uniform
//! dependence pattern and a stencil body, pick a tiling from the computed
//! tiling cone, and run it on the simulated cluster.
//!
//! This is the downstream-user workflow: nothing here is specific to the
//! paper's three evaluation kernels.
//!
//! Run with: `cargo run --release --example custom_kernel`

use std::sync::Arc;
use tilecc::Pipeline;
use tilecc_cluster::{EngineOptions, MachineModel};
use tilecc_linalg::{IMat, RMat, Rational};
use tilecc_loopnest::{Algorithm, Kernel, LoopNest};
use tilecc_parcode::ExecStrategy;
use tilecc_polytope::{Constraint, Polyhedron};
use tilecc_tiling::tiling_cone_rays;

/// A second-order wave-equation-like stencil:
/// `A[t,i,j] = 1.9·A[t-1,i,j] − 0.9·A[t-2,i,j] + 0.05·(A[t-1,i-1,j] + A[t-1,i,j-1])`.
struct Wave;

impl Kernel for Wave {
    fn width(&self) -> usize {
        1
    }
    fn compute(&self, _j: &[i64], reads: &[f64], out: &mut [f64]) {
        out[0] = 1.9 * reads[0] - 0.9 * reads[1] + 0.05 * (reads[2] + reads[3]);
    }
    fn initial(&self, j: &[i64], out: &mut [f64]) {
        out[0] = (j.iter().sum::<i64>() % 7) as f64 * 0.1;
    }
}

fn main() {
    // Iteration space: a triangular prism — 1 ≤ t ≤ 24, 1 ≤ i ≤ 30,
    // 1 ≤ j ≤ 30, i + j ≤ 40 (demonstrates a general convex space).
    let mut space = Polyhedron::from_box(&[1, 1, 1], &[24, 30, 30]);
    space.add(Constraint::new(vec![0, -1, -1], 40));

    // Dependence columns: (2,0,0) is *longer than one tile edge* below —
    // the framework handles multi-tile-hop dependencies.
    let deps = IMat::from_rows(&[&[1, 2, 1, 1], &[0, 0, 1, 0], &[0, 0, 0, 1]]);

    let nest = LoopNest::new(space, deps);
    let algorithm = Algorithm::new("wave", nest, Arc::new(Wave));

    // Ask the framework for the tiling cone of this dependence pattern.
    let rays = tiling_cone_rays(algorithm.nest.deps()).expect("a 2-D nest has a tiling cone");
    println!("tiling cone extreme rays: {rays:?}");

    // Build a legal tiling: rows scaled from cone members. The time-tile
    // edge is 1, so the (2,0,0) dependence hops two tiles along the chain
    // (D^S gets a 2-component — longer-than-tile dependencies are handled).
    let h = RMat::from_fn(3, 3, |r, c| {
        let rows = [[1i128, 0, 0], [0, 1, 0], [0, 0, 1]];
        Rational::new(rows[r][c], [1, 10, 10][r])
    });
    let pipeline = Pipeline::compile(algorithm, h, None).expect("legal tiling");
    println!(
        "processors: {}, mapping dim m = {}",
        pipeline.num_procs(),
        pipeline.plan().m()
    );

    let (summary, data) = pipeline
        .run_verified(
            MachineModel::fast_ethernet_p3(),
            ExecStrategy::Compiled,
            EngineOptions::default(),
        )
        .unwrap();
    println!("verified: {:?}", summary.verified);
    println!(
        "speedup : {:.3} on {} procs",
        summary.speedup, summary.procs
    );
    println!("checksum: {:.6}", data.checksum());
    assert_eq!(summary.verified, Some(true));
}
