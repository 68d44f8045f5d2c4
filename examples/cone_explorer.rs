//! Explore the tiling cones of the paper's three algorithms: compute the
//! extreme rays, show that the paper's non-rectangular tiling rows lie on
//! the cone while the rectangular rows sit in its interior, and relate that
//! to the predicted wavefront step counts (§2.2, §4, Hodzic/Shang).
//!
//! Run with: `cargo run --release --example cone_explorer`

use tilecc::analysis;
use tilecc_frontend::{compile_kernel, corpus};
use tilecc_linalg::IMat;
use tilecc_tiling::{in_tiling_cone, tiling_cone_rays};

fn explore(name: &str, deps: &IMat, nr_rows: &[Vec<i64>], rect_rows: &[Vec<i64>]) {
    println!("== {name} ==");
    println!("dependence columns:");
    for q in 0..deps.cols() {
        println!("  d{q} = {:?}", deps.col(q));
    }
    let rays = tiling_cone_rays(deps).expect("a 3-D nest has a tiling cone");
    println!("tiling cone extreme rays: {rays:?}");
    for r in nr_rows {
        let extreme = rays.contains(r);
        println!(
            "  non-rect row {r:?}: in cone = {}, extreme ray = {extreme}",
            in_tiling_cone(r, deps)
        );
    }
    for r in rect_rows {
        let extreme = rays.contains(r);
        println!(
            "  rect     row {r:?}: in cone = {}, extreme ray = {extreme}",
            in_tiling_cone(r, deps)
        );
    }
    println!();
}

fn main() {
    let deps = |source: &str| {
        compile_kernel(source)
            .expect("corpus kernels compile")
            .nest
            .deps()
            .clone()
    };
    explore(
        "skewed SOR",
        &deps(corpus::SOR),
        &[vec![1, 0, 0], vec![0, 1, 0], vec![-1, 0, 1]],
        &[vec![0, 0, 1]],
    );
    explore(
        "skewed Jacobi",
        &deps(corpus::JACOBI),
        &[vec![2, -1, 0]],
        &[vec![1, 0, 0]],
    );
    explore(
        "ADI integration",
        &deps(corpus::ADI),
        &[vec![1, -1, -1]],
        &[vec![1, 0, 0]],
    );

    // Hodzic/Shang: rows strictly inside the cone are suboptimal — visible
    // directly in the wavefront step counts.
    let (m, n, x, y, z) = (100, 200, 25, 75, 20);
    println!("SOR wavefront steps (M={m}, N={n}, x={x}, y={y}, z={z}):");
    println!("  rectangular : {:.1}", analysis::sor_t_rect(m, n, x, y, z));
    println!("  cone tiling : {:.1}", analysis::sor_t_nr(m, n, x, y, z));
}
