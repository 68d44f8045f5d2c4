//! Ablation study: how the design choices of DESIGN.md affect the simulated
//! completion time.
//!
//! 1. Mapping-dimension choice — the paper (after \[3\]) maps tile chains
//!    along the dimension with the maximum tile count.
//! 2. Tile-shape ladder for ADI — interior row vs. cone-surface rows.
//! 3. LDS condensation — memory cells allocated per processor, condensed
//!    vs. naive TTIS-image allocation.

use std::sync::Arc;
use tilecc::{matrices, measure, Variant, Workload};
use tilecc_cluster::{CommScheme, EngineOptions, MachineModel};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::RMat;
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_tiling::{CommPlan, LdsGeometry, TiledSpace, TilingTransform};

fn main() {
    let model = MachineModel::fast_ethernet_p3();

    println!("== 1. Mapping-dimension choice (ADI T=64, N=48, tiles 8x12x12) ==");
    for m in 0..3usize {
        let alg = compile_kernel_with(corpus::ADI, &[("T", 64), ("N", 48)]).unwrap();
        let t = TilingTransform::new(matrices::rect(8, 12, 12)).unwrap();
        let plan = Arc::new(ParallelPlan::new(alg, t, Some(m)).unwrap());
        let tiles_along: Vec<i64> = (0..3)
            .map(|k| {
                let mut p = plan.tiled.shadow().clone();
                for v in (0..3).rev() {
                    if v != k {
                        p = p.eliminate(v).unwrap();
                    }
                }
                let (lo, hi) = p.integer_bounds(0, &[]).unwrap();
                hi - lo + 1
            })
            .collect();
        let res = execute(
            plan.clone(),
            model,
            ExecMode::TimingOnly,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .expect("parallel execution failed");
        println!(
            "  m = {m} (tile counts {:?}): {} procs, makespan {:.5} s",
            tiles_along,
            plan.num_procs(),
            res.makespan()
        );
    }
    println!("  (the paper maps along the longest dimension — here m = 0)");

    println!("\n== 2. ADI tile-shape ladder (T=40, N=64, grid 17x17, x=8) ==");
    let w = Workload::Adi { t: 40, n: 64 };
    for v in [
        Variant::Rect,
        Variant::AdiNr1,
        Variant::AdiNr2,
        Variant::AdiNr3,
    ] {
        let p = measure(w, v, (8, 17, 17), model);
        println!(
            "  {:<5} makespan {:.5} s  speedup {:.3}  predicted steps {:.1}",
            p.variant, p.makespan, p.speedup, p.predicted_steps
        );
    }

    println!("\n== 3. LDS condensation (strided tiling, 4-tile chain) ==");
    let t = TilingTransform::new(RMat::from_fractions(&[
        &[(1, 8), (1, 16), (0, 1)],
        &[(0, 1), (1, 8), (0, 1)],
        &[(0, 1), (0, 1), (1, 8)],
    ]))
    .expect("parallel execution failed");
    let alg = compile_kernel_with(corpus::ADI, &[("T", 32), ("N", 32)]).unwrap();
    let tiled = TiledSpace::new(t.clone(), alg.nest.space().clone()).unwrap();
    let plan = CommPlan::new(&tiled, alg.nest.deps(), 0).unwrap();
    let geo = LdsGeometry::new(&t, &plan);
    let condensed: i64 = geo.extents(4).iter().product();
    let naive: i64 = t.v()[0] * 4 * t.v()[1] * t.v()[2];
    println!("  TTIS strides c = {:?}", t.strides());
    println!("  condensed LDS cells : {condensed}");
    println!("  naive TTIS image    : {naive}");
    println!(
        "  compression         : {:.2}x",
        naive as f64 / condensed as f64
    );
    println!("\n== 4. Communication overlap (future work [8]) — SOR M=40 N=60, tiles 11x26x10 ==");
    let alg = compile_kernel_with(corpus::SOR, &[("M", 40), ("N", 60)]).unwrap();
    let t = TilingTransform::new(matrices::sor_nr(11, 26, 10)).unwrap();
    let plan = Arc::new(ParallelPlan::new(alg, t, Some(2)).unwrap());
    let blocking = tilecc_parcode::execute(
        plan.clone(),
        model,
        ExecMode::TimingOnly,
        ExecStrategy::Compiled,
        Backend::Threaded,
        EngineOptions {
            scheme: CommScheme::Blocking,
            ..EngineOptions::default()
        },
    )
    .expect("parallel execution failed");
    let overlapped = tilecc_parcode::execute(
        plan,
        model,
        ExecMode::TimingOnly,
        ExecStrategy::Compiled,
        Backend::Threaded,
        EngineOptions {
            scheme: CommScheme::Overlapped,
            ..EngineOptions::default()
        },
    )
    .expect("parallel execution failed");
    println!("  blocking   makespan {:.5} s", blocking.makespan());
    println!(
        "  overlapped makespan {:.5} s ({:.1}% faster)",
        overlapped.makespan(),
        (blocking.makespan() - overlapped.makespan()) / blocking.makespan() * 100.0
    );
}
