//! Visualize the wavefront schedule: run a tiled SOR on the simulated
//! cluster with an observability registry attached and print an ASCII
//! Gantt chart per processor, drawn from the recorded virtual-time spans,
//! for both rectangular and cone (non-rectangular) tilings. The earlier
//! drain of the wavefront under the cone tiling is directly visible.

use std::sync::Arc;
use tilecc::matrices;
use tilecc_bench::gantt::render_gantt;
use tilecc_cluster::{EngineOptions, MachineModel, MetricsRegistry, VirtAcc};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_parcode::{execute_opts, ExecMode, ParallelPlan};
use tilecc_tiling::TilingTransform;

fn show(label: &str, h: tilecc_linalg::RMat) {
    let alg = compile_kernel_with(corpus::SOR, &[("M", 24), ("N", 36)]).unwrap();
    let plan = Arc::new(ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(2)).unwrap());
    let reg = MetricsRegistry::new();
    let res = execute_opts(
        plan,
        MachineModel::fast_ethernet_p3(),
        ExecMode::TimingOnly,
        EngineOptions {
            obs: Some(reg.clone()),
            ..Default::default()
        },
    )
    .expect("perfect-substrate observed run cannot fail");
    let ranks = res.report.local_times.len();
    println!("== {label}: makespan {:.5} s ==", res.makespan());
    print!("{}", render_gantt(&reg.spans(), ranks, 100));
    let horizon = res.makespan();
    let avg_util: f64 = (0..ranks)
        .map(|r| reg.rank_metrics(r).virt_get(VirtAcc::Compute) / horizon)
        .sum::<f64>()
        / ranks as f64;
    println!("average utilization: {:.1}%\n", avg_util * 100.0);
}

fn main() {
    show("rectangular tiling", matrices::rect(7, 16, 8));
    show("cone tiling (non-rectangular)", matrices::sor_nr(7, 16, 8));
}
