//! Processor-count scaling (an extension beyond the paper's fixed 16
//! processes): sweep the processor-grid factors so the same SOR workload
//! runs on ~4, ~8, ~16, ~32 and ~64 processors, and report speedups for
//! rectangular vs cone tiling under both communication schemes.

use tilecc::{matrices, Pipeline, Workload};
use tilecc_cluster::{CommScheme, EngineOptions, MachineModel};
use tilecc_parcode::{Backend, ExecStrategy};

fn measure_with(
    w: Workload,
    h: tilecc_linalg::RMat,
    scheme: CommScheme,
    model: MachineModel,
) -> (usize, f64) {
    let pipe = Pipeline::compile(w.algorithm(), h, Some(w.mapping_dim()))
        .expect("the scaling tilings are legal");
    let s = pipe
        .simulate(
            model,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions {
                scheme,
                ..EngineOptions::default()
            },
        )
        .expect("parallel execution failed");
    (s.procs, s.speedup)
}

fn main() {
    let model = MachineModel::fast_ethernet_p3();
    let w = Workload::Sor { m: 100, n: 200 };
    println!(
        "{:<22} {:>6} {:>12} {:>12} {:>14}",
        "grid (x, y)", "procs", "rect", "cone", "cone+overlap"
    );
    // Grid ladder: halving tile edges roughly doubles each grid dimension.
    for (x, y) in [(50, 150), (50, 74), (26, 74), (26, 40), (13, 40)] {
        let z = 20;
        let (procs, rect) = measure_with(w, matrices::rect(x, y, z), CommScheme::Blocking, model);
        let (_, cone) = measure_with(w, matrices::sor_nr(x, y, z), CommScheme::Blocking, model);
        let (_, cone_ov) =
            measure_with(w, matrices::sor_nr(x, y, z), CommScheme::Overlapped, model);
        println!(
            "({x:>3}, {y:>3})            {procs:>6} {rect:>12.3} {cone:>12.3} {cone_ov:>14.3}"
        );
    }
    println!("\n(SOR M=100 N=200, chain factor z=20; speedup = simulated sequential/parallel)");
}
