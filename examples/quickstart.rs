//! Quickstart: tile a skewed SOR nest with a non-rectangular (tiling-cone)
//! transformation, generate the data-parallel program, run it on the
//! simulated cluster, and verify the result against sequential execution.
//!
//! Run with: `cargo run --release --example quickstart`

use tilecc::{matrices, Pipeline};
use tilecc_cluster::{EngineOptions, MachineModel};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_parcode::{Backend, ExecStrategy};

fn main() {
    // The SOR stencil over a 40×80×80 space, skewed so it can be tiled
    // rectangularly (all dependence components non-negative).
    let algorithm = compile_kernel_with(corpus::SOR, &[("M", 40), ("N", 80)]).unwrap();

    // The paper's non-rectangular tiling H_nr (§4.1): rows parallel to the
    // tiling cone, factors x=11, y=31, z=20. Map chains along dimension 3.
    let pipeline = Pipeline::compile(algorithm, matrices::sor_nr(11, 31, 20), Some(2))
        .expect("tiling is legal for SOR");

    println!("compiled: {} processors", pipeline.num_procs());
    println!(
        "tile dependencies D^S: {:?}",
        pipeline.plan().comm.tile_deps
    );
    println!("communication vector CC: {:?}", pipeline.plan().comm.cc);

    // Execute on the modelled FastEthernet/P-III cluster and verify
    // against the sequential reference execution (bitwise).
    let model = MachineModel::fast_ethernet_p3();
    let (summary, _data) = pipeline
        .run_verified(
            model,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();

    println!("\niterations        : {}", summary.iterations);
    println!("verified          : {:?}", summary.verified);
    println!("sequential (sim)  : {:.6} s", summary.sequential_time);
    println!("parallel (sim)    : {:.6} s", summary.makespan);
    println!(
        "speedup           : {:.3} on {} processors",
        summary.speedup, summary.procs
    );
    println!(
        "messages / bytes  : {} / {}",
        summary.messages, summary.bytes
    );

    assert_eq!(summary.verified, Some(true));
}
