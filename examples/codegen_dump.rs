//! Dump the generated C/MPI source for a non-rectangularly tiled SOR nest —
//! the artifact the paper's tool produced ("a tool which automatically
//! generates MPI code", §4).
//!
//! Run with: `cargo run --release --example codegen_dump`

use tilecc::{matrices, Pipeline};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_parcode::{emit_c_program, KernelSource};

fn main() {
    let algorithm = compile_kernel_with(corpus::SOR, &[("M", 20), ("N", 40)]).unwrap();
    let pipeline = Pipeline::compile(algorithm, matrices::sor_nr(5, 10, 10), Some(2))
        .expect("tiling is legal for SOR");

    // The SOR body and boundary in C. The program iterates in skewed
    // coordinates; the boundary hash is taken in the original ones, so
    // the prelude applies the inverse of the skew [1,0,0; 1,1,0; 2,0,1].
    let source = KernelSource {
        prelude: "    const long jo[3] = {j[0], j[1] - j[0], j[2] - 2 * j[0]};\n    (void)jo;"
            .into(),
        body: vec![
            "1.2 / 4.0 * (read[0] + read[1] + read[2] + read[3]) + (1.0 - 1.2) * read[4]".into(),
        ],
        boundary: vec!["tilecc_bnd(jo)".into()],
        ..KernelSource::default()
    };
    println!("{}", emit_c_program(pipeline.plan(), &source));

    // Also show the derived compile-time objects the code embeds.
    let plan = pipeline.plan();
    eprintln!("--- derived compile-time data ---");
    eprintln!("H'  = {:?}", plan.tiled.transform().h_prime());
    eprintln!("HNF = {:?}", plan.tiled.transform().hnf());
    eprintln!("strides c = {:?}", plan.tiled.transform().strides());
    eprintln!("offsets off = {:?}", plan.comm.off);
    eprintln!("CC = {:?}", plan.comm.cc);
    eprintln!("D^S = {:?}", plan.comm.tile_deps);
    eprintln!("D^m = {:?}", plan.comm.proc_deps);
}
