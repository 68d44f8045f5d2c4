//! Benchmark versions of the paper's six figures at reduced scale: each
//! bench simulates the full compile → distribute → execute pipeline for the
//! tilings a figure compares. The `figures` binary runs the full-scale
//! versions and emits the actual series; these benches track the cost of
//! regenerating them.
//!
//! Runs under the dependency-free harness in `tilecc_bench::harness`; under
//! `cargo test` each benchmark executes once as a smoke test.

use std::hint::black_box;
use tilecc::{measure, Variant, Workload};
use tilecc_bench::harness::Harness;
use tilecc_cluster::MachineModel;

fn model() -> MachineModel {
    MachineModel::fast_ethernet_p3()
}

/// Figures 5 and 6 — SOR rect vs non-rect (reduced space M=24, N=36).
fn fig5_fig6_sor(h: &mut Harness) {
    let w = Workload::Sor { m: 24, n: 36 };
    for v in [Variant::Rect, Variant::NonRect] {
        h.bench(&format!("fig5_fig6_sor/simulate/{}", v.label()), || {
            black_box(measure(w, v, (7, 16, 8), model()));
        });
    }
}

/// Figures 7 and 8 — Jacobi rect vs non-rect (reduced space T=12, I=J=24).
fn fig7_fig8_jacobi(h: &mut Harness) {
    let w = Workload::Jacobi { t: 12, n: 24 };
    for v in [Variant::Rect, Variant::NonRect] {
        h.bench(&format!("fig7_fig8_jacobi/simulate/{}", v.label()), || {
            black_box(measure(w, v, (4, 10, 10), model()));
        });
    }
}

/// Figures 9 and 10 — ADI, four tile shapes (reduced space T=24, N=32).
fn fig9_fig10_adi(h: &mut Harness) {
    let w = Workload::Adi { t: 24, n: 32 };
    for v in [
        Variant::Rect,
        Variant::AdiNr1,
        Variant::AdiNr2,
        Variant::AdiNr3,
    ] {
        h.bench(&format!("fig9_fig10_adi/simulate/{}", v.label()), || {
            black_box(measure(w, v, (5, 9, 9), model()));
        });
    }
}

fn main() {
    let mut h = Harness::from_args();
    fig5_fig6_sor(&mut h);
    fig7_fig8_jacobi(&mut h);
    fig9_fig10_adi(&mut h);
    h.finish();
}
