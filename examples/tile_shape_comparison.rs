//! The paper's central experiment in miniature: compare rectangular and
//! non-rectangular tilings of *equal tile size, communication volume and
//! processor count* on all three algorithms, and show that tilings drawn
//! from the tiling cone finish earlier (§4).
//!
//! Run with: `cargo run --release --example tile_shape_comparison`

use tilecc::{measure, Variant, Workload};
use tilecc_cluster::MachineModel;

fn main() {
    let model = MachineModel::fast_ethernet_p3();

    println!("SOR (M=40, N=60), grid x=11, y=26, sweep z:");
    let w = Workload::Sor { m: 40, n: 60 };
    for z in [6, 10, 18] {
        let r = measure(w, Variant::Rect, (11, 26, z), model);
        let nr = measure(w, Variant::NonRect, (11, 26, z), model);
        println!(
            "  z={z:>2}: rect speedup {:.3} | non-rect speedup {:.3} ({:+.1}%)  [{} procs]",
            r.speedup,
            nr.speedup,
            (nr.speedup - r.speedup) / r.speedup * 100.0,
            r.procs
        );
        assert!(nr.makespan <= r.makespan, "cone tiling must not be slower");
    }

    println!("\nJacobi (T=20, I=J=40), grid y=16, z=16, sweep x:");
    let w = Workload::Jacobi { t: 20, n: 40 };
    for x in [3, 5, 10] {
        let r = measure(w, Variant::Rect, (x, 16, 16), model);
        let nr = measure(w, Variant::NonRect, (x, 16, 16), model);
        println!(
            "  x={x:>2}: rect speedup {:.3} | non-rect speedup {:.3} ({:+.1}%)  [{} procs]",
            r.speedup,
            nr.speedup,
            (nr.speedup - r.speedup) / r.speedup * 100.0,
            r.procs
        );
    }

    println!("\nADI (T=40, N=64), grid y=17, z=17, sweep x — four tile shapes:");
    let w = Workload::Adi { t: 40, n: 64 };
    for x in [4, 8, 13] {
        let pts: Vec<_> = [
            Variant::Rect,
            Variant::AdiNr1,
            Variant::AdiNr2,
            Variant::AdiNr3,
        ]
        .into_iter()
        .map(|v| measure(w, v, (x, 17, 17), model))
        .collect();
        println!(
            "  x={x:>2}: rect {:.3} | nr1 {:.3} | nr2 {:.3} | nr3 {:.3}   (cone surface wins)",
            pts[0].speedup, pts[1].speedup, pts[2].speedup, pts[3].speedup
        );
        assert!(
            pts[3].speedup >= pts[0].speedup,
            "the cone-surface tiling must beat rectangular"
        );
    }
}
