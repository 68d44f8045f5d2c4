//! Integration checks of the paper's *scheduling* claims (§4): with equal
//! tile size, communication volume and processor count, tilings drawn from
//! the tiling cone complete earlier than rectangular ones, and the
//! simulated makespans follow the analytic wavefront orderings.

use std::sync::Arc;
use tilecc::{analysis, matrices, measure, Variant, Workload};
use tilecc_cluster::{Counter, EngineOptions, MachineModel};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::RMat;
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_tiling::TilingTransform;

fn model() -> MachineModel {
    MachineModel::fast_ethernet_p3()
}

#[test]
fn sor_non_rect_beats_rect_across_tile_sizes() {
    let w = Workload::Sor { m: 40, n: 60 };
    for z in [6, 10, 16, 26] {
        let r = measure(w, Variant::Rect, (11, 26, z), model());
        let nr = measure(w, Variant::NonRect, (11, 26, z), model());
        assert_eq!(r.procs, nr.procs, "controlled comparison needs equal procs");
        assert!(
            nr.makespan < r.makespan,
            "z={z}: nr {:.5}s not faster than rect {:.5}s",
            nr.makespan,
            r.makespan
        );
        assert!(nr.predicted_steps < r.predicted_steps);
    }
}

#[test]
fn jacobi_non_rect_beats_rect_across_tile_sizes() {
    let w = Workload::Jacobi { t: 24, n: 40 };
    for x in [3, 6, 12] {
        let r = measure(w, Variant::Rect, (x, 16, 16), model());
        let nr = measure(w, Variant::NonRect, (x, 16, 16), model());
        assert_eq!(r.procs, nr.procs);
        assert!(
            nr.makespan <= r.makespan,
            "x={x}: nr {:.5}s slower than rect {:.5}s",
            nr.makespan,
            r.makespan
        );
    }
}

#[test]
fn adi_cone_surface_ordering() {
    // t_nr3 < t_nr1 ≈ t_nr2 < t_r (paper §4.3–4.4).
    let w = Workload::Adi { t: 40, n: 64 };
    for x in [4, 8] {
        let pts: Vec<_> = [
            Variant::Rect,
            Variant::AdiNr1,
            Variant::AdiNr2,
            Variant::AdiNr3,
        ]
        .into_iter()
        .map(|v| measure(w, v, (x, 17, 17), model()))
        .collect();
        let (r, n1, n2, n3) = (&pts[0], &pts[1], &pts[2], &pts[3]);
        assert!(n3.makespan < r.makespan, "x={x}: nr3 not faster than rect");
        assert!(n1.makespan < r.makespan && n2.makespan < r.makespan);
        assert!(n3.makespan <= n1.makespan.min(n2.makespan) + 1e-12);
        // nr1 and nr2 are symmetric with equal y and z factors.
        let rel = (n1.makespan - n2.makespan).abs() / n1.makespan;
        assert!(
            rel < 0.05,
            "nr1 and nr2 should be near-equal, rel diff {rel}"
        );
    }
}

#[test]
fn speedup_bounded_by_processor_count_without_comm_cost() {
    let w = Workload::Adi { t: 24, n: 32 };
    let m = MachineModel::zero_comm(1e-6);
    for v in [Variant::Rect, Variant::AdiNr3] {
        let p = measure(w, v, (4, 9, 9), m);
        assert!(
            p.speedup <= p.procs as f64 + 1e-9,
            "{v:?}: {} > {}",
            p.speedup,
            p.procs
        );
        assert!(p.speedup > 1.0, "{v:?} shows no parallelism");
    }
}

#[test]
fn controlled_comparison_holds_tile_size_and_volume_equal() {
    // The paper's §4.1 argument: common factors ⇒ equal tile sizes; with the
    // first two rows shared (SOR), communication volume and processor count
    // match, so measured differences are purely scheduling.
    let w = Workload::Sor { m: 40, n: 60 };
    let r = measure(w, Variant::Rect, (11, 26, 8), model());
    let nr = measure(w, Variant::NonRect, (11, 26, 8), model());
    assert_eq!(r.tile_size, nr.tile_size);
    assert_eq!(r.procs, nr.procs);
    assert_eq!(r.sequential_time, nr.sequential_time);
    // Communication volume matches closely (boundary tiles may differ).
    let rel = (r.bytes as f64 - nr.bytes as f64).abs() / r.bytes as f64;
    assert!(
        rel < 0.15,
        "communication volumes diverge: {} vs {}",
        r.bytes,
        nr.bytes
    );
}

#[test]
fn makespan_tracks_predicted_steps_within_a_sweep() {
    // Within one variant, more wavefront steps (finer chain tiles) should
    // not reduce the startup-dominated part: check rank correlation between
    // predicted steps and makespan across a coarse-to-fine sweep under a
    // latency-dominated model (where the wavefront term dominates).
    let w = Workload::Sor { m: 40, n: 60 };
    let lat_model = MachineModel {
        compute_per_iter: 1e-9,
        send_overhead: 200e-6,
        recv_overhead: 200e-6,
        wire_latency: 200e-6,
        per_byte: 0.0,
    };
    let mut pts: Vec<_> = [4, 8, 16, 26]
        .into_iter()
        .map(|z| measure(w, Variant::Rect, (11, 26, z), lat_model))
        .collect();
    pts.sort_by(|a, b| a.predicted_steps.total_cmp(&b.predicted_steps));
    for pair in pts.windows(2) {
        assert!(
            pair[0].makespan <= pair[1].makespan * 1.05,
            "makespan should grow with wavefront steps under latency domination"
        );
    }
}

/// The 24×36 SOR nest under `h`, mapped along dimension 2.
fn sor_plan(h: RMat) -> Arc<ParallelPlan> {
    let alg = compile_kernel_with(corpus::SOR, &[("M", 24), ("N", 36)]).unwrap();
    Arc::new(ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(2)).unwrap())
}

#[test]
fn predicted_comm_volume_matches_measurement_exactly() {
    // Every tile sends one message of the planned region size per processor
    // dependence with a valid successor tile; the executor's byte count must
    // equal that static count exactly.
    for h in [matrices::rect(7, 16, 8), matrices::sor_nr(7, 16, 8)] {
        let plan = sor_plan(h);
        let mut predicted = 0u64;
        for tile in plan.tiled.tiles() {
            for dm_idx in 0..plan.comm.proc_deps.len() {
                let has_succ = plan.comm.ds_of_dm(dm_idx).any(|ds| {
                    let succ: Vec<i64> = tile.iter().zip(ds).map(|(&a, &b)| a + b).collect();
                    plan.tiled.tile_valid(&succ)
                });
                if has_succ {
                    predicted += (plan.chain().pack[dm_idx].points * 8) as u64;
                }
            }
        }
        let res = execute(
            plan,
            model(),
            ExecMode::TimingOnly,
            ExecStrategy::Compiled,
            Backend::Threaded,
            EngineOptions::default(),
        )
        .unwrap();
        assert_eq!(predicted, res.report.total(Counter::BytesSent));
    }
}

#[test]
fn steps_match_the_analytic_formula_for_sor() {
    // The wavefront steps of the rectangular tiling, `max Π·j^S − min Π·j^S
    // + 1` over the tile space, against the §4.1 closed form. The closed
    // form is continuous; the exact count differs by at most the number of
    // dimensions (floor effects at both ends).
    let (m, n, x, y, z) = (24i64, 36i64, 7i64, 16i64, 8i64);
    let plan = sor_plan(matrices::rect(x, y, z));
    let sums: Vec<i64> = plan.tiled.tiles().map(|t| t.iter().sum()).collect();
    let steps = sums.iter().max().unwrap() - sums.iter().min().unwrap() + 1;
    let t_max = analysis::sor_t_rect(m, n, x, y, z);
    assert!(
        (steps as f64 - t_max).abs() <= 4.0,
        "steps {steps} vs formula {t_max:.1}"
    );
}
