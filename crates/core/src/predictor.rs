//! Static makespan prediction under the linear schedule `Π = [1,…,1]`.
//!
//! The paper's analysis (§4) counts wavefront steps: the last iteration
//! executes at step `Π·⌊H·j_max⌋`, and with one tile computed per step the
//! completion time is `steps × (tile compute + per-step communication)`.
//! This module computes those quantities exactly from the plan — the number
//! of wavefront steps from the enumerated tile space, the tile compute time
//! from the full tile volume, and the per-step communication from the
//! plan's message regions — and predicts the makespan without executing.
//!
//! The prediction is a *model*, exact only for full wavefronts of full
//! tiles; tests check that it tracks the simulated makespan and preserves
//! the rect/non-rect ordering.

use tilecc_cluster::MachineModel;
use tilecc_parcode::ParallelPlan;

/// Static schedule prediction.
#[derive(Clone, Copy, Debug)]
pub struct SchedulePrediction {
    /// Number of wavefront steps `max Π·j^S − min Π·j^S + 1` over the
    /// enumerated tile space.
    pub steps: i64,
    /// Compute time of one full tile.
    pub tile_compute: f64,
    /// Communication charged per step (one send + one receive per
    /// processor dependence, at the planned message sizes).
    pub per_step_comm: f64,
    /// `steps × (tile_compute + per_step_comm)`.
    pub makespan: f64,
}

/// Predict the makespan of `plan` on `model`.
pub fn predict(plan: &ParallelPlan, model: &MachineModel) -> SchedulePrediction {
    let mut min_step = i64::MAX;
    let mut max_step = i64::MIN;
    for tile in plan.tiled.tiles() {
        let s: i64 = tile.iter().sum();
        min_step = min_step.min(s);
        max_step = max_step.max(s);
    }
    assert!(min_step <= max_step, "empty tile space");
    let steps = max_step - min_step + 1;
    let tile_compute = model.compute_cost(plan.tiled.full_tile_volume() as u64);
    let per_step_comm: f64 = plan
        .region_counts
        .iter()
        .map(|&count| {
            let bytes = count * 8;
            model.send_cost(bytes) + model.wire_latency + model.recv_overhead
        })
        .sum();
    SchedulePrediction {
        steps,
        tile_compute,
        per_step_comm,
        makespan: steps as f64 * (tile_compute + per_step_comm),
    }
}

/// Exact predicted communication volume (bytes): for every tile and every
/// processor dependence with a valid successor tile, one message of the
/// planned region size. Mirrors the executor's SEND logic statically, so it
/// must agree exactly with the measured byte counts.
pub fn predicted_comm_volume(plan: &ParallelPlan) -> u64 {
    let mut bytes = 0u64;
    for tile in plan.tiled.tiles() {
        for (dm_idx, _dm) in plan.comm.proc_deps.iter().enumerate() {
            let has_succ = plan.comm.ds_of_dm(dm_idx).any(|ds| {
                let succ: Vec<i64> = tile.iter().zip(ds).map(|(&a, &b)| a + b).collect();
                plan.tiled.tile_valid(&succ)
            });
            if has_succ {
                bytes += (plan.region_counts[dm_idx] * 8) as u64;
            }
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices;
    use std::sync::Arc;
    use tilecc_frontend::{compile_kernel_with, corpus};
    use tilecc_parcode::{execute, ExecMode};
    use tilecc_tiling::TilingTransform;

    fn plan(h: tilecc_linalg::RMat, m: usize) -> Arc<ParallelPlan> {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 24), ("N", 36)]).unwrap();
        Arc::new(ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(m)).unwrap())
    }

    #[test]
    fn prediction_tracks_simulation_within_a_small_factor() {
        let model = tilecc_cluster::MachineModel::fast_ethernet_p3();
        for h in [matrices::rect(7, 16, 8), matrices::sor_nr(7, 16, 8)] {
            let p = plan(h, 2);
            let pred = predict(&p, &model);
            let sim = execute(p, model, ExecMode::TimingOnly).makespan();
            let ratio = pred.makespan / sim;
            assert!(
                (0.3..=3.0).contains(&ratio),
                "prediction {:.5}s vs simulation {:.5}s (ratio {ratio:.2})",
                pred.makespan,
                sim
            );
        }
    }

    #[test]
    fn prediction_preserves_the_tile_shape_ordering() {
        let model = tilecc_cluster::MachineModel::fast_ethernet_p3();
        let rect = predict(&plan(matrices::rect(7, 16, 8), 2), &model);
        let nr = predict(&plan(matrices::sor_nr(7, 16, 8), 2), &model);
        assert!(
            nr.steps < rect.steps,
            "cone tiling has fewer wavefront steps"
        );
        assert!(nr.makespan < rect.makespan);
        // Equal tile sizes → equal compute term; only scheduling differs.
        assert_eq!(nr.tile_compute, rect.tile_compute);
    }

    #[test]
    fn predicted_comm_volume_matches_measurement_exactly() {
        let model = tilecc_cluster::MachineModel::fast_ethernet_p3();
        for h in [matrices::rect(7, 16, 8), matrices::sor_nr(7, 16, 8)] {
            let p = plan(h, 2);
            let predicted = predicted_comm_volume(&p);
            let res = execute(p, model, ExecMode::TimingOnly);
            assert_eq!(predicted, res.report.total_bytes());
        }
    }

    #[test]
    fn steps_match_the_analytic_formula_for_sor() {
        // Steps ≈ t_r − t_min for the rectangular tiling; compare against
        // the §4.1 closed form evaluated at j_max and the first point.
        let model = tilecc_cluster::MachineModel::zero_comm(1e-7);
        let (m, n, x, y, z) = (24i64, 36i64, 7i64, 16i64, 8i64);
        let pred = predict(&plan(matrices::rect(x, y, z), 2), &model);
        let t_max = crate::analysis::sor_t_rect(m, n, x, y, z);
        // The closed form is continuous; the exact step count differs by at
        // most the number of dimensions (floor effects at both ends).
        assert!(
            (pred.steps as f64 - t_max).abs() <= 4.0,
            "steps {} vs formula {t_max:.1}",
            pred.steps
        );
    }
}
