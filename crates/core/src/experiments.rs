//! Experiment drivers reproducing the paper's evaluation (§4): SOR, Jacobi
//! and ADI under rectangular and non-rectangular tilings of equal tile size,
//! communication volume and processor count.

use crate::analysis;
use crate::matrices;
use crate::pipeline::Pipeline;
use tilecc_cluster::{EngineOptions, MachineModel};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::RMat;
use tilecc_loopnest::Algorithm;
use tilecc_parcode::ExecStrategy;

/// Tiling variant labels used across the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Rectangular `H_r`.
    Rect,
    /// The per-algorithm non-rectangular tiling (`H_nr`).
    NonRect,
    /// ADI `H_nr1`.
    AdiNr1,
    /// ADI `H_nr2`.
    AdiNr2,
    /// ADI `H_nr3` (tiling-cone surface).
    AdiNr3,
}

impl Variant {
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Rect => "rect",
            Variant::NonRect => "non-rect",
            Variant::AdiNr1 => "nr1",
            Variant::AdiNr2 => "nr2",
            Variant::AdiNr3 => "nr3",
        }
    }
}

/// One measured point of a tile-size sweep.
#[derive(Clone, Debug)]
pub struct MeasuredPoint {
    pub variant: &'static str,
    /// Tile factors (x, y, z).
    pub factors: (i64, i64, i64),
    /// Tile size `x·y·z`.
    pub tile_size: i64,
    /// Processors used by the distribution.
    pub procs: usize,
    /// Simulated sequential time (s).
    pub sequential_time: f64,
    /// Simulated parallel completion time (s).
    pub makespan: f64,
    /// Speedup.
    pub speedup: f64,
    /// Analytic wavefront step count (paper's `t_r` / `t_nr` formulas).
    pub predicted_steps: f64,
    /// Total communication volume (bytes).
    pub bytes: u64,
}

/// Which of the three paper algorithms an experiment drives.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// SOR with skewed space sizes (M, N). Mapped along dimension 3 (`m=2`).
    Sor { m: i64, n: i64 },
    /// Jacobi with space sizes (T, N, N). Mapped along dimension 1 (`m=0`).
    Jacobi { t: i64, n: i64 },
    /// ADI with space sizes (T, N). Mapped along dimension 1 (`m=0`).
    Adi { t: i64, n: i64 },
}

impl Workload {
    /// The skewed (tileable) algorithm instance, compiled from the paper
    /// kernel's `.tk` source at this workload's sizes.
    pub fn algorithm(&self) -> Algorithm {
        let (source, params) = match *self {
            Workload::Sor { m, n } => (corpus::SOR, [("M", m), ("N", n)]),
            Workload::Jacobi { t, n } => (corpus::JACOBI, [("T", t), ("N", n)]),
            Workload::Adi { t, n } => (corpus::ADI, [("T", t), ("N", n)]),
        };
        compile_kernel_with(source, &params).expect("the corpus kernels declare these parameters")
    }

    /// The paper's mapping dimension for this workload.
    pub fn mapping_dim(&self) -> usize {
        match self {
            Workload::Sor { .. } => 2,
            Workload::Jacobi { .. } | Workload::Adi { .. } => 0,
        }
    }

    /// The tiling matrix of `variant` with factors `(x, y, z)`.
    pub fn tiling(&self, variant: Variant, x: i64, y: i64, z: i64) -> RMat {
        match (self, variant) {
            (_, Variant::Rect) => matrices::rect(x, y, z),
            (Workload::Sor { .. }, Variant::NonRect) => matrices::sor_nr(x, y, z),
            (Workload::Jacobi { .. }, Variant::NonRect) => matrices::jacobi_nr(x, y, z),
            (Workload::Adi { .. }, Variant::NonRect) => matrices::adi_nr3(x, y, z),
            (Workload::Adi { .. }, Variant::AdiNr1) => matrices::adi_nr1(x, y, z),
            (Workload::Adi { .. }, Variant::AdiNr2) => matrices::adi_nr2(x, y, z),
            (Workload::Adi { .. }, Variant::AdiNr3) => matrices::adi_nr3(x, y, z),
            (w, v) => panic!("variant {v:?} is not defined for workload {w:?}"),
        }
    }

    /// The paper's analytic wavefront step count for `variant`.
    pub fn predicted_steps(&self, variant: Variant, x: i64, y: i64, z: i64) -> f64 {
        match (*self, variant) {
            (Workload::Sor { m, n }, Variant::Rect) => analysis::sor_t_rect(m, n, x, y, z),
            (Workload::Sor { m, n }, Variant::NonRect) => analysis::sor_t_nr(m, n, x, y, z),
            (Workload::Jacobi { t, n }, Variant::Rect) => analysis::jacobi_t_rect(t, n, n, x, y, z),
            (Workload::Jacobi { t, n }, Variant::NonRect) => {
                analysis::jacobi_t_nr(t, n, n, x, y, z)
            }
            (Workload::Adi { t, n }, Variant::Rect) => analysis::adi_t_rect(t, n, x, y, z),
            (Workload::Adi { t, n }, Variant::AdiNr1) => analysis::adi_t_nr1(t, n, x, y, z),
            (Workload::Adi { t, n }, Variant::AdiNr2) => analysis::adi_t_nr2(t, n, x, y, z),
            (Workload::Adi { t, n }, Variant::AdiNr3 | Variant::NonRect) => {
                analysis::adi_t_nr3(t, n, x, y, z)
            }
            (w, v) => panic!("variant {v:?} is not defined for workload {w:?}"),
        }
    }

    /// A short label like `sor-M100-N200`.
    pub fn label(&self) -> String {
        match *self {
            Workload::Sor { m, n } => format!("SOR M={m} N={n}"),
            Workload::Jacobi { t, n } => format!("Jacobi T={t} I={n} J={n}"),
            Workload::Adi { t, n } => format!("ADI T={t} N={n}"),
        }
    }
}

/// Compile and simulate one (workload, variant, factors) point.
pub fn measure(
    workload: Workload,
    variant: Variant,
    (x, y, z): (i64, i64, i64),
    model: MachineModel,
) -> MeasuredPoint {
    let alg = workload.algorithm();
    let h = workload.tiling(variant, x, y, z);
    let pipe =
        Pipeline::compile(alg, h, Some(workload.mapping_dim())).expect("paper tilings are legal");
    let s = pipe
        .simulate(model, ExecStrategy::Compiled, EngineOptions::default())
        .expect("a fault-free timing run completes");
    MeasuredPoint {
        variant: variant.label(),
        factors: (x, y, z),
        tile_size: x * y * z,
        procs: s.procs,
        sequential_time: s.sequential_time,
        makespan: s.makespan,
        speedup: s.speedup,
        predicted_steps: workload.predicted_steps(variant, x, y, z),
        bytes: s.bytes,
    }
}

/// Number of processors a (workload, variant, factors) plan distributes
/// over — used to choose grid factors hitting the paper's 16 processes.
pub fn probe_procs(workload: Workload, variant: Variant, (x, y, z): (i64, i64, i64)) -> usize {
    let alg = workload.algorithm();
    let h = workload.tiling(variant, x, y, z);
    Pipeline::compile(alg, h, Some(workload.mapping_dim()))
        .expect("paper tilings are legal")
        .num_procs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_small_sor_point_both_variants() {
        let model = MachineModel::fast_ethernet_p3();
        let w = Workload::Sor { m: 8, n: 8 };
        let rect = measure(w, Variant::Rect, (4, 4, 4), model);
        let nr = measure(w, Variant::NonRect, (4, 4, 4), model);
        assert_eq!(rect.procs, nr.procs, "same processor count by construction");
        assert_eq!(rect.sequential_time, nr.sequential_time);
        assert!(nr.predicted_steps < rect.predicted_steps);
        assert!(rect.speedup > 0.0 && nr.speedup > 0.0);
    }

    #[test]
    fn adi_variants_have_equal_comm_volume() {
        // Paper: all four ADI transformations have the same tile size,
        // communication volume, and processor count.
        let model = MachineModel::fast_ethernet_p3();
        let w = Workload::Adi { t: 8, n: 12 };
        let pts: Vec<MeasuredPoint> = [
            Variant::Rect,
            Variant::AdiNr1,
            Variant::AdiNr2,
            Variant::AdiNr3,
        ]
        .into_iter()
        .map(|v| measure(w, v, (2, 4, 4), model))
        .collect();
        for p in &pts[1..] {
            assert_eq!(p.procs, pts[0].procs);
            assert_eq!(p.tile_size, pts[0].tile_size);
        }
    }

    #[test]
    fn probe_procs_matches_measure() {
        let w = Workload::Jacobi { t: 6, n: 8 };
        let procs = probe_procs(w, Variant::Rect, (3, 4, 4));
        let pt = measure(
            w,
            Variant::Rect,
            (3, 4, 4),
            MachineModel::fast_ethernet_p3(),
        );
        assert_eq!(procs, pt.procs);
    }
}
