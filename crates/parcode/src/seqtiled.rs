//! Sequential tiled execution — the paper's prior work ([7], SAC 2002) that
//! this paper builds on: run the *same* computation reordered into 2n-deep
//! tiled form (outer loops over tiles in lexicographic order, inner strided
//! TTIS traversal) on a single processor.
//!
//! Legality follows from `H·d ≥ 0`: tile dependencies `D^S` are
//! non-negative, so the lexicographic tile order respects them; and within a
//! tile, a dependence source has TTIS coordinate `j' − d'` with
//! `d' = H'·d ≥ 0`, `d' ≠ 0`, which precedes `j'` in the lexicographic
//! lattice walk.

use crate::plan::ParallelPlan;
use tilecc_loopnest::DataSpace;

/// Execute the plan's algorithm tile-by-tile on one processor, reading and
/// writing the global data space directly. Returns the data space — it must
/// be bitwise identical to `Algorithm::execute_sequential`.
pub fn execute_tiled_sequential(plan: &ParallelPlan) -> DataSpace {
    let alg = &plan.algorithm;
    let (lo, hi) = alg.nest.bounding_box();
    let w = alg.width();
    let mut ds = DataSpace::with_width(&lo, &hi, w);
    let deps = alg.nest.deps();
    let q = deps.cols();
    let n = plan.dim();
    let mut reads = vec![0.0f64; q * w];
    let mut out = vec![0.0f64; w];
    let mut src = vec![0i64; n];
    for tile in plan.tiled.tiles() {
        for (_jp, j) in plan.tiled.tile_iterations(&tile) {
            for dq in 0..q {
                for k in 0..n {
                    src[k] = j[k] - deps[(k, dq)];
                }
                match ds.get_all(&src) {
                    Some(v) => reads[dq * w..(dq + 1) * w].copy_from_slice(v),
                    None => alg.kernel.initial(&src, &mut reads[dq * w..(dq + 1) * w]),
                }
            }
            alg.kernel.compute(&j, &reads, &mut out);
            ds.set_all(&j, &out);
        }
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilecc_frontend::{compile_kernel_with, corpus};
    use tilecc_linalg::RMat;
    use tilecc_tiling::TilingTransform;

    fn check(h: RMat) {
        let alg = compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap();
        let untiled = alg.execute_sequential();
        let plan = ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(2)).unwrap();
        let tiled = execute_tiled_sequential(&plan);
        assert_eq!(
            untiled.diff(&tiled),
            None,
            "tiled reordering changed the result"
        );
    }

    #[test]
    fn tiled_sequential_matches_untiled_rect() {
        check(RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 3), (0, 1)],
            &[(0, 1), (0, 1), (1, 4)],
        ]));
    }

    #[test]
    fn tiled_sequential_matches_untiled_nonrect() {
        check(RMat::from_fractions(&[
            &[(1, 2), (0, 1), (0, 1)],
            &[(0, 1), (1, 3), (0, 1)],
            &[(-1, 4), (0, 1), (1, 4)],
        ]));
    }

    #[test]
    fn tiled_sequential_adi_all_variants() {
        for h in [
            tilecc_linalg::RMat::from_fractions(&[
                &[(1, 2), (0, 1), (0, 1)],
                &[(0, 1), (1, 4), (0, 1)],
                &[(0, 1), (0, 1), (1, 4)],
            ]),
            tilecc_linalg::RMat::from_fractions(&[
                &[(1, 2), (-1, 2), (-1, 2)],
                &[(0, 1), (1, 4), (0, 1)],
                &[(0, 1), (0, 1), (1, 4)],
            ]),
        ] {
            let alg = compile_kernel_with(corpus::ADI, &[("T", 6), ("N", 8)]).unwrap();
            let untiled = alg.execute_sequential();
            let plan = ParallelPlan::new(alg, TilingTransform::new(h).unwrap(), Some(0)).unwrap();
            let tiled = execute_tiled_sequential(&plan);
            assert_eq!(untiled.diff(&tiled), None);
        }
    }
}
