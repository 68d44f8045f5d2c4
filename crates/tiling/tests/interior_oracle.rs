//! Seeded property suite for the interior-tile tests: `tile_is_interior`
//! and `tile_is_compute_interior` decide on integer residuals, and must
//! agree with a rational test of every corner of the tile parallelepiped
//! (unshifted, and shifted by each dependence) on every candidate tile of
//! random cut spaces under random rectangular and tiling-cone tilings.

mod common;

use common::{random_cut_space, random_deps, random_tiling, G};
use tilecc_linalg::{IMat, Rational};
use tilecc_polytope::Polyhedron;
use tilecc_tiling::{TiledSpace, TilingTransform};

/// True iff the rational point `x` satisfies every constraint of `space`.
fn contains_rational(space: &Polyhedron, x: &[Rational]) -> bool {
    space.constraints().iter().all(|c| {
        let mut acc = Rational::from_int(c.constant());
        for (k, &coef) in c.coeffs().iter().enumerate() {
            acc += Rational::from_int(coef) * x[k];
        }
        !acc.is_negative()
    })
}

/// Oracle: true iff all `2ⁿ` rational corners of the tile parallelepiped,
/// shifted by `-shift`, lie inside the space — which suffices for the
/// whole shifted tile by convexity. The corners are
/// `P·tile − shift + Σ_{k∈S} P·e_k` (`P·e_k = v_k·P'·e_k`).
fn shifted_corners_in_space(tiled: &TiledSpace, tile: &[i64], shift: Option<&[i64]>) -> bool {
    let n = tiled.dim();
    let p = tiled.transform().p();
    let mut base = p.mul_ivec(tile);
    if let Some(d) = shift {
        for k in 0..n {
            base[k] = base[k] - Rational::from_int(d[k]);
        }
    }
    (0..1u32 << n).all(|mask| {
        let mut corner: Vec<Rational> = base.clone();
        for k in 0..n {
            if mask & (1 << k) != 0 {
                for r in 0..n {
                    corner[r] += p[(r, k)];
                }
            }
        }
        contains_rational(tiled.space(), &corner)
    })
}

/// Check both predicates on every candidate tile and on a ring one tile
/// around the shadow's, under each dependence set. Returns the tiles found
/// interior, not interior, and interior but not compute-interior.
fn check(tiled: &TiledSpace, dep_sets: &[&IMat], what: &str) -> [usize; 3] {
    let mut seen = [0usize; 3];
    let n = tiled.dim();
    for tile in tiled.tile_bounds().points() {
        for ring in 0..3i64.pow(n as u32) {
            let mut t = tile.clone();
            let mut r = ring;
            for x in &mut t {
                *x += r % 3 - 1;
                r /= 3;
            }
            let interior = shifted_corners_in_space(tiled, &t, None);
            assert_eq!(tiled.tile_is_interior(&t), interior, "{what}: tile {t:?}");
            seen[usize::from(!interior)] += 1;
            for deps in dep_sets {
                let sources = (0..deps.cols()).all(|q| {
                    let d = deps.col(q);
                    shifted_corners_in_space(tiled, &t, Some(&d))
                });
                assert_eq!(
                    tiled.tile_is_compute_interior(&t, deps),
                    interior && sources,
                    "{what}: tile {t:?} deps {deps:?}"
                );
                seen[2] += usize::from(interior && !sources);
            }
        }
    }
    seen
}

#[test]
fn interior_tests_match_the_rational_corner_oracle() {
    let mut g = G(0x1A7E_0C0D);
    for n in 1..=3usize {
        let (mut checked, mut cone) = (0usize, 0usize);
        let mut seen = [0usize; 3];
        for case in 0..80 {
            let space = random_cut_space(&mut g, n);
            let deps = random_deps(&mut g, n, 0, 2);
            let Some(h) = random_tiling(&mut g, n, &deps) else {
                continue;
            };
            let rect = (0..n).all(|i| (0..n).all(|j| i == j || h[(i, j)].is_zero()));
            let Ok(t) = TilingTransform::new(h) else {
                continue;
            };
            let Ok(tiled) = TiledSpace::new(t, space) else {
                continue;
            };
            // Dependences with negative entries shift the corners the other
            // way; the empty set leaves only the unshifted test.
            let wide = random_deps(&mut g, n, -2, 3);
            let none = IMat::zeros(n, 0);
            let got = check(
                &tiled,
                &[&deps, &wide, &none],
                &format!("n = {n}, case {case}"),
            );
            for (s, x) in seen.iter_mut().zip(got) {
                *s += x;
            }
            checked += 1;
            cone += usize::from(!rect);
        }
        assert!(checked >= 25, "n = {n}: only {checked} cases built");
        assert!(n == 1 || cone >= 5, "n = {n}: only {cone} cone tilings");
        assert!(
            seen.iter().all(|&s| s > 20),
            "n = {n}: interior / boundary / source-cut tiles {seen:?}"
        );
    }
}
