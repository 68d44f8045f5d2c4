//! Seeded property suite for plan-time tile pruning: the row clip in
//! `TiledSpace::new` must agree with a brute-force lattice-walk oracle on
//! every candidate tile — the same `nonempty` set and a bitwise-identical
//! `tiles_pruned` count — across random cut spaces under random
//! rectangular and tiling-cone tilings.
//!
//! The oracle enumerates every candidate the convex shadow admits and
//! walks the full TTIS lattice box for each, testing every point; any
//! divergence means a row clip missed an iteration or kept an empty tile.

mod common;

use common::{random_cut_space, random_deps, random_tiling, G};
use std::collections::BTreeSet;
use tilecc_linalg::RMat;
use tilecc_polytope::{Constraint, Polyhedron};
use tilecc_tiling::{TiledSpace, TilingTransform};

/// Brute-force oracle: lattice-walk every candidate tile of the shadow.
/// Returns the non-empty tile set and the pruned-candidate count.
fn lattice_walk_oracle(tiled: &TiledSpace) -> (BTreeSet<Vec<i64>>, usize) {
    let t = tiled.transform();
    let lo = vec![0i64; tiled.dim()];
    let mut nonempty = BTreeSet::new();
    let mut candidates = 0usize;
    for tile in tiled.tile_bounds().points() {
        candidates += 1;
        if t.lattice()
            .points_in_box(&lo, t.v())
            .any(|jp| tiled.space().contains(&t.iteration_fast(&tile, &jp)))
        {
            nonempty.insert(tile);
        }
    }
    let pruned = candidates - nonempty.len();
    (nonempty, pruned)
}

fn check_against_oracle(tiled: &TiledSpace, what: &str) -> usize {
    let (want_set, want_pruned) = lattice_walk_oracle(tiled);
    let got_set: BTreeSet<Vec<i64>> = tiled.tiles().collect();
    assert_eq!(got_set, want_set, "{what}: nonempty tile set diverges");
    assert_eq!(
        tiled.tiles_pruned(),
        want_pruned,
        "{what}: tiles_pruned diverges from the lattice-walk oracle"
    );
    want_pruned
}

#[test]
fn pruning_matches_lattice_walk_oracle_on_random_corpus() {
    for n in 2..=4usize {
        // One stream per dimension, so the 3-D corpus is the one this
        // suite has always checked.
        let mut g = G(0xA11CE | 1);
        let mut checked = 0usize;
        let mut pruned_total = 0usize;
        let mut walks_total = 0usize;
        for case in 0..70 {
            let space = random_cut_space(&mut g, n);
            let deps = random_deps(&mut g, n, 0, 2);
            let Some(h) = random_tiling(&mut g, n, &deps) else {
                continue;
            };
            let Ok(t) = TilingTransform::new(h) else {
                continue;
            };
            let Ok(tiled) = TiledSpace::new(t, space) else {
                continue;
            };
            pruned_total += check_against_oracle(&tiled, &format!("n = {n}, case {case}"));
            walks_total += tiled.feasibility_walks();
            checked += 1;
        }
        assert!(
            checked >= 30,
            "n = {n}: corpus too small: only {checked} cases built"
        );
        // The corpus must actually exercise the row clip — if every
        // candidate were interior, the agreement above would prove less
        // than it claims.
        assert!(
            walks_total > 0 || pruned_total == 0,
            "n = {n}: no case clipped a boundary tile"
        );
    }
}

#[test]
fn pruning_matches_oracle_where_the_shadow_overapproximates() {
    // Deterministic known-pruning case (from the tile_space unit tests):
    // a cut 2-D space under a non-rectangular tiling whose FM shadow
    // admits one empty candidate tile.
    let mut p = Polyhedron::universe(2);
    p.add(Constraint::new(vec![1, 0], 0));
    p.add(Constraint::new(vec![-1, 0], 7));
    p.add(Constraint::new(vec![0, 1], 0));
    p.add(Constraint::new(vec![0, -1], 4));
    p.add(Constraint::new(vec![-3, 2], 5));
    let h = RMat::from_fractions(&[&[(1, 4), (0, 1)], &[(1, 4), (1, 2)]]);
    let tiled = TiledSpace::new(TilingTransform::new(h).unwrap(), p).unwrap();
    let pruned = check_against_oracle(&tiled, "overapproximating shadow");
    assert_eq!(pruned, 1, "this shadow admits exactly one empty candidate");
}

#[test]
fn row_clip_accounting_covers_every_non_interior_candidate() {
    // Every candidate is either interior (kept without a clip) or decided
    // by the row clip, which `feasibility_walks` counts: candidates =
    // interior + feasibility_walks. On a box every candidate holds a
    // point, so nothing is pruned.
    let space = Polyhedron::from_box(&[1, 1, 1], &[10, 10, 10]);
    let t = TilingTransform::rectangular(&[4, 4, 4]).unwrap();
    let tiled = TiledSpace::new(t, space).unwrap();
    check_against_oracle(&tiled, "plain box");
    let candidates = tiled.tile_bounds().points().count();
    let interior = tiled
        .tile_bounds()
        .points()
        .filter(|t| tiled.tile_is_interior(t))
        .count();
    let unaccounted = candidates - interior - tiled.feasibility_walks();
    assert_eq!(candidates, 27);
    assert_eq!(interior, 1);
    assert_eq!(
        unaccounted, 0,
        "every non-interior candidate is decided by the row clip"
    );
    assert_eq!(tiled.tiles_pruned(), 0, "every box candidate holds a point");
}
