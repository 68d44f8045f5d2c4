//! Seeded property suite for the closed-form tile dependences: for every
//! dependence, `TiledSpace::tile_deps` must equal the walk it replaced,
//! which evaluates `⌊(j' + d')/v⌋` at every TTIS point `j'`, across random
//! spaces, random long dependences, random rectangular tilings of
//! dimension 1 to 4 and random tiling-cone tilings of dimension 2 and 3.

mod common;

use common::{random_cut_space, random_deps, random_tiling, G};
use std::collections::BTreeSet;
use tilecc_linalg::IMat;
use tilecc_tiling::{TiledSpace, TilingTransform};

/// The former `TiledSpace::tile_deps`: walk every TTIS point once per
/// dependence.
fn tile_deps_by_walk(tiled: &TiledSpace, deps: &IMat) -> IMat {
    let t = tiled.transform();
    let n = tiled.dim();
    let v = t.v();
    let dp = t.transformed_deps(deps);
    let mut set: BTreeSet<Vec<i64>> = BTreeSet::new();
    for q in 0..dp.cols() {
        let d = dp.col(q);
        for jp in t.ttis_points() {
            let ds: Vec<i64> = (0..n).map(|k| (jp[k] + d[k]).div_euclid(v[k])).collect();
            if ds.iter().any(|&x| x != 0) {
                set.insert(ds);
            }
        }
    }
    assert!(!set.is_empty(), "algorithm has no cross-tile dependencies");
    let cols: Vec<Vec<i64>> = set.into_iter().collect();
    let mut m = IMat::zeros(n, cols.len());
    for (c, col) in cols.iter().enumerate() {
        for k in 0..n {
            m[(k, c)] = col[k];
        }
    }
    m
}

/// One dependence column as a matrix.
fn column(deps: &IMat, q: usize) -> IMat {
    IMat::from_vec(deps.col(q).into_iter().map(|x| vec![x]).collect())
}

#[test]
fn closed_form_tile_deps_match_the_ttis_walk_on_random_corpus() {
    let (mut strided, mut long, mut zero) = (0, 0, 0);
    for n in 1..=4usize {
        // The pruning suite's corpus, dependence for dependence.
        let mut g = G(0xA11CE | 1);
        let mut checked = 0usize;
        for case in 0..70 {
            let space = random_cut_space(&mut g, n);
            let deps = random_deps(&mut g, n, 0, 2);
            let Some(h) = random_tiling(&mut g, n, &deps) else {
                continue;
            };
            // A legal tiling stays legal for stretched dependences, which
            // span up to several tiles.
            let stretch = 1 + case % 3;
            let deps = IMat::from_vec(
                (0..n)
                    .map(|k| (0..deps.cols()).map(|q| stretch * deps[(k, q)]).collect())
                    .collect(),
            );
            let Ok(t) = TilingTransform::new(h) else {
                continue;
            };
            if t.validate_for(&deps).is_err() {
                continue;
            }
            let Ok(tiled) = TiledSpace::new(t, space) else {
                continue;
            };
            let what = format!("n = {n}, case {case}");
            assert_eq!(
                tiled.tile_deps(&deps),
                tile_deps_by_walk(&tiled, &deps),
                "{what}: D^S diverges from the TTIS walk"
            );
            let t = tiled.transform();
            let (v, dp) = (t.v(), t.transformed_deps(&deps));
            for q in 0..deps.cols() {
                let one = column(&deps, q);
                assert_eq!(
                    tiled.tile_deps(&one),
                    tile_deps_by_walk(&tiled, &one),
                    "{what}, dependence {q}"
                );
            }
            strided += usize::from(t.strides().iter().any(|&c| c > 1));
            long += usize::from((0..n).any(|k| (0..dp.cols()).any(|q| dp[(k, q)] >= v[k])));
            zero += usize::from((0..n).any(|k| (0..dp.cols()).any(|q| dp[(k, q)] == 0)));
            checked += 1;
        }
        assert!(checked >= 30, "n = {n}: only {checked} cases built");
    }
    // The agreement proves what it claims only if the corpus reaches
    // sparse TTIS lattices (non-unit strides), dependences spanning two or
    // more tiles, and dependences that stay put along some dimension.
    assert!(strided > 0, "no tiling with a non-unit HNF stride");
    assert!(long > 0, "no dependence with d'_k >= v_k");
    assert!(zero > 0, "no dependence with d'_k = 0");
}

#[test]
fn carry_patterns_the_lattice_cannot_reach_stay_out_of_d_s() {
    // H' = [[1, 1], [-1, 1]] with v = (2, 2): the TTIS lattice is
    // {j' : j'_0 ≡ j'_1 (mod 2)}, with stride 2. The dependence d = (0, 1)
    // becomes d' = (1, 1), which carries in a single dimension only from
    // j' = (1, 0) or (0, 1), and neither lies on the lattice. So only the
    // double carry (1, 1) is a tile dependence, though all three carry
    // patterns are arithmetically possible.
    let h = tilecc_linalg::RMat::from_fractions(&[&[(1, 2), (1, 2)], &[(-1, 2), (1, 2)]]);
    let t = TilingTransform::new(h).unwrap();
    assert_eq!(t.strides(), vec![1, 2]);
    let space = tilecc_polytope::Polyhedron::from_box(&[0, 0], &[7, 7]);
    let tiled = TiledSpace::new(t, space).unwrap();
    let deps = IMat::from_vec(vec![vec![0], vec![1]]);
    let want = IMat::from_vec(vec![vec![1], vec![1]]);
    assert_eq!(tile_deps_by_walk(&tiled, &deps), want);
    assert_eq!(tiled.tile_deps(&deps), want);
}
