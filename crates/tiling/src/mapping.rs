//! Computation distribution (§3.1): chains of tiles along the mapping
//! dimension `m` are assigned to the same processor; the remaining `n−1`
//! tile coordinates identify the processor (`pid`).
//!
//! Following the paper (and the UET-UCT optimality result it cites), `m`
//! defaults to the dimension with the maximum number of tiles. Because the
//! tile-space shadow is convex, each processor's chain is a contiguous range
//! of tile indices along `m`.

use crate::tile_space::TiledSpace;
use crate::transform::TilingError;
use std::collections::HashMap;

/// The processor assignment of a tiled space.
#[derive(Clone, Debug)]
pub struct Distribution {
    /// Mapping dimension (tiles along this dimension share a processor).
    pub m: usize,
    /// Distinct processor ids in rank order (lexicographic). A pid holds the
    /// `n−1` tile coordinates with dimension `m` removed.
    pub pids: Vec<Vec<i64>>,
    /// Per-rank inclusive tile range `[l^S_m, u^S_m]` along `m`.
    pub chains: Vec<(i64, i64)>,
    rank_of: HashMap<Vec<i64>, usize>,
}

impl Distribution {
    /// Distribute `tiled` over processors, mapping along `m`
    /// (`None` selects the dimension with the maximum tile count, as the
    /// paper prescribes).
    pub fn new(tiled: &TiledSpace, m: Option<usize>) -> Result<Self, TilingError> {
        let n = tiled.dim();
        let m = match m {
            Some(m) => m,
            None => longest_dimension(tiled)?,
        };
        if m >= n {
            return Err(TilingError::MappingOutOfRange { m, dim: n });
        }
        let mut chains_map: HashMap<Vec<i64>, (i64, i64)> = HashMap::new();
        for tile in tiled.tiles() {
            let pid = project_pid(&tile, m);
            let t = tile[m];
            chains_map
                .entry(pid)
                .and_modify(|(lo, hi)| {
                    *lo = (*lo).min(t);
                    *hi = (*hi).max(t);
                })
                .or_insert((t, t));
        }
        let mut pids: Vec<Vec<i64>> = chains_map.keys().cloned().collect();
        pids.sort();
        let chains: Vec<(i64, i64)> = pids.iter().map(|p| chains_map[p]).collect();
        let rank_of: HashMap<Vec<i64>, usize> = pids
            .iter()
            .cloned()
            .enumerate()
            .map(|(r, p)| (p, r))
            .collect();
        Ok(Distribution {
            m,
            pids,
            chains,
            rank_of,
        })
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.pids.len()
    }

    /// Rank of a processor id, if it exists.
    pub fn rank(&self, pid: &[i64]) -> Option<usize> {
        self.rank_of.get(pid).copied()
    }
}

/// Remove coordinate `m` from a tile index, yielding the pid.
pub fn project_pid(tile: &[i64], m: usize) -> Vec<i64> {
    tile.iter()
        .enumerate()
        .filter(|&(k, _)| k != m)
        .map(|(_, &v)| v)
        .collect()
}

/// Insert value `t` at position `m`, inverse of [`project_pid`].
pub fn insert_at(pid: &[i64], m: usize, t: i64) -> Vec<i64> {
    let mut out = Vec::with_capacity(pid.len() + 1);
    out.extend_from_slice(&pid[..m]);
    out.push(t);
    out.extend_from_slice(&pid[m..]);
    out
}

/// The dimension of the tile space with the maximum extent (number of
/// candidate tile indices).
pub fn longest_dimension(tiled: &TiledSpace) -> Result<usize, TilingError> {
    let n = tiled.dim();
    let mut best = 0usize;
    let mut best_len = -1i64;
    for k in 0..n {
        // Project the shadow onto dimension k alone.
        let mut p = tiled.shadow().clone();
        for v in (0..n).rev() {
            if v != k {
                p = p.eliminate(v)?;
            }
        }
        if let Some((lo, hi)) = p.integer_bounds(0, &[]) {
            let len = hi - lo + 1;
            if len > best_len {
                best_len = len;
                best = k;
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::TilingTransform;
    use tilecc_polytope::Polyhedron;

    fn tiled_box(extents: &[i64], sizes: &[i64]) -> TiledSpace {
        let lo = vec![0i64; extents.len()];
        let hi: Vec<i64> = extents.iter().map(|&e| e - 1).collect();
        TiledSpace::new(
            TilingTransform::rectangular(sizes).unwrap(),
            Polyhedron::from_box(&lo, &hi),
        )
        .unwrap()
    }

    #[test]
    fn longest_dimension_picks_max_tile_count() {
        let tiled = tiled_box(&[8, 32, 8], &[4, 4, 4]);
        assert_eq!(longest_dimension(&tiled).unwrap(), 1);
    }

    #[test]
    fn distribution_covers_all_tiles_exactly_once() {
        let tiled = tiled_box(&[8, 12, 8], &[4, 4, 4]);
        let dist = Distribution::new(&tiled, None).unwrap();
        assert_eq!(dist.m, 1);
        assert_eq!(dist.num_procs(), 2 * 2); // 2 tiles in dims 0 and 2
        let mut count = 0;
        for (r, pid) in dist.pids.iter().enumerate() {
            let (lo, hi) = dist.chains[r];
            assert_eq!((lo, hi), (0, 2));
            for t in lo..=hi {
                let tile = insert_at(pid, dist.m, t);
                assert!(tiled.tile_valid(&tile));
                count += 1;
            }
        }
        assert_eq!(count, tiled.tiles().count());
    }

    #[test]
    fn rank_lookup_round_trip() {
        let tiled = tiled_box(&[8, 8, 8], &[4, 4, 4]);
        let dist = Distribution::new(&tiled, Some(2)).unwrap();
        for (r, pid) in dist.pids.iter().enumerate() {
            assert_eq!(dist.rank(pid), Some(r));
        }
        assert_eq!(dist.rank(&[99, 99]), None);
    }

    #[test]
    fn project_insert_round_trip() {
        let tile = vec![3, 7, 9];
        for m in 0..3 {
            let pid = project_pid(&tile, m);
            assert_eq!(insert_at(&pid, m, tile[m]), tile);
        }
    }

    #[test]
    fn explicit_mapping_dimension_is_respected() {
        let tiled = tiled_box(&[8, 32, 8], &[4, 4, 4]);
        let dist = Distribution::new(&tiled, Some(0)).unwrap();
        assert_eq!(dist.m, 0);
        assert_eq!(dist.num_procs(), 8 * 2);
    }
}
