//! The run-based sequential scan: the fast twin of
//! [`Algorithm::execute_sequential`].
//!
//! The scan visits the same points in the same lexicographic order and
//! gets the same reads, so its data space is bitwise identical to the
//! oracle's. The oracle reads a source that is in the data-space box and
//! written, and takes the kernel's `initial` value for any other. The scan
//! reads a source that lies in the iteration space and takes `initial`
//! for the rest: the same rule, because every dependence is
//! lexicographically positive. A source in the space precedes its point,
//! so the scan has written it, and only points in the space are ever
//! written. It differs only in how it gets there:
//!
//! - It walks innermost ranges `[a, h]` ([`LoopNestBounds::runs`]) rather
//!   than one `Vec` per point, keeping `j` and the cell index in reused
//!   buffers.
//! - Dependence `i` is one flat offset `off_i = Σ_k d_ik·weights[k]` into
//!   the dense box: a source in the space sits in the box with its point,
//!   so its cell is `cell(j) − off_i` (and `off_i ≥ 1`).
//! - Per range it computes the *interior window*: the `x` for which every
//!   source `j − d_i` lies in the iteration space, one [`Clamp`] clip
//!   along the innermost axis. A range that is all window reads every
//!   source from its cell, unchecked.
//! - A range with edges clips each dependence on its own
//!   ([`Clamp::source_clip`], the residuals computed once per range and
//!   shifted per dependence): its sources lie in the space on one
//!   interval of `x`. Reads inside it come from their cells; the reads
//!   outside it are filled by [`Kernel::initial_run`], one call per
//!   dependence and stretch, into staging sized at set-up.
//! - A range goes through `compute_run` in chunks of
//!   `B = min(CACHE_BLOCK, min_i off_i)` points, a chunk gathering its
//!   reads before it writes: a read of point `p` is stale only if its
//!   writer `p − off_i` lies in the same chunk, impossible for
//!   `B ≤ off_i` — the compiled chain's lag argument with flat offsets in
//!   place of LDS lags. A range with edges is a [`Stretch`], the compiled
//!   chain's row loops.
//! - Below [`MIN_BATCH`] (SOR's `(0,0,1)` has `off = 1`) no range batches
//!   along itself. Up to [`LANES`] consecutive ranges along dimension
//!   `n − 2` with one outer prefix then run as a [`Lanes`] group, the
//!   compiled chain's too: lane `l` runs its point `s − l·δ` at step `s`,
//!   and `δ` ([`lane_delta`], computed once at set-up from the
//!   dependences `(0,…,0, e, u)`) makes every in-group read a cell written
//!   at an earlier step. Each point keeps its reads and expression, so
//!   the data stay bitwise the lexicographic order's. Fewer than
//!   [`MIN_LANES`] ranges run one by one, per point.
//! - The scan checks a cancel flag between ranges
//!   ([`Algorithm::execute_scan_unless`]), so a run that is given up stops
//!   its scan.
//!
//! [`LoopNestBounds::runs`]: tilecc_polytope::LoopNestBounds::runs
//! [`Kernel::initial_run`]: crate::Kernel::initial_run

use crate::data::DataSpace;
use crate::kernel::{Algorithm, Kernel, CACHE_BLOCK, MIN_BATCH};
use crate::stretch::{lane_delta, Lanes, Scratch, Stretch, LANES, MIN_LANES};
use std::sync::atomic::{AtomicBool, Ordering};
use tilecc_linalg::IMat;
use tilecc_polytope::Clamp;

impl Algorithm {
    /// Sequential execution by innermost runs: the same data space as
    /// [`Algorithm::execute_sequential`], bitwise, without its per-point
    /// allocation and checks (see the module docs). No allocation per
    /// point or per run once the kernel's own scratch is warm.
    pub fn execute_scan(&self) -> DataSpace {
        let never = AtomicBool::new(false);
        self.execute_scan_unless(&never)
            .expect("an unset flag never cancels the scan")
    }

    /// [`Algorithm::execute_scan`], stopped between two rows once `cancel`
    /// is set: `None` then.
    pub fn execute_scan_unless(&self, cancel: &AtomicBool) -> Option<DataSpace> {
        let n = self.nest.dim();
        let q = self.nest.num_deps();
        let w = self.width();
        let (lo, hi) = self.nest.bounding_box();
        let mut ds = DataSpace::with_width(&lo, &hi, w);
        let weights = ds.weights();
        let deps = self.nest.deps();
        // Dependence-major copy of D: d[i·n + k] = d_ik.
        let d: Vec<i64> = (0..q)
            .flat_map(|i| (0..n).map(move |k| deps[(k, i)]))
            .collect();
        // A source's cell relative to its point's: `−off_i`.
        let src: Vec<i64> = (0..q)
            .map(|i| -(0..n).map(|k| d[i * n + k] * weights[k]).sum::<i64>())
            .collect();
        // Offsets only matter where a source is in the space, where each
        // is ≥ 1; a non-positive one belongs to a dependence whose source
        // never lies in the space, and it turns batching off.
        let batch = src.iter().fold(CACHE_BLOCK as i64, |b, &s| b.min(-s));
        let batch = if batch >= i64::from(MIN_BATCH) {
            batch as usize
        } else {
            0
        };
        let last = n - 1;
        // Rows that cannot batch run in lane groups along dimension
        // `n − 2`: a dependence `(0,…,0, e, u)` has its source `e` rows up
        // and `u` points back.
        let lanes = batch == 0 && n >= 2;
        let delta = if lanes {
            let within = (0..q).filter(|&i| (0..last - 1).all(|k| d[i * n + k] == 0));
            let span = hi[last] - lo[last] + 1;
            lane_delta(
                within.map(|i| (d[i * n + last - 1], d[i * n + last])),
                LANES,
                span,
            )
        } else {
            0
        };
        // The window: the `x` whose every source `j − d_i` is in the space.
        let window = Clamp::new(self.nest.space(), deps, &IMat::zeros(n, 0));
        let unit: Vec<i64> = (0..n).map(|k| i64::from(k == last)).collect();
        let slope: Vec<i128> = window.dots(&unit).collect();
        let (vals, written) = ds.cells_mut();
        let mut scan = Scan {
            kernel: &*self.kernel,
            res: vec![0; slope.len()],
            window,
            slope,
            dr: (0..n).map(|k| i64::from(k + 1 == last)).collect(),
            unit,
            src,
            d,
            lo,
            pitch: if n >= 2 { weights[last - 1] } else { 0 },
            weights,
            width: w,
            batch,
            delta,
            j: vec![0; n],
            j0: vec![0; n],
            outer: vec![0; last],
            scr: Scratch::new(n, q, w),
            vals,
            written,
        };
        // A lane group: the outer coordinates of its first row and each
        // row's range.
        let (mut first, mut group) = (vec![0; last], Vec::with_capacity(LANES));
        let bounds = self.nest.bounds();
        let mut runs = bounds.runs();
        while let Some((outer, a, h)) = runs.next() {
            if cancel.load(Ordering::Relaxed) {
                return None;
            }
            if !lanes {
                scan.row(outer, a, h);
                continue;
            }
            let rows = group.len();
            let joins = rows > 0
                && rows < LANES
                && outer[..last - 1] == first[..last - 1]
                && outer[last - 1] == first[last - 1] + rows as i64;
            if !joins {
                scan.group(&first, &group);
                group.clear();
                first.copy_from_slice(outer);
            }
            group.push((a, h));
        }
        scan.group(&first, &group);
        Some(ds)
    }
}

/// The state of one [`Algorithm::execute_scan`]: the nest's offsets and
/// window, and the data space's cells.
struct Scan<'a> {
    kernel: &'a dyn Kernel,
    window: Clamp,
    /// Each window constraint's residual at `(outer, 0)` of the current
    /// row, and its step per point.
    res: Vec<i128>,
    slope: Vec<i128>,
    /// The iteration step along a row, and from one row to the next.
    unit: Vec<i64>,
    dr: Vec<i64>,
    src: Vec<i64>,
    d: Vec<i64>,
    lo: Vec<i64>,
    weights: Vec<i64>,
    /// Cell advance from one row to the next of a lane group.
    pitch: i64,
    width: usize,
    batch: usize,
    delta: usize,
    j: Vec<i64>,
    j0: Vec<i64>,
    outer: Vec<i64>,
    scr: Scratch,
    vals: &'a mut [f64],
    written: &'a mut [bool],
}

impl Scan<'_> {
    /// Flat cell of `(outer, 0)`.
    fn row_cell(&self, outer: &[i64]) -> i64 {
        let last = outer.len();
        (0..last)
            .map(|k| (outer[k] - self.lo[k]) * self.weights[k])
            .sum::<i64>()
            - self.lo[last]
    }

    /// Clip the range `[a, h]` of the row at `outer`: each dependence's
    /// stored positions into `scr.stored`, counted from `x = a`. Returns
    /// whether the row has edges.
    fn clip(&mut self, outer: &[i64], a: i64, h: i64) -> bool {
        // The range, in the space, is the line `(outer, 0) + x·e_{n−1}`.
        let last = outer.len();
        self.j[..last].copy_from_slice(outer);
        self.j[last] = 0;
        for (k, r) in self.res.iter_mut().enumerate() {
            *r = self.window.residual(k, &self.j);
        }
        let (res, slope) = (&self.res, &self.slope);
        let line = |k: usize| (res[k], slope[k]);
        let [_, _, wlo, whi] = self
            .window
            .clip(a, h, true, line)
            .unwrap_or([a, h, h + 1, h]);
        let len = (h + 1 - a) as usize;
        let edges = (wlo, whi) != (a, h);
        for (i, stored) in self.scr.stored.iter_mut().enumerate() {
            *stored = if edges {
                self.window
                    .source_clip(a, h, i, line)
                    .map_or((len, len), |[x0, x1]| {
                        ((x0 - a) as usize, (x1 + 1 - a) as usize)
                    })
            } else {
                (0, len)
            };
        }
        edges
    }

    /// One row on its own: the innermost range `[a, h]` at `outer`.
    fn row(&mut self, outer: &[i64], a: i64, h: i64) {
        let edges = self.clip(outer, a, h);
        let len = (h + 1 - a) as usize;
        // Flat cell of (outer, x) is `row + x`.
        let row = self.row_cell(outer);
        let (w, kernel, vals) = (self.width, self.kernel, &mut *self.vals);
        let batch = if len >= MIN_BATCH as usize {
            self.batch
        } else {
            0
        };
        let last = outer.len();
        if batch > 0 && !edges {
            // The interior loop: every read from its cell.
            let (cell0, mut x, scr) = ((row + a) as usize, 0, &mut self.scr);
            while x < len {
                let b = batch.min(len - x);
                let (cell, cw) = (cell0 + x, b * w);
                for (i, &rel) in self.src.iter().enumerate() {
                    let s = (cell as i64 + rel) as usize;
                    scr.run_reads[i * cw..(i + 1) * cw].copy_from_slice(&vals[s * w..s * w + cw]);
                }
                self.j[last] = a + x as i64;
                let out = &mut scr.run_out[..cw];
                let q = self.src.len();
                kernel.compute_run(&self.j, &self.unit, b, &scr.run_reads[..q * cw], out);
                vals[cell * w..cell * w + cw].copy_from_slice(out);
                x += b;
            }
        } else {
            self.j[last] = a;
            let stretch = Stretch {
                at: row + a,
                dst: 0,
                src: &self.src,
                j0: &self.j,
                dj: &self.unit,
                d: &self.d,
                width: w,
            };
            if batch > 0 {
                stretch.run(kernel, vals, 0..len, batch, &mut self.scr);
            } else {
                stretch.per_point(kernel, vals, 0..len, &mut self.scr);
            }
        }
        self.written[(row + a) as usize..=(row + h) as usize].fill(true);
    }

    /// The rows `rows` (their ranges `[a, h]`) at `first` and the rows below
    /// it along dimension `n − 2`: a [`Lanes`] group, or row by row when
    /// there are fewer than [`MIN_LANES`].
    fn group(&mut self, first: &[i64], rows: &[(i64, i64)]) {
        let last = first.len();
        let mut outer = std::mem::take(&mut self.outer);
        outer.copy_from_slice(first);
        if rows.len() < MIN_LANES {
            for &(a, h) in rows {
                self.row(&outer, a, h);
                outer[last - 1] += 1;
            }
            self.outer = outer;
            return;
        }
        // Positions count from the leftmost start `x0`.
        let x0 = rows.iter().map(|r| r.0).min().unwrap_or(0);
        let q = self.src.len();
        for (l, &(a, h)) in rows.iter().enumerate() {
            self.clip(&outer, a, h);
            let off = (a - x0) as usize;
            self.scr.lane_range[l] = (off, off + (h + 1 - a) as usize);
            for (i, &(s0, s1)) in self.scr.stored.iter().enumerate() {
                self.scr.lane_stored[l * q + i] = (s0 + off, s1 + off);
            }
            let row = self.row_cell(&outer);
            self.written[(row + a) as usize..=(row + h) as usize].fill(true);
            outer[last - 1] += 1;
        }
        outer.copy_from_slice(first);
        let at = self.row_cell(&outer) + x0;
        self.j0[..last].copy_from_slice(&outer);
        self.j0[last] = x0;
        self.outer = outer;
        let lanes = Lanes {
            row: Stretch {
                at,
                dst: 0,
                src: &self.src,
                j0: &self.j0,
                dj: &self.unit,
                d: &self.d,
                width: self.width,
            },
            pitch: self.pitch,
            dr: &self.dr,
            delta: self.delta,
        };
        lanes.run(self.kernel, self.vals, rows.len(), &mut self.scr);
    }
}

#[cfg(test)]
mod tests {
    use crate::kernel::tests::skewed;
    use crate::kernel::{boundary_value, Algorithm, Kernel};
    use crate::nest::LoopNest;
    use std::sync::Arc;
    use tilecc_linalg::IMat;
    use tilecc_polytope::{Constraint, Polyhedron};

    fn assert_scan_is_oracle(alg: &Algorithm) {
        let oracle = alg.execute_sequential();
        let scan = alg.execute_scan();
        assert_eq!(scan.diff(&oracle), None, "{}: scan differs", alg.name);
        assert_eq!(scan.num_written(), oracle.num_written());
    }

    /// Coordinate-dependent body and boundary, so a read served from the
    /// wrong cell or the wrong rule changes the bits.
    struct Mix;

    impl Kernel for Mix {
        fn width(&self) -> usize {
            1
        }
        fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
            let mut acc = boundary_value(j) * 0.5;
            for (i, r) in reads.iter().enumerate() {
                acc = acc * 0.75 + r * (1.0 + i as f64 / 8.0);
            }
            out[0] = acc;
        }
        fn initial(&self, j: &[i64], out: &mut [f64]) {
            out[0] = boundary_value(j) - 0.25;
        }
    }

    /// Two components, each reading both of every source's components.
    struct Mix2;

    impl Kernel for Mix2 {
        fn width(&self) -> usize {
            2
        }
        fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
            let (mut a, mut b) = (boundary_value(j), 1.0);
            for r in reads.chunks(2) {
                a = a * 0.5 + r[0] - r[1] * 0.125;
                b = b * 0.25 + r[1] + r[0] * 0.0625;
            }
            out[0] = a;
            out[1] = b;
        }
        fn initial(&self, j: &[i64], out: &mut [f64]) {
            out[0] = boundary_value(j);
            out[1] = -boundary_value(j);
        }
    }

    fn mix(space: Polyhedron, deps: &[&[i64]]) -> Algorithm {
        Algorithm::new(
            "mix",
            LoopNest::new(space, IMat::from_rows(deps)),
            Arc::new(Mix),
        )
    }

    #[test]
    fn scan_matches_oracle_on_triangular_min_max_bounds() {
        // 0 ≤ t ≤ 9, max(0, t − 3) ≤ i ≤ min(9, t + 2).
        let mut space = Polyhedron::from_box(&[0, 0], &[9, 9]);
        space.add(Constraint::new(vec![-1, 1], 3));
        space.add(Constraint::new(vec![1, -1], 2));
        let deps: [&[i64]; 2] = [&[1, 0, 1, 1], &[0, 1, 1, -1]];
        assert_scan_is_oracle(&mix(space, &deps));
    }

    #[test]
    fn scan_matches_oracle_at_width_two_with_batched_rows() {
        // Every dependence crosses a t-plane: flat offsets are large and
        // whole rows go through `compute_run`.
        let space = Polyhedron::from_box(&[0, 0, 0], &[3, 4, 40]);
        let deps = IMat::from_rows(&[&[1, 1, 1], &[0, 1, 0], &[0, 0, -1]]);
        let alg = Algorithm::new("mix2", LoopNest::new(space, deps), Arc::new(Mix2));
        assert_scan_is_oracle(&alg);
    }

    #[test]
    fn scan_matches_oracle_with_an_extent_one_dimension() {
        let deps: [&[i64]; 3] = [&[1, 0, 0], &[0, 0, 1], &[0, 1, 0]];
        assert_scan_is_oracle(&mix(Polyhedron::from_box(&[0, 3, 0], &[5, 3, 7]), &deps));
        assert_scan_is_oracle(&mix(Polyhedron::from_box(&[0, 0, 2], &[5, 6, 2]), &deps));
        assert_scan_is_oracle(&mix(Polyhedron::from_box(&[4], &[4]), &[&[1]]));
    }

    #[test]
    fn scan_matches_oracle_under_negative_skew_entries() {
        let base = mix(
            Polyhedron::from_box(&[1, 1], &[8, 12]),
            &[&[1, 0, 1], &[0, 1, 1]],
        );
        // T·d = (1,−1), (0,1), (1,0): lexicographically positive.
        let t = IMat::from_rows(&[&[1, 0], &[-1, 1]]);
        assert_scan_is_oracle(&skewed(&base, &t));
        let t = IMat::from_rows(&[&[1, 0], &[-3, 1]]);
        let steep = mix(Polyhedron::from_box(&[1, 1], &[6, 30]), &[&[1], &[4]]);
        assert_scan_is_oracle(&skewed(&steep, &t));
    }

    /// A 4-D nest skewed as `heat3d.tk` skews its 7-point stencil, under
    /// kernels whose boundary values read every coordinate: runs lose
    /// sources at both ends and whole runs lose one dependence's. Over the
    /// box and a cut space, batched at width 1 and 2, and per point once an
    /// innermost dependence of lag 1 joins.
    #[test]
    fn scan_matches_oracle_on_a_skewed_4d_nest() {
        let heat: [&[i64]; 4] = [
            &[1, 1, 1, 1, 1, 1, 1],
            &[0, 1, -1, 0, 0, 0, 0],
            &[0, 0, 0, 1, -1, 0, 0],
            &[0, 0, 0, 0, 0, 1, -1],
        ];
        let lag1: [&[i64]; 4] = [&[1, 1, 0], &[0, 1, 0], &[0, -1, 0], &[0, 0, 1]];
        let t = IMat::from_rows(&[&[1, 0, 0, 0], &[1, 1, 0, 0], &[1, 0, 1, 0], &[1, 0, 0, 1]]);
        let boxed = Polyhedron::from_box(&[1, 1, 1, 1], &[3, 5, 4, 6]);
        let mut cut = boxed.clone();
        // x + z ≤ 8 and y ≥ z − 3.
        cut.add(Constraint::new(vec![0, -1, 0, -1], 8));
        cut.add(Constraint::new(vec![0, 0, 1, -1], 3));
        for space in [boxed, cut] {
            for deps in [&heat, &lag1] {
                let nest = || LoopNest::new(space.clone(), IMat::from_rows(deps));
                assert_scan_is_oracle(&skewed(&mix(space.clone(), deps), &t));
                let two = Algorithm::new("mix2", nest(), Arc::new(Mix2));
                assert_scan_is_oracle(&skewed(&two, &t));
            }
        }
    }

    #[test]
    fn scan_matches_oracle_when_a_source_always_leaves_the_box() {
        // d = (1, −50) in a 10-wide box: every source is outside, and its
        // flat offset is negative.
        let deps: [&[i64]; 2] = [&[1, 0], &[-50, 1]];
        assert_scan_is_oracle(&mix(Polyhedron::from_box(&[0, 0], &[5, 9]), &deps));
        // d = (0, 20) along a 10-wide innermost dimension.
        let deps: [&[i64]; 2] = [&[0, 1], &[20, 0]];
        assert_scan_is_oracle(&mix(Polyhedron::from_box(&[0, 0], &[5, 9]), &deps));
    }
}
