//! The run-based sequential scan: the fast twin of
//! [`Algorithm::execute_sequential`].
//!
//! The scan visits the same points in the same lexicographic order and
//! applies the same read rule — a source that is in the data-space box and
//! written is read, any other source takes the kernel's `initial` value —
//! so its data space is bitwise identical to the oracle's. It differs only
//! in how it gets there:
//!
//! - It walks innermost ranges `[a, h]` ([`LoopNestBounds::runs`]) rather
//!   than one `Vec` per point, keeping `j` and the cell index in reused
//!   buffers.
//! - Dependence `i` is one flat offset `off_i = Σ_k d_ik·weights[k]` into
//!   the dense box.
//! - Per range it computes the *interior window*: the `x` for which every
//!   source `j − d_i` lies in the iteration space, one [`Clamp`] clip
//!   along the innermost axis. Such a source precedes `j`
//!   lexicographically, so it is written, and both points sit in the
//!   box, so its cell is `cell(j) − off_i` (and `off_i ≥ 1`). Inside the
//!   window reads go unchecked; only the window's two edges take the
//!   checked per-point path.
//! - Inside the window, points go through `compute_run` in chunks of
//!   `B ≤ min_i off_i` points. A chunk gathers its reads before it writes;
//!   a read of point `p` is stale only if its writer `p − off_i` lies in
//!   the same chunk, impossible for `B ≤ off_i` — the lag argument of the
//!   compiled chain with flat offsets in place of LDS lags.
//!
//! [`LoopNestBounds::runs`]: tilecc_polytope::LoopNestBounds::runs

use crate::data::DataSpace;
use crate::kernel::{Algorithm, Kernel, CACHE_BLOCK, MIN_BATCH};
use tilecc_linalg::IMat;
use tilecc_polytope::Clamp;

impl Algorithm {
    /// Sequential execution by innermost runs: the same data space as
    /// [`Algorithm::execute_sequential`], bitwise, without its per-point
    /// allocation and checks (see the module docs). No allocation per
    /// point or per run once the kernel's own scratch is warm.
    pub fn execute_scan(&self) -> DataSpace {
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
        let off: Vec<i64> = (0..q)
            .map(|i| (0..n).map(|k| d[i * n + k] * weights[k]).sum())
            .collect();
        // Offsets only matter where the window is non-empty, where each
        // is ≥ 1; a non-positive one belongs to a dependence whose source
        // never lies in the space, so the window — and batching — is void.
        let batch = off.iter().fold(CACHE_BLOCK as i64, |b, &o| b.min(o));
        let batch = if batch >= i64::from(MIN_BATCH) {
            batch as usize
        } else {
            0
        };
        // The window: the `x` whose every source `j − d_i` is in the space.
        let window = Clamp::new(self.nest.space(), deps, &IMat::zeros(n, 0));
        let bounds = self.nest.bounds();
        let last = n - 1;
        let (vals, written) = ds.cells_mut();
        let mut scan = Scan {
            kernel: &*self.kernel,
            n,
            q,
            w,
            ext: lo.iter().zip(&hi).map(|(l, h)| h - l + 1).collect(),
            lo,
            d,
            off,
            batch,
            vals,
            written,
            j: vec![0; n],
            src: vec![0; n],
            reads: vec![0.0; q * w],
            out: vec![0.0; w],
            unit: (0..n).map(|k| i64::from(k == last)).collect(),
            run_reads: vec![0.0; q * batch * w],
            run_out: vec![0.0; batch * w],
        };
        let slope: Vec<i128> = window.dots(&scan.unit).collect();
        let mut runs = bounds.runs();
        while let Some((outer, a, h)) = runs.next() {
            scan.j[..last].copy_from_slice(outer);
            // Flat cell of (outer, x) is `row + x`.
            let row = (0..last)
                .map(|k| (outer[k] - scan.lo[k]) * weights[k])
                .sum::<i64>()
                - scan.lo[last];
            // The range, in the space, is the line `(outer, 0) + x·e_{n−1}`.
            scan.j[last] = 0;
            let line = |k| (window.residual(k, &scan.j), slope[k]);
            let [_, _, wlo, whi] = window.clip(a, h, true, line).unwrap_or([a, h, h + 1, h]);
            for x in a..wlo {
                scan.checked(x, row + x);
            }
            scan.interior(wlo, whi, row);
            for x in whi + 1..=h {
                scan.checked(x, row + x);
            }
        }
        ds
    }
}

/// Scan state: the kernel, the flat geometry, the data-space cells and
/// the reused per-point buffers.
struct Scan<'a> {
    kernel: &'a dyn Kernel,
    n: usize,
    q: usize,
    w: usize,
    lo: Vec<i64>,
    ext: Vec<i64>,
    /// Dependence-major `d[i·n + k] = d_ik`.
    d: Vec<i64>,
    /// Flat cell offset of each dependence.
    off: Vec<i64>,
    /// Safe chunk width inside the window (0 = per point).
    batch: usize,
    vals: &'a mut [f64],
    written: &'a mut [bool],
    j: Vec<i64>,
    src: Vec<i64>,
    reads: Vec<f64>,
    out: Vec<f64>,
    /// The innermost unit step `e_{n−1}`.
    unit: Vec<i64>,
    run_reads: Vec<f64>,
    run_out: Vec<f64>,
}

impl Scan<'_> {
    /// One point at innermost value `x` (flat cell `cell`) by the oracle's
    /// rule: in-box written sources are read, all others are `initial`.
    fn checked(&mut self, x: i64, cell: i64) {
        let (n, w) = (self.n, self.w);
        self.j[n - 1] = x;
        for i in 0..self.q {
            let mut at = Some(0i64);
            for k in 0..n {
                let s = self.j[k] - self.d[i * n + k];
                self.src[k] = s;
                let o = s - self.lo[k];
                at = at
                    .filter(|_| o >= 0 && o < self.ext[k])
                    .map(|a| a * self.ext[k] + o);
            }
            let r = &mut self.reads[i * w..(i + 1) * w];
            match at.map(|a| a as usize).filter(|&a| self.written[a]) {
                Some(a) => r.copy_from_slice(&self.vals[a * w..(a + 1) * w]),
                None => self.kernel.initial(&self.src, r),
            }
        }
        self.store(cell);
    }

    /// One interior point: every source cell is `cell − off_i`, written.
    fn unchecked(&mut self, x: i64, cell: i64) {
        let w = self.w;
        self.j[self.n - 1] = x;
        if w == 1 {
            for (r, &off) in self.reads.iter_mut().zip(&self.off) {
                *r = self.vals[(cell - off) as usize];
            }
        } else {
            for (i, &off) in self.off.iter().enumerate() {
                let s = (cell - off) as usize;
                self.reads[i * w..(i + 1) * w].copy_from_slice(&self.vals[s * w..(s + 1) * w]);
            }
        }
        self.store(cell);
    }

    /// Evaluate the kernel at `self.j` on `self.reads` and write `cell`.
    fn store(&mut self, cell: i64) {
        let w = self.w;
        self.kernel.compute(&self.j, &self.reads, &mut self.out);
        let c = cell as usize;
        self.vals[c * w..(c + 1) * w].copy_from_slice(&self.out);
        self.written[c] = true;
    }

    /// The interior window `[x0, x1]` of a range whose flat cells are
    /// `row + x`: lag-safe `compute_run` chunks when the offsets allow
    /// them, per point otherwise.
    fn interior(&mut self, x0: i64, x1: i64, row: i64) {
        let len = (x1 + 1 - x0) as usize;
        if self.batch == 0 || len < MIN_BATCH as usize {
            for x in x0..=x1 {
                self.unchecked(x, row + x);
            }
            return;
        }
        let w = self.w;
        let mut x = x0;
        while x <= x1 {
            let b = self.batch.min((x1 - x + 1) as usize);
            let cw = b * w;
            let cell = (row + x) as usize;
            for (i, &off) in self.off.iter().enumerate() {
                let s = cell - off as usize;
                self.run_reads[i * cw..(i + 1) * cw].copy_from_slice(&self.vals[s * w..s * w + cw]);
            }
            self.j[self.n - 1] = x;
            self.kernel.compute_run(
                &self.j,
                &self.unit,
                b,
                &self.run_reads[..self.q * cw],
                &mut self.run_out[..cw],
            );
            self.vals[cell * w..cell * w + cw].copy_from_slice(&self.run_out[..cw]);
            self.written[cell..cell + b].fill(true);
            x += b as i64;
        }
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
