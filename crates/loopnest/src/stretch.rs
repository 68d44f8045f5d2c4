//! One stretch of a row, and one group of rows run along the wavefront:
//! the row loops the sequential scan
//! ([`Algorithm::execute_scan`](crate::Algorithm::execute_scan)) and the
//! compiled chain share. A row with edges runs as a [`Stretch`]
//! ([`Stretch::run`]), one whose every source is stored per point
//! ([`Stretch::per_point`]), and a row that cannot batch on its own runs with
//! the rows below it as a [`Lanes`] group, one loop for both callers. A
//! row that batches and reads no initial value keeps its callers' own
//! interior loop.
//!
//! Along a row of a dense row-major array the flat offsets are constant:
//! point `p` of a stretch writes cell `at + dst + p` and reads dependence
//! `i` from cell `at + src[i] + p`. Where the source `j − d_i` lies in the
//! space the read comes from its cell. Elsewhere it is the kernel's initial
//! value at `j0 + p·dj − d_i`, and those sources step by `dj` as well, so
//! one [`Kernel::initial_run`] per dependence and stretch of a chunk stages
//! them; no point is tested.
//!
//! A batched chunk gathers all its reads before it writes. A read of point
//! `p` could be stale only if its writer `p − lag_i`, `lag_i = dst −
//! src[i]`, lay in the same chunk, impossible for a chunk no wider than
//! every positive lag — each caller's lag argument picks `batch` so.
//!
//! # The lane group
//!
//! A row whose smallest lag is below [`MIN_BATCH`] (SOR's `(0,0,1)` has
//! lag 1) cannot batch along itself. The paper's linear schedule
//! `Π = [1,…,1]` batches it across rows instead: up to [`LANES`]
//! consecutive rows of one outer prefix, lane `l` of the group `l` rows
//! below lane 0, whose cells start a constant `pitch` apart and whose
//! iterations a constant `dr` apart. At step `s` lane `l` runs its position
//! `s − l·δ`, so the eight points of one step are the affine run
//! `j0 + s·dj + l·(dr − δ·dj)`, and one `compute_run` computes them.
//!
//! `δ` is the smallest shift that makes every read of a point of the group
//! a cell written at an earlier step. A dependence whose source lies `e ≥ 1`
//! rows up and `u` positions back, `d = e·dr + u·dj`, is read at step
//! `s` and was written at step `s − u − e·δ`, so it needs `u + e·δ > 0`
//! ([`lane_delta`]); a dependence within a row (`e = 0`) has `u ≥ 1`
//! already. Each point keeps its reads and its own expression, so the data
//! stay bitwise those of the row-by-row order: only points no dependence
//! orders change places.
//!
//! The group runs step by step, from its first lane's first point to its
//! last lane's last. A step runs the lanes that have a point there, one
//! `compute_run` per run of consecutive lanes, or per point below
//! [`MIN_BATCH`] lanes, where a lane block costs more than its points one
//! by one; so ragged rows are lanes with fewer points. A chunk of steps
//! some of whose reads are initial values first stages them, per lane and
//! dependence, through one [`Kernel::initial_run`].

use crate::kernel::{Kernel, CACHE_BLOCK, MIN_BATCH};
use std::ops::Range;

/// Where one stretch of a row lives and what it computes: point `p` is
/// iteration `j0 + p·dj`, writes cell `at + dst + p` of an array of
/// `width`-value cells and reads dependence `i` from cell
/// `at + src[i] + p`.
pub struct Stretch<'a> {
    /// Base cell of the stretch.
    pub at: i64,
    /// Cell written by point 0, relative to `at`.
    pub dst: i64,
    /// Cell of each dependence's read of point 0, relative to `at`.
    pub src: &'a [i64],
    /// Iteration of point 0.
    pub j0: &'a [i64],
    /// Iteration step per point.
    pub dj: &'a [i64],
    /// The dependences, dependence-major: `d[i·n + k] = d_ik`.
    pub d: &'a [i64],
    /// Values per cell.
    pub width: usize,
}

/// Rows per [`Lanes`] group: the points of one tape lane block.
pub const LANES: usize = 8;

/// Fewest rows a [`Lanes`] group runs; fewer keep their row loops.
pub const MIN_LANES: usize = MIN_BATCH as usize;

/// Steps per chunk of a lane group's staged initial values: one chunk of
/// every lane fills the [`CACHE_BLOCK`] staging of a stretch.
const LANE_CHUNK: usize = CACHE_BLOCK / LANES;

/// The wavefront shift `δ` of a group of `lanes` rows: the smallest `δ ≥ 0`
/// with `u + e·δ > 0` for every dependence `(e, u)` whose source lies `e`
/// rows up and `u` positions back (see the module docs). Only dependences
/// whose source can lie in the group count: `1 ≤ e < lanes` and `|u|`
/// below `span`, the most positions a row of the group has.
pub fn lane_delta(deps: impl IntoIterator<Item = (i64, i64)>, lanes: usize, span: i64) -> usize {
    deps.into_iter()
        .filter(|&(e, u)| (1..lanes as i64).contains(&e) && u.abs() < span)
        .map(|(e, u)| (-u).div_euclid(e) + 1)
        .fold(0, i64::max) as usize
}

/// Reused buffers of [`Stretch::run`] and [`Lanes::run`], sized once so
/// that a run allocates nothing: per-point staging, the source intervals
/// the caller sets, one cache block of dependence-major reads and outputs,
/// and one lane block of a group.
pub struct Scratch {
    /// Per dependence, the half-open positions whose source lies in the
    /// space; the reads elsewhere are initial values.
    pub stored: Vec<(usize, usize)>,
    /// One point's iteration.
    pub j: Vec<i64>,
    /// One chunk of dependence-major reads: gathered cells and staged
    /// initial values.
    pub run_reads: Vec<f64>,
    /// One chunk's values.
    pub run_out: Vec<f64>,
    /// Per lane of a [`Lanes`] group, its half-open positions.
    pub lane_range: [(usize, usize); LANES],
    /// Per lane and dependence, lane-major (`l·q + i`), the half-open
    /// positions whose source lies in the space.
    pub lane_stored: Vec<(usize, usize)>,
    src: Vec<i64>,
    reads: Vec<f64>,
    out: Vec<f64>,
    /// The iteration step from lane to lane at one step.
    lane_dj: Vec<i64>,
    /// One step's dependence-major reads of every lane.
    lane_reads: Vec<f64>,
    /// One step's values of every lane.
    lane_out: Vec<f64>,
}

impl Scratch {
    /// Buffers for an `n`-deep nest with `q` dependences and `w` values
    /// per cell.
    pub fn new(n: usize, q: usize, w: usize) -> Self {
        Scratch {
            j: vec![0; n],
            reads: vec![0.0; q * w],
            out: vec![0.0; w],
            stored: vec![(0, 0); q],
            src: vec![0; n],
            run_reads: vec![0.0; q * CACHE_BLOCK * w],
            run_out: vec![0.0; CACHE_BLOCK * w],
            lane_range: [(0, 0); LANES],
            lane_stored: vec![(0, 0); LANES * q],
            lane_dj: vec![0; n],
            lane_reads: vec![0.0; q * LANES * w],
            lane_out: vec![0.0; LANES * w],
        }
    }
}

impl Stretch<'_> {
    /// Compute the points `range` in chunks of `batch` points through
    /// `compute_run`, or per point with `batch = 0` (in chunks of
    /// [`CACHE_BLOCK`]). Dependence `i` reads its cell on `scr.stored[i]`,
    /// and each chunk first stages its initial values elsewhere.
    pub fn run<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        vals: &mut [f64],
        range: Range<usize>,
        batch: usize,
        scr: &mut Scratch,
    ) {
        let (n, q, w) = (self.j0.len(), self.src.len(), self.width);
        let chunk = if batch == 0 { CACHE_BLOCK } else { batch };
        let cell = |rel: i64, p: usize| (self.at + rel + p as i64) as usize;
        let mut c0 = range.start;
        while c0 < range.end {
            let c1 = range.end.min(c0 + chunk);
            let cw = (c1 - c0) * w;
            for i in 0..q {
                let (a, e) = scr.stored[i];
                let (a, e) = (a.clamp(c0, c1), e.clamp(c0, c1));
                let block = &mut scr.run_reads[i * cw..(i + 1) * cw];
                for (from, to) in [(c0, a), (e, c1)] {
                    if from == to {
                        continue;
                    }
                    for (k, s) in scr.src.iter_mut().enumerate() {
                        *s = self.j0[k] + from as i64 * self.dj[k] - self.d[i * n + k];
                    }
                    let out = &mut block[(from - c0) * w..(to - c0) * w];
                    kernel.initial_run(&scr.src, self.dj, to - from, out);
                }
                if batch > 0 && a < e {
                    let s = cell(self.src[i], a);
                    block[(a - c0) * w..(e - c0) * w]
                        .copy_from_slice(&vals[s * w..(s + e - a) * w]);
                }
            }
            if batch > 0 {
                self.iteration(c0, &mut scr.j);
                let out = &mut scr.run_out[..cw];
                kernel.compute_run(&scr.j, self.dj, c1 - c0, &scr.run_reads[..q * cw], out);
                let d = cell(self.dst, c0);
                vals[d * w..d * w + cw].copy_from_slice(out);
            } else {
                for p in c0..c1 {
                    self.iteration(p, &mut scr.j);
                    for i in 0..q {
                        let (a, e) = scr.stored[i];
                        let read = if (a..e).contains(&p) {
                            let s = cell(self.src[i], p);
                            &vals[s * w..(s + 1) * w]
                        } else {
                            &scr.run_reads[i * cw + (p - c0) * w..][..w]
                        };
                        scr.reads[i * w..(i + 1) * w].copy_from_slice(read);
                    }
                    kernel.compute(&scr.j, &scr.reads, &mut scr.out);
                    let d = cell(self.dst, p);
                    vals[d * w..(d + 1) * w].copy_from_slice(&scr.out);
                }
            }
            c0 = c1;
        }
    }

    /// Compute the points `range`, whose every source is stored, one by
    /// one: the loop of a row that cannot batch, without staging.
    fn points<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        vals: &mut [f64],
        range: Range<usize>,
        scr: &mut Scratch,
    ) {
        let w = self.width;
        self.iteration(range.start, &mut scr.j);
        for p in range {
            for (i, &rel) in self.src.iter().enumerate() {
                let s = (self.at + rel + p as i64) as usize;
                if w == 1 {
                    scr.reads[i] = vals[s];
                } else {
                    scr.reads[i * w..(i + 1) * w].copy_from_slice(&vals[s * w..(s + 1) * w]);
                }
            }
            kernel.compute(&scr.j, &scr.reads, &mut scr.out);
            let d = (self.at + self.dst + p as i64) as usize;
            vals[d * w..(d + 1) * w].copy_from_slice(&scr.out);
            for (jk, step) in scr.j.iter_mut().zip(self.dj) {
                *jk += step;
            }
        }
    }

    /// Compute the points `range` one by one, dependence `i` reading its
    /// cell on `scr.stored[i]`: the positions whose every read is stored
    /// run without staging, and only the edges around them
    /// stage their initial values.
    pub fn per_point<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        vals: &mut [f64],
        range: Range<usize>,
        scr: &mut Scratch,
    ) {
        let (a, e) = (range.start, range.end);
        let w0 = scr.stored.iter().map(|s| s.0).fold(a, usize::max).min(e);
        let w1 = scr.stored.iter().map(|s| s.1).fold(e, usize::min).max(w0);
        self.run(kernel, vals, a..w0, 0, scr);
        self.points(kernel, vals, w0..w1, scr);
        self.run(kernel, vals, w1..e, 0, scr);
    }

    /// The iteration of point `p`, `j0 + p·dj`, into `j`.
    fn iteration(&self, p: usize, j: &mut [i64]) {
        for (k, jk) in j.iter_mut().enumerate() {
            *jk = self.j0[k] + p as i64 * self.dj[k];
        }
    }
}

/// A group of up to [`LANES`] consecutive rows run along the wavefront (see
/// the module docs): lane `l` is the row whose positions sit at cells
/// `row.at + l·pitch + …` and iterations `row.j0 + l·dr + …`, and it runs its
/// position `s − l·delta` at step `s`. Every lane reads with `row`'s
/// offsets.
pub struct Lanes<'a> {
    /// Lane 0's row.
    pub row: Stretch<'a>,
    /// Cell advance from one lane's row to the next.
    pub pitch: i64,
    /// Iteration advance from one lane's row to the next.
    pub dr: &'a [i64],
    /// The wavefront shift `δ` ([`lane_delta`]).
    pub delta: usize,
}

/// Copy one `w`-value cell, without a `memcpy` call for one value.
#[inline(always)]
fn copy_cell(to: &mut [f64], from: &[f64], w: usize) {
    if w == 1 {
        to[0] = from[0];
    } else {
        to[..w].copy_from_slice(&from[..w]);
    }
}

impl Lanes<'_> {
    /// Compute the first `count` lanes step by step, lane `l` on its
    /// positions `scr.lane_range[l]` and its dependence `i` reading the cell
    /// on `scr.lane_stored[l·q + i]` and the initial value elsewhere. Each
    /// step runs its lanes with a point, one `compute_run` per run of
    /// consecutive ones, or per point below [`MIN_BATCH`] lanes. Returns the
    /// points computed through `compute_run`.
    pub fn run<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        vals: &mut [f64],
        count: usize,
        scr: &mut Scratch,
    ) -> u64 {
        let d = self.delta;
        // Lane `l` has points at the steps `lo[l]..hi[l]`.
        let (mut lo, mut hi) = ([0; LANES], [0; LANES]);
        for (l, r) in scr.lane_range[..count].iter().enumerate() {
            (lo[l], hi[l]) = (r.0 + l * d, r.1 + l * d);
        }
        let first = lo[..count].iter().copied().min().unwrap_or(0);
        let end = hi[..count].iter().copied().max().unwrap_or(0);
        for k in 0..self.dr.len() {
            scr.lane_dj[k] = self.dr[k] - d as i64 * self.row.dj[k];
        }
        // Whether some read is an initial value: only then are there stages.
        let q = self.row.src.len();
        let edges = (0..count).any(|l| {
            let r = scr.lane_range[l];
            let stored = &scr.lane_stored[l * q..(l + 1) * q];
            stored.iter().any(|s| s.0 > r.0 || s.1 < r.1)
        });
        // The steps at which every lane has a point.
        let full = lo[..count].iter().copied().max().unwrap_or(0)
            ..hi[..count].iter().copied().min().unwrap_or(0);
        let mut batched = 0;
        let mut c0 = first;
        while c0 < end {
            let c1 = end.min(c0 + LANE_CHUNK);
            let staged = if edges {
                self.stage(kernel, count, c0..c1, scr)
            } else {
                0..0
            };
            for s in c0..c1 {
                // Only the steps with a staged read check where each read is.
                let staged = staged.contains(&s).then_some(c0);
                if full.contains(&s) {
                    self.gather(vals, 0..count, s, staged, scr);
                    batched += self.step(kernel, vals, 0, count, s, scr);
                    continue;
                }
                let mut l0 = 0;
                while l0 < count {
                    let active = |l: usize| lo[l] <= s && s < hi[l];
                    if !active(l0) {
                        l0 += 1;
                        continue;
                    }
                    let l1 = (l0 + 1..count).find(|&l| !active(l)).unwrap_or(count);
                    self.gather(vals, l0..l1, s, staged, scr);
                    batched += self.step(kernel, vals, l0, l1 - l0, s, scr);
                    l0 = l1;
                }
            }
            c0 = c1;
        }
        batched
    }

    /// Cell advance from lane to lane at one step.
    fn stride(&self) -> i64 {
        self.pitch - self.delta as i64
    }

    /// Stage the initial values the first `count` lanes read at steps
    /// `steps` (at most [`LANE_CHUNK`]), per lane and dependence, into
    /// `scr.run_reads`. Returns the steps that read one (empty for none).
    fn stage<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        count: usize,
        steps: Range<usize>,
        scr: &mut Scratch,
    ) -> Range<usize> {
        let (n, q, w, d) = (
            self.row.j0.len(),
            self.row.src.len(),
            self.row.width,
            self.delta,
        );
        let mut staged = steps.end..steps.start;
        for (l, r) in scr.lane_range[..count].iter().enumerate() {
            // The lane's positions at these steps.
            let p0 = steps.start.saturating_sub(l * d).clamp(r.0, r.1);
            let p1 = steps.end.saturating_sub(l * d).clamp(r.0, r.1);
            for i in 0..q {
                let (a, e) = scr.lane_stored[l * q + i];
                let (a, e) = (a.clamp(p0, p1), e.clamp(p0, p1));
                for (from, to) in [(p0, a), (e, p1)] {
                    if from == to {
                        continue;
                    }
                    staged = staged.start.min(from + l * d)..staged.end.max(to + l * d);
                    for (k, s) in scr.src.iter_mut().enumerate() {
                        *s = self.row.j0[k] + l as i64 * self.dr[k] + from as i64 * self.row.dj[k]
                            - self.row.d[i * n + k];
                    }
                    let at = stage_at(i, l, from + l * d - steps.start, w);
                    let out = &mut scr.run_reads[at..at + (to - from) * w];
                    kernel.initial_run(&scr.src, self.row.dj, to - from, out);
                }
            }
        }
        staged
    }

    /// Gather the reads of lanes `lanes` at step `s` into `scr.lane_reads`,
    /// dependence-major: one strided copy per dependence, and with `staged`
    /// (the chunk's first step, for a step with a staged read) each read
    /// outside its stored interval from its stage.
    fn gather(
        &self,
        vals: &[f64],
        lanes: Range<usize>,
        s: usize,
        staged: Option<usize>,
        scr: &mut Scratch,
    ) {
        let (q, w, d, stride) = (
            self.row.src.len(),
            self.row.width,
            self.delta,
            self.stride(),
        );
        let k = lanes.len();
        for (i, &rel) in self.row.src.iter().enumerate() {
            let base = self.row.at + rel + s as i64;
            let block = &mut scr.lane_reads[i * k * w..(i + 1) * k * w];
            if staged.is_none() && w == 1 {
                // Every read from its cell: one strided load per lane.
                let first = base + lanes.start as i64 * stride;
                for (t, x) in block.iter_mut().enumerate() {
                    *x = vals[(first + t as i64 * stride) as usize];
                }
                continue;
            }
            for (to, l) in block.chunks_exact_mut(w).zip(lanes.clone()) {
                let from = match staged {
                    Some(c0)
                        if !(scr.lane_stored[l * q + i].0..scr.lane_stored[l * q + i].1)
                            .contains(&(s - l * d)) =>
                    {
                        &scr.run_reads[stage_at(i, l, s - c0, w)..]
                    }
                    _ => &vals[(base + l as i64 * stride) as usize * w..],
                };
                copy_cell(to, from, w);
            }
        }
    }

    /// The `k` lanes from `l0` at step `s`, their reads gathered into
    /// `scr.lane_reads`: the affine run `j0 + l0·dr + (s − l0·δ)·dj +
    /// l·(dr − δ·dj)`, through one `compute_run` or, below [`MIN_BATCH`]
    /// lanes, per point; written back. Returns the points batched.
    fn step<K: Kernel + ?Sized>(
        &self,
        kernel: &K,
        vals: &mut [f64],
        l0: usize,
        k: usize,
        s: usize,
        scr: &mut Scratch,
    ) -> u64 {
        let (q, w, stride) = (self.row.src.len(), self.row.width, self.stride());
        let (l0, p0) = (l0 as i64, (s - l0 * self.delta) as i64);
        for (m, jm) in scr.j.iter_mut().enumerate() {
            *jm = self.row.j0[m] + l0 * self.dr[m] + p0 * self.row.dj[m];
        }
        let out = &mut scr.lane_out[..k * w];
        let batch = k >= MIN_BATCH as usize;
        if batch {
            kernel.compute_run(&scr.j, &scr.lane_dj, k, &scr.lane_reads[..q * k * w], out);
        } else {
            // A lane block costs more than a few points one by one.
            for l in 0..k {
                for i in 0..q {
                    copy_cell(
                        &mut scr.reads[i * w..],
                        &scr.lane_reads[(i * k + l) * w..],
                        w,
                    );
                }
                kernel.compute(&scr.j, &scr.reads, &mut out[l * w..(l + 1) * w]);
                for (jm, step) in scr.j.iter_mut().zip(&scr.lane_dj) {
                    *jm += step;
                }
            }
        }
        let dst = self.row.at + self.row.dst + s as i64 + l0 * stride;
        for (l, v) in out.chunks_exact(w).enumerate() {
            let cell = (dst + l as i64 * stride) as usize;
            copy_cell(&mut vals[cell * w..], v, w);
        }
        if batch {
            k as u64
        } else {
            0
        }
    }
}

/// Stage of lane `l`, dependence `i`, at step `t` of a chunk of a
/// [`Lanes`] group, in `w`-value cells.
fn stage_at(i: usize, l: usize, t: usize, w: usize) -> usize {
    ((i * LANES + l) * LANE_CHUNK + t) * w
}
