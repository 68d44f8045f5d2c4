//! One stretch of a row: the row loops the sequential scan
//! ([`Algorithm::execute_scan`](crate::Algorithm::execute_scan)) and the
//! compiled chain share for a row with edges, [`Stretch::run`], and per
//! point for one whose every source is stored, [`Stretch::points`]. A row
//! that batches and reads no initial value keeps its callers' own interior
//! loop.
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

use crate::kernel::{Kernel, CACHE_BLOCK};
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

/// Reused buffers of [`Stretch::run`], sized once so that a run allocates
/// nothing: per-point staging, the source intervals the caller sets, and
/// one cache block of dependence-major reads and outputs.
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
    src: Vec<i64>,
    reads: Vec<f64>,
    out: Vec<f64>,
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
    pub fn points<K: Kernel + ?Sized>(
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

    /// The iteration of point `p`, `j0 + p·dj`, into `j`.
    fn iteration(&self, p: usize, j: &mut [i64]) {
        for (k, jk) in j.iter_mut().enumerate() {
            *jk = self.j0[k] + p as i64 * self.dj[k];
        }
    }
}
