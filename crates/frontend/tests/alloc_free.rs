//! The per-point kernel paths allocate nothing once warm. A counting
//! global allocator (std only) tallies this thread's allocations around
//! the code under test:
//!
//! - `compute` and `initial` of a skewed `.tk` kernel whose body and
//!   boundary read original coordinates (`bnd()`, coordinates, `mod`), so
//!   every call maps its point through `T⁻¹`;
//! - `compute`, `initial` and the lane-blocked `compute_run` and
//!   `initial_run` of that kernel and of the skewed corpus SOR kernel,
//!   whose body reads no coordinate;
//! - the sequential scan `Algorithm::execute_scan`, whose allocations are
//!   its fixed set-up alone (its staging of initial values included): the
//!   same count for a nest with 4x the runs and 8x the points.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tilecc_frontend::{compile_kernel, compile_kernel_with, corpus};

mod common;
use common::SKEWED;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// const-initialized thread-local counter itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn tk_kernel_per_point_paths_do_not_allocate() {
    let alg = compile_kernel(SKEWED).unwrap();
    let k = &alg.kernel;
    let (q, w) = (alg.nest.num_deps(), alg.width());
    let reads: Vec<f64> = (0..q * w).map(|i| i as f64 * 0.5).collect();
    let mut out = vec![0.0; w];
    let mut j = vec![3i64, 9, 14];
    // Warm-up grows the thread's tape scratch once.
    k.compute(&j, &reads, &mut out);
    k.initial(&j, &mut out);
    let n = allocations(|| {
        for s in 0..1000i64 {
            j[2] = s - 500;
            k.compute(&j, &reads, &mut out);
            k.initial(&j, &mut out);
        }
    });
    assert_eq!(n, 0, "skewed .tk kernel compute/initial allocated");
}

#[test]
fn skewed_tk_kernel_does_not_allocate() {
    for alg in [
        compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap(),
        compile_kernel(SKEWED).unwrap(),
    ] {
        let k = &alg.kernel;
        let (q, w) = (alg.nest.num_deps(), alg.width());
        let count = 61;
        let reads: Vec<f64> = (0..q * count * w).map(|i| 0.25 + i as f64 * 1e-3).collect();
        let mut out = vec![0.0; count * w];
        let mut j = [2i64, 5, 9];
        // Warm-up grows the thread's tape scratch and lane blocks once.
        k.compute(&j, &reads[..q * w], &mut out[..w]);
        k.compute_run(&j, &[0, 1, 2], count, &reads, &mut out);
        k.initial_run(&j, &[0, 1, 2], count, &mut out);
        let n = allocations(|| {
            for s in 0..1000i64 {
                j[1] = s;
                k.compute(&j, &reads[..q * w], &mut out[..w]);
                k.initial(&j, &mut out[..w]);
                k.compute_run(&j, &[0, 1, 2], count, &reads, &mut out);
                // A long run through the lane blocks, a short one per point.
                k.initial_run(&j, &[0, 1, 2], count, &mut out);
                k.initial_run(&j, &[0, 0, 1], 3, &mut out[..3 * w]);
            }
        });
        assert_eq!(
            n, 0,
            "{}: skewed compute/initial/compute_run/initial_run allocated",
            alg.name
        );
    }
}

/// Every dependence crosses a time step, so the scan batches whole rows
/// through `compute_run`, and the body's `bnd()` maps each run.
const BATCHED: &str = "\
kernel jb
param T = 4
param N = 6
iter t = 1 to T
iter i = 1 to N
iter j = 1 to N
skew = [1,0,0; 1,1,0; 1,0,1]
array A = bnd()
A[t,i,j] = 0.25*(A[t-1,i-1,j] + A[t-1,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) + 0.01*bnd()
";

#[test]
fn scan_allocates_only_its_set_up() {
    let sized =
        |src: &str, t: i64, n: i64| compile_kernel_with(src, &[("T", t), ("N", n)]).unwrap();
    for (small, large) in [
        (sized(SKEWED, 4, 6), sized(SKEWED, 8, 12)),
        (sized(BATCHED, 4, 6), sized(BATCHED, 8, 12)),
        (
            compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 6)]).unwrap(),
            compile_kernel_with(corpus::SOR, &[("M", 8), ("N", 12)]).unwrap(),
        ),
        (sized(corpus::JACOBI, 4, 6), sized(corpus::JACOBI, 8, 12)),
    ] {
        // Warm the kernel scratch at the largest batch either scan uses.
        let _ = large.execute_scan();
        let a = allocations(|| drop(small.execute_scan()));
        let b = allocations(|| drop(large.execute_scan()));
        assert_eq!(a, b, "{}: scan allocations grow with the nest", small.name);
    }
}
