//! A timing-only run never touches rank data, so it must not allocate the
//! ranks' Local Data Spaces. A counting global allocator (std only) sums
//! the bytes every thread allocates during one timing-only `execute` of a
//! one-rank plan whose LDS window holds 82,416 values, and the sum must
//! stay below the size of that window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tilecc_cluster::{EngineOptions, MachineModel};
use tilecc_frontend::compile_kernel;
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_tiling::TilingTransform;

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a plain atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn timing_only_execute_does_not_allocate_the_lds() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/nests/sor.tk");
    let alg = compile_kernel(&std::fs::read_to_string(path).unwrap()).unwrap();
    let rect = TilingTransform::rectangular(&[4, 100, 100]).unwrap();
    let plan = Arc::new(ParallelPlan::new(alg, rect, Some(0)).unwrap());
    assert_eq!(plan.num_procs(), 1);
    let lds_bytes = plan.lds().values().len() as u64 * 8;
    assert_eq!(lds_bytes, 82_416 * 8);

    let before = BYTES.load(Ordering::Relaxed);
    let res = execute(
        plan,
        MachineModel::fast_ethernet_p3(),
        ExecMode::TimingOnly,
        ExecStrategy::Compiled,
        Backend::Threaded,
        EngineOptions::default(),
    )
    .unwrap();
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(res.total_iterations, 20 * 40 * 40);
    assert!(
        allocated < lds_bytes,
        "a timing-only run allocated {allocated} bytes, its LDS needs {lds_bytes}"
    );
}
