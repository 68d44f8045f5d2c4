//! Lane groups end to end: nests whose innermost dependence has lag 1 run
//! their rows in wavefront lane groups, in the sequential scan
//! (`Algorithm::execute_scan`) and in the compiled chain. On random such
//! nests both must equal the per-point `execute_sequential` bitwise:
//! dependences like `(0,1,−2)` that need a wavefront shift `δ > 1`,
//! two-array (width-2) kernels, bodies that read `i`, `mod()` and `bnd()`,
//! skewed nests, cut spaces whose rows start and end raggedly, and the
//! overlapped scheme's boundary/interior split.

use std::sync::Arc;
use tilecc_cluster::{CommScheme, Counter, EngineOptions, MachineModel, MetricsRegistry};
use tilecc_frontend::compile_kernel;
use tilecc_linalg::RMat;
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_tiling::TilingTransform;

/// A small deterministic generator (64-bit LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Dependences a tiling with rows `(1,0,0)`, `(0,1,0)` and `(0,2,1)`
/// respects; `(0,0,1)` (lag 1) is in every case.
const POOL: [[i64; 3]; 7] = [
    [0, 1, 0],
    [0, 1, -2],
    [0, 1, -1],
    [1, 0, 0],
    [1, 1, -2],
    [1, 0, 1],
    [0, 1, 1],
];

/// The read of `array` at `j − d` in the DSL.
fn read(array: &str, d: &[i64; 3]) -> String {
    let at = |v: &str, k: i64| match k {
        0 => v.to_string(),
        k if k > 0 => format!("{v}-{k}"),
        k => format!("{v}+{}", -k),
    };
    format!(
        "{array}[{},{},{}]",
        at("t", d[0]),
        at("i", d[1]),
        at("j", d[2])
    )
}

/// One random lag-1 kernel: its source and whether it is skewed.
fn kernel(rng: &mut Lcg) -> (String, bool) {
    let skewed = rng.below(3) == 0;
    let two = rng.below(2) == 0;
    let cut = rng.below(2) == 0;
    let mut deps = vec![[0, 0, 1]];
    for d in POOL {
        if rng.below(3) == 0 {
            deps.push(d);
        }
    }
    // Under the skew the pool's negative entries would leave the tiling
    // invalid; keep the dependences with none.
    if skewed {
        deps.retain(|d| d.iter().all(|&x| x >= 0));
    }
    let (m, n) = (3 + rng.below(3), 7 + rng.below(6));
    let j_iter = if cut {
        "iter j = max(1, i - 3) to min(N, i + t + 2)"
    } else {
        "iter j = 1 to N"
    };
    // Each statement may add a term that reads the point's coordinates.
    let extra = ["", " + 0.01*i", " + mod(2*t + j, 5)*0.01", " + 0.1*bnd()"];
    let picks = [rng.below(4) as usize, rng.below(4) as usize];
    let body = |array: &str, shift: usize| {
        let terms: Vec<String> = deps
            .iter()
            .enumerate()
            .map(|(k, d)| {
                format!(
                    "{:.3}*{}",
                    0.11 + 0.07 * ((k + shift) % 5) as f64,
                    read(array, d)
                )
            })
            .collect();
        format!("{}{}", terms.join(" + "), extra[picks[shift % 2]])
    };
    let mut src = format!(
        "kernel lanes\nparam M = {m}\nparam N = {n}\niter t = 1 to M\niter i = 1 to N\n{j_iter}\n"
    );
    if skewed {
        src += "skew = [1,0,0; 1,1,0; 2,0,1]\n";
    }
    src += "array A = bnd()\n";
    if two {
        src += "array B = 0.25*i - 0.5*t + bnd()\n";
        src += &format!(
            "A[t,i,j] = {} - 0.05*{}\n",
            body("A", 0),
            read("B", &[0, 0, 1])
        );
        src += &format!("B[t,i,j] = {} + 0.02*A[t,i,j-1]\n", body("B", 2));
    } else {
        src += &format!("A[t,i,j] = {}\n", body("A", 1));
    }
    (src, skewed)
}

/// A tiling every kernel of [`kernel`] respects: rectangular when skewed,
/// else sheared along `(0,2,1)` so that `(0,1,−2)` keeps `H·d ≥ 0`.
fn tiling(rng: &mut Lcg, skewed: bool) -> TilingTransform {
    let (a, b, c) = (
        2 + rng.below(2) as i64,
        2 + rng.below(3) as i64,
        3 + rng.below(4) as i64,
    );
    if skewed {
        return TilingTransform::rectangular(&[a, b, c]).unwrap();
    }
    let h = RMat::from_fractions(&[
        &[(1, a), (0, 1), (0, 1)],
        &[(0, 1), (1, b), (0, 1)],
        &[(0, 1), (2, c), (1, c)],
    ]);
    TilingTransform::new(h).unwrap()
}

#[test]
fn lane_groups_match_the_sequential_execution_bitwise() {
    let mut rng = Lcg(0x5eed_1a9e);
    let (mut scanned, mut batched) = (0, 0);
    for case in 0..24 {
        let (src, skewed) = kernel(&mut rng);
        let alg = compile_kernel(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        let seq = alg.execute_sequential();
        assert_eq!(
            alg.execute_scan().diff(&seq),
            None,
            "case {case}: scan\n{src}"
        );
        scanned += 1;
        let m = rng.below(3) as usize;
        let plan = ParallelPlan::new(alg, tiling(&mut rng, skewed), Some(m))
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        let plan = Arc::new(plan);
        for scheme in [CommScheme::Blocking, CommScheme::Overlapped] {
            let reg = MetricsRegistry::new();
            let result = execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::Full,
                ExecStrategy::Compiled,
                Backend::Threaded,
                EngineOptions {
                    scheme,
                    obs: Some(reg.clone()),
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            let data = result.data.unwrap();
            assert_eq!(data.diff(&seq), None, "case {case}: {scheme:?}\n{src}");
            let report = reg.run_report(&result.report.local_times);
            batched += report.total(Counter::VectorizedPoints);
        }
    }
    assert_eq!(scanned, 24);
    assert!(batched > 0, "no lane group batched a point");
}

/// `(0,1,−2)` reads the row above two positions ahead, so a lane may run
/// only three positions behind the lane above it (`δ = 3`): a scan with
/// too small a shift would read the row above before it is written.
#[test]
fn a_backward_row_dependence_shifts_the_wavefront() {
    let src = "\
kernel shifted
param M = 4
param N = 20
iter t = 1 to M
iter i = 1 to N
iter j = 1 to N
array A = bnd()
A[t,i,j] = 0.4*A[t,i,j-1] + 0.3*A[t,i-1,j+2] + 0.2*A[t-1,i,j] + 0.01*i
";
    let alg = compile_kernel(src).unwrap();
    assert_eq!(alg.execute_scan().diff(&alg.execute_sequential()), None);
}
