//! The fast kernel paths against their oracles, bitwise:
//!
//! - the run-based sequential scan (`Algorithm::execute_scan`) against the
//!   per-point `execute_sequential`, on every shipped `.tk` file;
//! - a skewed `.tk` kernel's batched `compute_run` against its per-point
//!   `compute`, far from the iteration space, where the skew adapter maps
//!   negative and large coordinates.

use std::path::Path;
use tilecc_frontend::tk::{lower_kernel, parse_kernel};

/// A skewed two-array kernel whose body and boundaries use every
/// coordinate-dependent form: coordinates, `mod`, `bnd()`, a `let`, and a
/// skew with a negative entry over triangular bounds.
const PROBE: &str = "\
kernel probe
param T = 5
param N = 7
iter t = 1 to T
iter i = max(1, t - 2) to min(N, t + 3)
iter j = 1 to N
skew = [1,0,0; 1,1,0; -1,0,1]
array A = 0.5*i - t + bnd()
array B = mod(3*t - 2*j + 1, 5)
let c = 0.1 + mod(13*i + 7*j - t, 17)*0.01
A[t,i,j] = A[t-1,i,j]*c + bnd()*j + B[t-1,i,j-1]
B[t,i,j] = B[t-1,i+1,j] - t*0.5 + A[t,i-1,j]/(1 + c)
";

fn corpus() -> Vec<(String, String)> {
    let mut files = vec![("probe".to_string(), PROBE.to_string())];
    for dir in ["kernels", "nests"] {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples")
            .join(dir);
        let mut paths: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "tk"))
            .collect();
        paths.sort();
        for p in paths {
            let name = format!("{dir}/{}", p.file_name().unwrap().to_str().unwrap());
            files.push((name, std::fs::read_to_string(&p).unwrap()));
        }
    }
    files
}

#[test]
fn scan_equals_oracle_on_every_shipped_kernel() {
    let files = corpus();
    assert_eq!(files.len(), 15, "the probe + 10 kernels + 4 nests");
    for (name, src) in files {
        let alg = lower_kernel(&parse_kernel(&src).unwrap());
        let oracle = alg.execute_sequential();
        let scan = alg.execute_scan();
        assert_eq!(scan.diff(&oracle), None, "{name}: scan differs from oracle");
        assert_eq!(scan.num_written(), oracle.num_written(), "{name}");
        assert_eq!(
            scan.checksum().to_bits(),
            oracle.checksum().to_bits(),
            "{name}"
        );
    }
}

/// Nest points far outside the space: negative, and large enough that any
/// wrong step through `T⁻¹` shows, yet every product fits `i64`.
fn probe_points(n: usize) -> Vec<Vec<i64>> {
    let base: [i64; 6] = [-7, 1 << 30, -(1 << 29) + 3, 0, 123_456_789, -987_654];
    (0..base.len())
        .map(|s| {
            (0..n)
                .map(|k| base[(s + 2 * k) % base.len()] - k as i64)
                .collect()
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn skewed_compute_run_equals_per_point_compute() {
    let mut skewed = 0;
    for (name, src) in corpus() {
        let program = parse_kernel(&src).unwrap();
        if program.skew.is_none() {
            continue;
        }
        skewed += 1;
        let alg = lower_kernel(&program);
        let (n, q, w) = (alg.nest.dim(), alg.nest.num_deps(), alg.width());
        let k = &alg.kernel;
        let reads: Vec<f64> = (0..q * w * 40)
            .map(|i| (i % 23) as f64 * 0.37 - 2.5)
            .collect();
        let unit: Vec<i64> = (0..n).map(|k| i64::from(k == n - 1)).collect();
        let steep: Vec<i64> = (0..n).map(|k| k as i64 * 2 - 1).collect();
        for j0 in probe_points(n) {
            for (dj, count) in [(&unit, 1usize), (&unit, 9), (&steep, 40)] {
                let mut batch = vec![0.0; count * w];
                k.compute_run(&j0, dj, count, &reads[..q * w * count], &mut batch);
                for p in 0..count {
                    let j: Vec<i64> = j0.iter().zip(dj).map(|(a, d)| a + p as i64 * d).collect();
                    // Point p's reads, gathered from the dep-major batch layout.
                    let rd: Vec<f64> = (0..q)
                        .flat_map(|i| {
                            let at = (i * count + p) * w;
                            reads[at..at + w].to_vec()
                        })
                        .collect();
                    let mut one = vec![0.0; w];
                    k.compute(&j, &rd, &mut one);
                    assert_eq!(
                        bits(&batch[p * w..(p + 1) * w]),
                        bits(&one),
                        "{name}: point {p} of the run at {j0:?} step {dj:?}"
                    );
                }
            }
        }
    }
    assert_eq!(skewed, 11, "the probe + the ten skewed corpus files");
}
