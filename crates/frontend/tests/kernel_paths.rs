//! The fast kernel paths against their oracles, bitwise:
//!
//! - the run-based sequential scan (`Algorithm::execute_scan`) against the
//!   per-point `execute_sequential`, on every shipped `.tk` file and on the
//!   paper kernels at other sizes, skewed and unskewed;
//! - a skewed `.tk` kernel's batched `compute_run` against its per-point
//!   `compute`, far from the iteration space, where the kernel maps
//!   negative and large coordinates through `T⁻¹`;
//! - the register-form tape (per point and lane-blocked, `compute_run` and
//!   `initial_run`) against the tree-walking `TkExpr::eval`, on every
//!   shipped `.tk` file, unskewed and, where it declares a skew, skewed:
//!   evaluated at `T⁻¹j`; and on probes whose outputs are a bare read or a
//!   constant, whose statements are `bnd()`/`mod()`, whose boundaries read
//!   coordinates, `mod()` and `bnd()` under a skew, and whose tape outgrows
//!   the stack slots;
//! - the paper kernels' sequential data against the frozen fingerprints of
//!   the hand-coded Rust kernels they replaced.

use std::path::Path;
use tilecc_frontend::tk::{lower_kernel, parse_kernel};
use tilecc_frontend::{compile_kernel, compile_kernel_with, corpus, KernelProgram};
use tilecc_linalg::IMat;
use tilecc_loopnest::Kernel;

mod common;

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

/// Skewed kernels whose tapes read coordinates through one op kind each,
/// without `bnd()`: a body reading only `mod` over an init reading only a
/// coordinate, and the other way round. Each tape must be mapped through
/// `T⁻¹` on its own account.
const SKEWED_MOD_BODY: &str = "\
kernel modbody
iter t = 1 to 4
iter i = 1 to 9
skew = [1,0; 2,1]
array A = 0.25*i - t
A[t,i] = 0.5*A[t-1,i] + 0.25*A[t-1,i+1] + mod(3*t + 5*i, 7)*0.01
";
const SKEWED_COORD_BODY: &str = "\
kernel coordbody
iter t = 1 to 4
iter i = 1 to 9
skew = [1,0; 1,1]
array A = mod(2*t + i, 5)
A[t,i] = 0.5*A[t-1,i] + 0.25*A[t-1,i-1] + 0.001*i*t
";

/// A two-array kernel whose outputs need no instruction at all: `A`
/// copies a bare read and `B` is a constant the lowering folds.
const BARE_OUTPUTS: &str = "\
kernel bare
iter t = 1 to 4
iter i = 1 to 6
array A = 2.5
array B = -0.75
A[t,i] = A[t-1,i]
B[t,i] = 3*2 + 0.5/4
";
/// A skewed two-array kernel whose statements are `bnd()` alone and a
/// `mod()` plus a read, over boundaries of the same forms.
const MOD_BND_BODY: &str = "\
kernel modbnd
iter t = 1 to 4
iter i = 1 to 6
skew = [1,0; 1,1]
array A = bnd()
array B = mod(t + 2*i, 3)
A[t,i] = bnd()
B[t,i] = mod(5*t - i, 7) + A[t-1,i]
";

/// A kernel whose body takes 122 instructions, more than a scalar
/// evaluation keeps on the stack: 20 terms `c·A[t−1,i]·t·i`, five
/// instructions each (two coordinates, three products), joined by 19 adds
/// and scaled by a two-instruction `let`.
fn long_tape() -> String {
    let terms: Vec<String> = (1..=20).map(|c| format!("0.0{c}*A[t-1,i]*t*i")).collect();
    format!(
        "kernel longtape\niter t = 1 to 4\niter i = 1 to 6\narray A = bnd()\n\
         let s = 0.5 + 0.25*A[t-1,i]\nA[t,i] = s*({})\n",
        terms.join(" + ")
    )
}

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

#[test]
fn corpus_kernels_reproduce_the_frozen_hand_coded_hashes() {
    for f in &corpus::FROZEN {
        let ds = compile_kernel_with(f.source, f.overrides)
            .unwrap()
            .execute_sequential();
        assert_eq!(ds.num_written(), f.written, "{} {:?}", f.name, f.overrides);
        assert_eq!(
            ds.bit_hash(),
            f.hash,
            "{} {:?}: data differs from the hand-coded kernel",
            f.name,
            f.overrides
        );
    }
}

/// Jacobi over `t × i × j` with an optional skew line: unequal `i` and `j`
/// extents, which the corpus file (one `N`) cannot express.
fn jacobi(t: i64, i: i64, j: i64, skew: &str) -> String {
    format!(
        "kernel jacobi\niter t = 1 to {t}\niter i = 1 to {i}\niter j = 1 to {j}\n{skew}\n\
         array A = bnd()\n\
         A[t,i,j] = 0.25*(A[t-1,i-1,j] + A[t-1,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1])\n"
    )
}

#[test]
fn scan_matches_oracle_on_the_paper_kernels() {
    let mut unskewed_sor = parse_kernel(corpus::SOR).unwrap();
    unskewed_sor.skew = None;
    let heat1d = "\
kernel heat1d
iter t = 1 to 5
iter i = 1 to 11
skew = [1,0; 1,1]
array A = bnd()
A[t,i] = A[t-1,i] + 0.3*(A[t-1,i-1] - 2*A[t-1,i] + A[t-1,i+1])
";
    let wave4d = "\
kernel wave4d
iter t = 1 to 3
iter x = 1 to 4
iter y = 1 to 4
iter z = 1 to 4
array A = bnd()
A[t,x,y,z] = 0.4*A[t-1,x,y,z] + 0.2*(A[t-1,x-1,y,z] + A[t-1,x,y-1,z] + A[t-1,x,y,z-1])
";
    for alg in [
        lower_kernel(&unskewed_sor),
        compile_kernel_with(corpus::SOR, &[("M", 4), ("N", 7)]).unwrap(),
        compile_kernel(&jacobi(3, 6, 9, "")).unwrap(),
        compile_kernel(&jacobi(3, 6, 9, "skew = [1,0,0; 1,1,0; 1,0,1]")).unwrap(),
        compile_kernel_with(corpus::ADI, &[("T", 3), ("N", 6)]).unwrap(),
        compile_kernel_with(corpus::ADI_PAPER, &[("T", 3), ("N", 6)]).unwrap(),
        compile_kernel(heat1d).unwrap(),
        compile_kernel(wave4d).unwrap(),
    ] {
        let oracle = alg.execute_sequential();
        let scan = alg.execute_scan();
        assert_eq!(scan.diff(&oracle), None, "{}: scan differs", alg.name);
        assert_eq!(scan.num_written(), oracle.num_written());
    }
}

/// The tree-walking evaluation of one point: `let`s in order, then every
/// statement (`init == false`) or every array's initial expression.
fn tree_walk(p: &KernelProgram, j: &[i64], reads: &[f64], init: bool) -> Vec<f64> {
    let w = p.width();
    if init {
        return p
            .arrays
            .iter()
            .map(|a| a.init.eval(j, &[], &[], w))
            .collect();
    }
    let mut lets = Vec::new();
    for (_, e) in &p.lets {
        let v = e.eval(j, reads, &lets, w);
        lets.push(v);
    }
    let mut out = vec![0.0; w];
    for s in &p.stmts {
        out[s.array] = s.rhs.eval(j, reads, &lets, w);
    }
    out
}

#[test]
fn tape_equals_tree_walking_eval_on_every_shipped_kernel() {
    let files = corpus();
    assert_eq!(files.len(), 15, "the probe + 10 kernels + 4 nests");
    let mut skewed = 0;
    let probes = [
        SKEWED_MOD_BODY,
        SKEWED_COORD_BODY,
        BARE_OUTPUTS,
        MOD_BND_BODY,
    ]
    .map(|s| ("probe".to_string(), s.to_string()))
    .into_iter()
    .chain([
        ("probe".to_string(), long_tape()),
        ("probe".to_string(), common::SKEWED.to_string()),
    ]);
    for (name, src) in files.into_iter().chain(probes) {
        let program = parse_kernel(&src).unwrap();
        let mut plain = program.clone();
        plain.skew = None;
        // Unskewed, the kernel sees the coordinates `eval` sees. Skewed, it
        // must evaluate at the original coordinates `T⁻¹j` of its nest
        // point `j`, where `eval` is handed them.
        let t_inv = program.skew.as_ref().map(|rows| {
            let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
            IMat::from_rows(&rows).inverse().to_imat()
        });
        skewed += usize::from(t_inv.is_some());
        let variants = [
            Some((&plain, None)),
            t_inv.as_ref().map(|t| (&program, Some(t))),
        ];
        for (p, t_inv) in variants.into_iter().flatten() {
            let orig = |j: &[i64]| t_inv.map_or_else(|| j.to_vec(), |t| t.mul_vec(j));
            let alg = lower_kernel(p);
            let (n, q, w) = (alg.nest.dim(), alg.nest.num_deps(), alg.width());
            let k = &alg.kernel;
            let count = 19;
            let reads: Vec<f64> = (0..q * w * count)
                .map(|i| (i % 29) as f64 * 0.41 - 3.5)
                .collect();
            let dj: Vec<i64> = (0..n).map(|k| 1 - k as i64).collect();
            for j0 in probe_points(n) {
                let mut batch = vec![0.0; count * w];
                k.compute_run(&j0, &dj, count, &reads, &mut batch);
                for p in 0..count {
                    let j: Vec<i64> = j0.iter().zip(&dj).map(|(a, d)| a + p as i64 * d).collect();
                    let rd: Vec<f64> = (0..q)
                        .flat_map(|i| {
                            let at = (i * count + p) * w;
                            reads[at..at + w].to_vec()
                        })
                        .collect();
                    let want = tree_walk(&plain, &orig(&j), &rd, false);
                    let mut one = vec![0.0; w];
                    k.compute(&j, &rd, &mut one);
                    assert_eq!(bits(&one), bits(&want), "{name}: compute at {j:?}");
                    assert_eq!(
                        bits(&batch[p * w..(p + 1) * w]),
                        bits(&want),
                        "{name}: point {p} of the run at {j0:?}"
                    );
                    k.initial(&j, &mut one);
                    assert_eq!(
                        bits(&one),
                        bits(&tree_walk(&plain, &orig(&j), &[], true)),
                        "{name}: initial at {j:?}"
                    );
                }
                let want = |j: &[i64]| tree_walk(&plain, &orig(j), &[], true);
                check_initial_run(&name, k.as_ref(), &j0, &want);
            }
        }
    }
    assert_eq!(
        skewed, 15,
        "the five skewed probes + the ten skewed corpus files"
    );
}

/// `initial_run` from `j0` against per-point `initial` and the tree-walking
/// boundary at the original coordinates `orig(j)`, bitwise: every run
/// length 1–17 and 61, so runs below the batch minimum, ragged lane blocks
/// and several whole ones, under a unit, a mixed-sign and a steep step.
fn check_initial_run(name: &str, k: &dyn Kernel, j0: &[i64], want: &dyn Fn(&[i64]) -> Vec<f64>) {
    let (n, w) = (j0.len(), k.width());
    let unit: Vec<i64> = (0..n).map(|k| i64::from(k == n - 1)).collect();
    let mixed: Vec<i64> = (0..n).map(|k| 1 - k as i64).collect();
    let steep: Vec<i64> = (0..n).map(|k| k as i64 * 2 - 1).collect();
    let mut one = vec![0.0; w];
    for dj in [&unit, &mixed, &steep] {
        for count in (1..=17).chain([61]) {
            let mut run = vec![f64::NAN; count * w];
            k.initial_run(j0, dj, count, &mut run);
            for p in 0..count {
                let j: Vec<i64> = j0.iter().zip(dj).map(|(a, d)| a + p as i64 * d).collect();
                k.initial(&j, &mut one);
                let got = bits(&run[p * w..(p + 1) * w]);
                let at = format!("{name}: point {p} of {count} from {j0:?} step {dj:?}");
                assert_eq!(got, bits(&one), "{at}: initial_run vs initial");
                assert_eq!(got, bits(&want(&j)), "{at}: initial_run vs tree walk");
            }
        }
    }
}
