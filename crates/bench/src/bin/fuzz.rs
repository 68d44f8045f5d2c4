//! Randomized end-to-end fuzzer: generates random convex spaces, uniform
//! dependence sets and (rectangular or tiling-cone) tilings, and checks the
//! full parallel pipeline bitwise against sequential execution. Every case
//! also runs all three execution strategies — the compiled flat-index path,
//! the per-point reference path, and the overlapped boundary/interior
//! path — which must agree bitwise with identical message traffic; the
//! overlapped makespan must never exceed the blocking compiled one.
//!
//! Usage: `fuzz [seed] [cases] [--faults] [--tcp] [--recovery] [--tune] [--dsl]`.
//! With `--tune`, the tiling of each case is drawn from the auto-tuner's
//! candidate enumeration (`tilecc::enumerate_candidates`) instead of the
//! rectangular/cone-greedy generators — every H the tuner could ever rank
//! flows through the same three-way bitwise cross-check. With
//! `--faults`, every case is additionally executed under a seeded
//! lossy/duplicating/reordering `FaultPlan`; the reliability layer must
//! reproduce the fault-free result bitwise, with retransmissions visible
//! in the stats. With `--tcp`, every case with ≤ 8 processors is
//! re-executed over the TCP backend (real sockets, TCMP framing) — clean
//! and under a seeded chaos plan — and must match the threaded backend
//! bitwise: same data, same per-rank virtual clocks, same counters. With
//! `--recovery`, every case crashes its busiest rank mid-run under a
//! checkpoint/recovery policy on both backends: the recovered run must
//! reproduce the fault-free data bitwise, and every rank's clock must be
//! the fault-free clock plus exactly its recovery debt. With `--dsl`, the
//! random-space generator is replaced by the `examples/kernels/*.tk`
//! corpus: every case compiles one kernel-DSL program through the
//! frontend, draws a random rectangular tiling and mapping dimension, and
//! runs the same three-way strategy cross-check; the sequential data of the
//! four paper workloads (`sor`, `jacobi`, `adi`, `adi_paper`) must
//! additionally hash to the frozen fingerprints of the hand-coded Rust
//! kernels they replaced (`tilecc_frontend::corpus::FROZEN`), at the file
//! sizes and at the sizes `perf` benches them at.
//!
//! In every mode, each case's sequential oracle (`execute_sequential`) is
//! also compared bitwise against the run-based scan (`execute_scan`) that
//! `verify` uses, and the plan's closed forms are checked against walks:
//! its tile set against a lattice walk of every shadow candidate, and its
//! `D^S` against `⌊(j' + d')/v⌋` over every TTIS point. In the default and
//! `--dsl` modes, each case also runs the compiled and overlapped
//! strategies in `TimingOnly` mode, which must equal their `Full` runs on
//! makespan bits, per-rank clocks, iterations, messages and bytes.
//!
//! Every failure path prints the RNG seed so regressions reproduce with
//! `fuzz <seed>`. Found two real bugs during development (Fourier–Motzkin
//! blowup on dense skewed systems; non-monotone minimum-successor message
//! pairing — see DESIGN.md).

use std::collections::BTreeSet;
use std::sync::Arc;
use tilecc_cluster::obs::RunReport as ObsReport;
use tilecc_cluster::{
    Counter, EngineOptions, FaultPlan, MachineModel, MetricsRegistry, RecoveryOptions,
    StatsSnapshot,
};
use tilecc_frontend::{compile_kernel_with, corpus};
use tilecc_linalg::{IMat, RMat, Rational};
use tilecc_loopnest::{Algorithm, DataSpace, Kernel, LoopNest};
use tilecc_parcode::{
    execute, execute_tiled_sequential, Backend, ExecMode, ExecStrategy, ExecutionResult,
    ParallelPlan,
};
use tilecc_polytope::{Constraint, Polyhedron};
use tilecc_tiling::{tiling_cone_rays, TilingTransform};

struct G(u64);
impl G {
    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }
}

struct K;
impl Kernel for K {
    fn width(&self) -> usize {
        1
    }
    fn compute(&self, j: &[i64], reads: &[f64], out: &mut [f64]) {
        let mut acc = 0.125 * (j[0] % 5) as f64;
        for (i, r) in reads.iter().enumerate() {
            acc += (0.2 + 0.1 * i as f64) * r;
        }
        out[0] = acc;
    }
    fn initial(&self, j: &[i64], out: &mut [f64]) {
        out[0] = ((j.iter().sum::<i64>()).rem_euclid(97)) as f64 / 97.0;
    }
}

/// Report a failure with the reproduction seed and exit.
fn fail(seed: u64, case: u64, what: &str) -> ! {
    eprintln!("FAILURE in case {case}: {what}");
    eprintln!("reproduce with: fuzz {seed}");
    std::process::exit(3);
}

/// The run-based sequential scan (what `verify` runs) must equal the
/// per-point oracle `seq` bitwise.
fn check_scan(alg: &Algorithm, seq: &DataSpace, seed: u64, case: u64) {
    if let Some(bad) = alg.execute_scan().diff(seq) {
        eprintln!("  SCAN MISMATCH at {bad:?}");
        fail(
            seed,
            case,
            "sequential scan differs from execute_sequential",
        );
    }
}

/// The plan's tile set and tile dependences must equal the walks they
/// replaced: every shadow candidate with an in-space TTIS point, and every
/// non-zero `⌊(j' + d')/v⌋` over the TTIS points `j'`.
fn check_plan_against_walks(plan: &ParallelPlan, seed: u64, case: u64) {
    let tiled = &plan.tiled;
    let t = tiled.transform();
    let (n, v) = (tiled.dim(), t.v());
    let zero = vec![0i64; n];
    let walked: Vec<Vec<i64>> = (tiled.tile_bounds().points())
        .filter(|tile| {
            (t.lattice().points_in_box(&zero, v))
                .any(|jp| tiled.space().contains(&t.iteration_fast(tile, &jp)))
        })
        .collect();
    if tiled.tiles().ne(walked) {
        fail(seed, case, "tile set differs from the lattice walk");
    }
    let dp = t.transformed_deps(plan.algorithm.nest.deps());
    let mut walked = BTreeSet::new();
    for q in 0..dp.cols() {
        for jp in t.ttis_points() {
            let ds: Vec<i64> = (0..n)
                .map(|k| (jp[k] + dp[(k, q)]).div_euclid(v[k]))
                .collect();
            if ds.iter().any(|&x| x != 0) {
                walked.insert(ds);
            }
        }
    }
    let planned: BTreeSet<Vec<i64>> = plan.comm.tile_deps.iter().cloned().collect();
    if planned.len() != plan.comm.tile_deps.len() || planned != walked {
        eprintln!("  D^S {:?}, walk {walked:?}", plan.comm.tile_deps);
        fail(seed, case, "tile dependences differ from the TTIS walk");
    }
}

/// The shipped kernel-DSL corpus, embedded at compile time so the fuzzer
/// breaks the build if a corpus file goes missing or stops parsing.
const DSL_CORPUS: &[(&str, &str)] = &[
    ("sor", corpus::SOR),
    ("jacobi", corpus::JACOBI),
    ("adi", corpus::ADI),
    ("adi_paper", corpus::ADI_PAPER),
    (
        "heat3d",
        include_str!("../../../../examples/kernels/heat3d.tk"),
    ),
    (
        "lu_sweep",
        include_str!("../../../../examples/kernels/lu_sweep.tk"),
    ),
    (
        "gs_redblack",
        include_str!("../../../../examples/kernels/gs_redblack.tk"),
    ),
    (
        "jacobi9",
        include_str!("../../../../examples/kernels/jacobi9.tk"),
    ),
    (
        "coupled",
        include_str!("../../../../examples/kernels/coupled.tk"),
    ),
    (
        "wavefront",
        include_str!("../../../../examples/kernels/wavefront_skew.tk"),
    ),
];

/// The frozen fingerprint of a paper workload at the sizes its `.tk`
/// file declares, or `None` for the corpus kernels without one.
/// Run `plan` on the threaded backend with a fresh metrics registry;
/// an engine error fails the case.
fn run_observed(
    plan: &Arc<ParallelPlan>,
    mode: ExecMode,
    strategy: ExecStrategy,
    seed: u64,
    case: u64,
) -> (ExecutionResult, Arc<MetricsRegistry>) {
    let reg = MetricsRegistry::new();
    let options = EngineOptions {
        obs: Some(reg.clone()),
        ..EngineOptions::default()
    };
    let model = MachineModel::fast_ethernet_p3();
    match execute(
        plan.clone(),
        model,
        mode,
        strategy,
        Backend::Threaded,
        options,
    ) {
        Ok(r) => (r, reg),
        Err(e) => {
            eprintln!("  {mode:?} {strategy:?} run failed: {e}");
            fail(seed, case, "strategy run failed");
        }
    }
}

/// The timing-only leg: a `TimingOnly` run of each strategy must equal its
/// `Full` run on makespan bits, per-rank clocks and the logical counters,
/// since virtual time depends only on iteration counts and message sizes.
fn check_timing_only(
    plan: &Arc<ParallelPlan>,
    full: [(ExecStrategy, &ExecutionResult, &ObsReport); 2],
    seed: u64,
    case: u64,
) {
    for (strategy, res, rep) in full {
        let (timing, reg) = run_observed(plan, ExecMode::TimingOnly, strategy, seed, case);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if timing.makespan().to_bits() != res.makespan().to_bits()
            || bits(&timing.report.local_times) != bits(&res.report.local_times)
        {
            eprintln!("  {strategy:?}: timing-only clocks differ from the full run");
            fail(seed, case, "timing-only/full clock mismatch");
        }
        let rep_t = reg.run_report(&timing.report.local_times);
        for c in [
            Counter::Iterations,
            Counter::MessagesSent,
            Counter::BytesSent,
        ] {
            if rep_t.total(c) != rep.total(c) {
                eprintln!(
                    "  {strategy:?} counter {}: full {} timing-only {}",
                    c.name(),
                    rep.total(c),
                    rep_t.total(c)
                );
                fail(seed, case, "timing-only/full counter mismatch");
            }
        }
    }
}

fn frozen_hash(name: &str) -> Option<u64> {
    corpus::FROZEN
        .iter()
        .find(|f| f.name == name && f.overrides.is_empty())
        .map(|f| f.hash)
}

/// `--dsl`: fuzz the kernel-DSL corpus instead of random spaces. Each case
/// compiles one `.tk` program, draws a random rectangular tiling and
/// mapping dimension, and cross-checks all three execution strategies
/// bitwise against sequential execution. The sequential data of the paper
/// workloads must also match the frozen fingerprints of the hand-coded
/// kernels they replaced ([`corpus::FROZEN`]), checked first at every
/// recorded size and then on each case.
fn dsl_mode(seed: u64, cases: u64) -> ! {
    let mut g = G(seed | 1);
    for f in &corpus::FROZEN {
        let ds = match compile_kernel_with(f.source, f.overrides) {
            Ok(alg) => alg.execute_sequential(),
            Err(e) => {
                eprintln!("  corpus kernel `{}` failed to compile: {e}", f.name);
                fail(seed, 0, "corpus kernel did not compile");
            }
        };
        if ds.bit_hash() != f.hash || ds.num_written() != f.written {
            eprintln!(
                "  `{}` with {:?} lost its frozen fingerprint",
                f.name, f.overrides
            );
            fail(
                seed,
                0,
                "paper kernel differs from its frozen hand-coded hash",
            );
        }
    }
    let mut per_kernel = vec![0u64; DSL_CORPUS.len()];
    let mut frozen_cases = 0u64;
    let mut vectorized_points = 0u64;
    for case in 0..cases {
        let ki = (case % DSL_CORPUS.len() as u64) as usize;
        let (name, src) = DSL_CORPUS[ki];
        let alg = match tilecc_frontend::compile_kernel(src) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("  corpus kernel `{name}` failed to compile: {e}");
                fail(seed, case, "corpus kernel did not compile");
            }
        };
        let n = alg.nest.dim();
        let edges: Vec<i64> = (0..n).map(|_| g.range(2, 4)).collect();
        let m = g.range(0, n as i64 - 1) as usize;
        eprintln!("case {case}: kernel={name} dim={n} edges={edges:?} m={m}");
        let h = RMat::from_fn(n, n, |i, j| {
            if i == j {
                Rational::new(1, edges[i] as i128)
            } else {
                Rational::ZERO
            }
        });
        let t = match TilingTransform::new(h) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("  rectangular tiling rejected: {e}");
                fail(seed, case, "rectangular tiling rejected for DSL kernel");
            }
        };
        if let Err(e) = t.validate_for(alg.nest.deps()) {
            eprintln!("  tiling invalid for corpus deps: {e}");
            fail(seed, case, "corpus kernel deps not rectangularly tileable");
        }
        let seq = alg.execute_sequential();
        check_scan(&alg, &seq, seed, case);
        if let Some(hash) = frozen_hash(name) {
            frozen_cases += 1;
            if seq.bit_hash() != hash {
                fail(
                    seed,
                    case,
                    "paper kernel differs from its frozen hand-coded hash",
                );
            }
        }
        let plan = match ParallelPlan::new(alg, t.clone(), Some(m)) {
            Ok(p) => Arc::new(p),
            Err(e) => {
                eprintln!("  planning failed: {e}");
                fail(seed, case, "planning failed on a DSL kernel");
            }
        };
        check_plan_against_walks(&plan, seed, case);
        per_kernel[ki] += 1;
        let ts = execute_tiled_sequential(&plan);
        if seq.diff(&ts).is_some() {
            fail(seed, case, "DSL tiled sequential reordering mismatch");
        }
        let (res, reg_c) = run_observed(&plan, ExecMode::Full, ExecStrategy::Compiled, seed, case);
        if let Some(bad) = seq.diff(res.data.as_ref().unwrap()) {
            eprintln!("  MISMATCH at {bad:?}");
            fail(seed, case, "DSL parallel/sequential mismatch");
        }
        let (reference, reg_r) =
            run_observed(&plan, ExecMode::Full, ExecStrategy::Reference, seed, case);
        if res
            .data
            .as_ref()
            .unwrap()
            .diff(reference.data.as_ref().unwrap())
            .is_some()
        {
            fail(seed, case, "DSL compiled/reference data mismatch");
        }
        if res.makespan() != reference.makespan()
            || res.report.total_bytes() != reference.report.total_bytes()
        {
            fail(
                seed,
                case,
                "DSL compiled/reference makespan/traffic mismatch",
            );
        }
        let (overlapped, reg_o) =
            run_observed(&plan, ExecMode::Full, ExecStrategy::Overlapped, seed, case);
        if res
            .data
            .as_ref()
            .unwrap()
            .diff(overlapped.data.as_ref().unwrap())
            .is_some()
        {
            fail(seed, case, "DSL compiled/overlapped data mismatch");
        }
        if overlapped.makespan() > res.makespan() + 1e-12 {
            fail(seed, case, "DSL overlapped strategy slower than blocking");
        }
        if overlapped.report.total_bytes() != res.report.total_bytes()
            || overlapped.report.total_messages() != res.report.total_messages()
        {
            fail(seed, case, "DSL compiled/overlapped traffic mismatch");
        }
        let rep_c = reg_c.run_report(&res.report.local_times);
        let rep_r = reg_r.run_report(&reference.report.local_times);
        for c in [
            Counter::MessagesSent,
            Counter::BytesSent,
            Counter::Tiles,
            Counter::Iterations,
        ] {
            if rep_c.total(c) != rep_r.total(c) {
                fail(
                    seed,
                    case,
                    "DSL compiled/reference logical counter mismatch",
                );
            }
        }
        if rep_r.total(Counter::VectorizedPoints) != 0 {
            fail(seed, case, "DSL reference strategy reported batched points");
        }
        let rep_o = reg_o.run_report(&overlapped.report.local_times);
        check_timing_only(
            &plan,
            [
                (ExecStrategy::Compiled, &res, &rep_c),
                (ExecStrategy::Overlapped, &overlapped, &rep_o),
            ],
            seed,
            case,
        );
        vectorized_points += rep_c.total(Counter::VectorizedPoints);
    }
    if cases >= DSL_CORPUS.len() as u64 {
        for (ki, count) in per_kernel.iter().enumerate() {
            if *count == 0 {
                eprintln!("corpus kernel `{}` never executed", DSL_CORPUS[ki].0);
                fail(seed, cases, "DSL corpus coverage hole");
            }
        }
    }
    if frozen_cases == 0 {
        fail(seed, cases, "no case checked a frozen fingerprint");
    }
    if cases >= DSL_CORPUS.len() as u64 && vectorized_points == 0 {
        fail(
            seed,
            cases,
            "no DSL case ever took the batched compute path",
        );
    }
    eprintln!(
        "dsl cross-check: {cases} cases, {frozen_cases} frozen-hash checks, \
         {vectorized_points} batched points"
    );
    eprintln!("all {cases} cases passed (dsl corpus)");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let faults = args.iter().any(|a| a == "--faults");
    let tcp = args.iter().any(|a| a == "--tcp");
    let recovery = args.iter().any(|a| a == "--recovery");
    let tune = args.iter().any(|a| a == "--tune");
    let mut tune_cases = 0u64;
    let mut tcp_cases = 0u64;
    let mut tcp_chaos_cases = 0u64;
    let mut recovered_cases = 0u64;
    let mut vectorized_points = 0u64;
    let positional: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let seed: u64 = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let cases: u64 = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    if args.iter().any(|a| a == "--dsl") {
        dsl_mode(seed, cases);
    }
    let mut g = G(seed | 1);
    for case in 0..cases {
        let n = 3usize;
        // space
        let ext: Vec<i64> = (0..n).map(|_| g.range(5, 12)).collect();
        let lo = vec![1i64; n];
        let mut space = Polyhedron::from_box(&lo, &ext);
        let ncuts = g.range(0, 2);
        let mut cuts = vec![];
        for _ in 0..ncuts {
            let coeffs: Vec<i64> = (0..n).map(|_| g.range(-1, 1)).collect();
            if coeffs.iter().all(|&c| c == 0) {
                continue;
            }
            let slack = g.range(0, 10);
            let mid: i64 = coeffs
                .iter()
                .zip(&ext)
                .map(|(&c, &e)| c * ((1 + e) / 2))
                .sum();
            cuts.push((coeffs.clone(), -mid + slack));
            space.add(Constraint::new(coeffs, -mid + slack));
        }
        // deps
        let q = g.range(2, 4) as usize;
        let mut cols = vec![];
        for _ in 0..q {
            loop {
                let c: Vec<i64> = (0..n).map(|_| g.range(0, 2)).collect();
                if tilecc_linalg::vecops::is_lex_positive(&c) {
                    cols.push(c);
                    break;
                }
            }
        }
        let mut deps = IMat::zeros(n, cols.len());
        for (qq, c) in cols.iter().enumerate() {
            for k in 0..n {
                deps[(k, qq)] = c[k];
            }
        }
        let factors: Vec<i64> = (0..n).map(|_| g.range(2, 4)).collect();
        let use_cone = g.next().is_multiple_of(2);
        let m = (g.next() % n as u64) as usize;
        eprintln!("case {case}: ext={ext:?} cuts={cuts:?} deps={cols:?} factors={factors:?} cone={use_cone} m={m} tune={tune}");
        // tiling
        let h = if tune {
            // Draw from the auto-tuner's exact search space: every ordered
            // row choice from the tiling cone pool at this tile volume.
            let volume = factors.iter().product::<i64>();
            let cands =
                tilecc::enumerate_candidates(&deps, volume).expect("fuzz nests have n >= 2");
            if cands.is_empty() {
                continue;
            }
            let idx = (g.next() % cands.len() as u64) as usize;
            cands[idx].h.clone()
        } else if use_cone {
            let rays = tiling_cone_rays(&deps).expect("fuzz nests have n >= 2");
            if rays.len() < n {
                continue;
            }
            let mut chosen: Vec<Vec<i64>> = vec![];
            for ray in &rays {
                let mut cand = chosen.clone();
                cand.push(ray.clone());
                let ok = cand.len() < n || {
                    let mut sq = IMat::zeros(n, n);
                    for (i, r) in cand.iter().enumerate() {
                        for k in 0..n {
                            sq[(i, k)] = r[k];
                        }
                    }
                    sq.det() != 0
                };
                if ok {
                    chosen = cand;
                }
                if chosen.len() == n {
                    break;
                }
            }
            if chosen.len() < n {
                continue;
            }
            RMat::from_fn(n, n, |i, j| {
                Rational::new(chosen[i][j] as i128, factors[i] as i128)
            })
        } else {
            RMat::from_fn(n, n, |i, j| {
                if i == j {
                    Rational::new(1, factors[i] as i128)
                } else {
                    Rational::ZERO
                }
            })
        };
        let Ok(t) = TilingTransform::new(h) else {
            continue;
        };
        if t.validate_for(&deps).is_err() {
            continue;
        }
        let alg = Algorithm::new("p", LoopNest::new(space, deps), Arc::new(K));
        let seq = alg.execute_sequential();
        check_scan(&alg, &seq, seed, case);
        let Ok(plan) = ParallelPlan::new(alg, t, Some(m)) else {
            continue;
        };
        eprintln!(
            "  stage: shadow has {} constraints, {} tiles, {} procs, {} tile deps",
            plan.tiled.shadow().constraints().len(),
            plan.tiled.tiles().count(),
            plan.dist.num_procs(),
            plan.comm.tile_deps.len()
        );
        check_plan_against_walks(&plan, seed, case);
        tune_cases += u64::from(tune);
        let plan = Arc::new(plan);
        let ts = execute_tiled_sequential(&plan);
        if seq.diff(&ts).is_some() {
            fail(seed, case, "tiled sequential reordering mismatch");
        }
        // The compiled run records observability metrics so conservation
        // invariants can be checked below.
        let (res, reg_c) = run_observed(&plan, ExecMode::Full, ExecStrategy::Compiled, seed, case);
        if let Some(bad) = seq.diff(res.data.as_ref().unwrap()) {
            eprintln!("  MISMATCH at {bad:?}");
            let tf = plan.tiled.transform();
            eprintln!("  H' = {:?}", tf.h_prime());
            eprintln!("  v = {:?} strides = {:?}", tf.v(), tf.strides());
            eprintln!("  D' = {:?}", plan.comm.d_prime);
            eprintln!(
                "  maxd = {:?} cc = {:?} off = {:?}",
                plan.comm.maxd, plan.comm.cc, plan.comm.off
            );
            eprintln!("  D^S = {:?}", plan.comm.tile_deps);
            eprintln!("  D^m = {:?}", plan.comm.proc_deps);
            let tile = tf.tile_of(&bad);
            eprintln!("  tile of bad point: {tile:?}");
            eprintln!(
                "  seq value {:?} par value {:?}",
                seq.get_all(&bad),
                res.data.as_ref().unwrap().get_all(&bad)
            );
            fail(seed, case, "parallel/sequential mismatch");
        }
        // Compiled vs reference strategy: `execute` above ran the compiled
        // (default) path; the per-point reference path must agree bitwise
        // with identical virtual time and traffic.
        let (reference, reg_r) =
            run_observed(&plan, ExecMode::Full, ExecStrategy::Reference, seed, case);
        if let Some(bad) = res
            .data
            .as_ref()
            .unwrap()
            .diff(reference.data.as_ref().unwrap())
        {
            eprintln!("  STRATEGY MISMATCH at {bad:?}");
            fail(seed, case, "compiled/reference strategy data mismatch");
        }
        if res.makespan() != reference.makespan() {
            eprintln!(
                "  makespans: compiled {} reference {}",
                res.makespan(),
                reference.makespan()
            );
            fail(seed, case, "compiled/reference makespan mismatch");
        }
        if res.report.total_bytes() != reference.report.total_bytes() {
            fail(seed, case, "compiled/reference traffic mismatch");
        }
        // Metrics conservation: in a fault-free run every message sent is
        // received exactly once, byte-for-byte, and no fault or reliability
        // counters fire.
        let rep_c = reg_c.run_report(&res.report.local_times);
        let rep_r = reg_r.run_report(&reference.report.local_times);
        for rep in [&rep_c, &rep_r] {
            if rep.total(Counter::MessagesSent) != rep.total(Counter::MessagesReceived) {
                fail(seed, case, "fault-free sends != receives");
            }
            if rep.total(Counter::BytesSent) != rep.total(Counter::BytesReceived) {
                fail(seed, case, "fault-free bytes sent != bytes received");
            }
            if rep.total(Counter::Retransmits) != 0
                || rep.total(Counter::DupsSuppressed) != 0
                || rep.total(Counter::FaultDrops) != 0
            {
                fail(seed, case, "fault counters fired in a fault-free run");
            }
        }
        if rep_c.total(Counter::MessagesSent) != res.report.total_messages()
            || rep_c.total(Counter::BytesSent) != res.report.total_bytes()
        {
            fail(seed, case, "metrics registry disagrees with engine report");
        }
        // STATS-snapshot merge path: what the multi-process TCP driver does
        // (capture a snapshot per rank, merge with `from_snapshots`) must be
        // bitwise indistinguishable from building the report straight off
        // the registry, and each snapshot must survive its own wire codec.
        let snaps: Vec<StatsSnapshot> = (0..plan.num_procs())
            .map(|r| StatsSnapshot::capture(&reg_c.rank_metrics(r)))
            .collect();
        let merged = ObsReport::from_snapshots(&snaps, &res.report.local_times);
        if merged.to_json() != rep_c.to_json() {
            fail(
                seed,
                case,
                "snapshot-merged report differs from registry report",
            );
        }
        if !merged.deterministic_diff(&rep_c).is_empty() {
            fail(seed, case, "snapshot merge broke the deterministic subset");
        }
        let zero = StatsSnapshot::zero();
        for (r, snap) in snaps.iter().enumerate() {
            // Absolute frame (delta against zero) and an idle incremental
            // frame (delta against itself) must both round-trip exactly.
            let abs = snap.encode_delta(&zero);
            match StatsSnapshot::apply_delta(&zero, &abs) {
                Ok(back) if back == *snap => {}
                Ok(_) => fail(seed, case, "absolute stats frame did not round-trip"),
                Err(e) => {
                    eprintln!("  rank {r} absolute stats frame rejected: {e}");
                    fail(seed, case, "absolute stats frame rejected by decoder");
                }
            }
            let idle = snap.encode_delta(snap);
            match StatsSnapshot::apply_delta(snap, &idle) {
                Ok(back) if back == *snap => {}
                _ => fail(seed, case, "idle stats delta did not round-trip"),
            }
            // Truncation anywhere must be a typed error, never a panic or a
            // silent partial decode.
            if !abs.is_empty() && StatsSnapshot::apply_delta(&zero, &abs[..abs.len() - 1]).is_ok() {
                fail(seed, case, "truncated stats frame decoded successfully");
            }
            // Category totals accrue in a different addition order than the
            // chronological engine clock, so the partition identity holds to
            // rounding, not bitwise.
            let clock = res.report.local_times[r];
            if (snap.local_clock() - clock).abs() > 1e-9 * clock.abs().max(1.0) {
                eprintln!(
                    "  rank {r}: snapshot clock {} engine clock {clock}",
                    snap.local_clock()
                );
                fail(seed, case, "snapshot clock partition disagrees with engine");
            }
        }
        // Both strategies must report identical logical counters; only the
        // dispatch counters tell them apart.
        for c in [
            Counter::MessagesSent,
            Counter::BytesSent,
            Counter::MessagesReceived,
            Counter::BytesReceived,
            Counter::Tiles,
            Counter::InteriorTiles,
            Counter::BoundaryTiles,
            Counter::Iterations,
        ] {
            if rep_c.total(c) != rep_r.total(c) {
                eprintln!(
                    "  counter {}: compiled {} reference {}",
                    c.name(),
                    rep_c.total(c),
                    rep_r.total(c)
                );
                fail(seed, case, "compiled/reference logical counter mismatch");
            }
        }
        if rep_c.total(Counter::CompiledDispatches) != rep_c.total(Counter::Tiles)
            || rep_c.total(Counter::ReferenceDispatches) != 0
            || rep_r.total(Counter::ReferenceDispatches) != rep_r.total(Counter::Tiles)
            || rep_r.total(Counter::CompiledDispatches) != 0
        {
            fail(seed, case, "dispatch counters do not match the strategy");
        }
        // VectorizedPoints is a dispatch-shape counter, not a logical one:
        // the reference strategy never batches, and no strategy can batch
        // more points than it iterates. Compiled and overlapped are NOT
        // compared against each other — the boundary/interior split cuts
        // runs differently, so their batch totals legitimately diverge
        // while the data stays bitwise identical (checked above).
        if rep_r.total(Counter::VectorizedPoints) != 0 {
            fail(seed, case, "reference strategy reported batched points");
        }
        if rep_c.total(Counter::VectorizedPoints) > rep_c.total(Counter::Iterations) {
            fail(
                seed,
                case,
                "compiled strategy batched more points than iterations",
            );
        }
        vectorized_points += rep_c.total(Counter::VectorizedPoints);
        // Overlapped strategy: boundary-first execution with sends hidden
        // behind the interior must be a pure schedule change — same data,
        // same traffic, and never a later finish than blocking compiled.
        let (overlapped, reg_o) =
            run_observed(&plan, ExecMode::Full, ExecStrategy::Overlapped, seed, case);
        if let Some(bad) = res
            .data
            .as_ref()
            .unwrap()
            .diff(overlapped.data.as_ref().unwrap())
        {
            eprintln!("  OVERLAPPED MISMATCH at {bad:?}");
            fail(seed, case, "compiled/overlapped strategy data mismatch");
        }
        if overlapped.makespan() > res.makespan() + 1e-12 {
            eprintln!(
                "  makespans: compiled {} overlapped {}",
                res.makespan(),
                overlapped.makespan()
            );
            fail(seed, case, "overlapped strategy slower than blocking");
        }
        if overlapped.report.total_bytes() != res.report.total_bytes()
            || overlapped.report.total_messages() != res.report.total_messages()
        {
            fail(seed, case, "compiled/overlapped traffic mismatch");
        }
        if overlapped.report.total_bytes_received() != overlapped.report.total_bytes() {
            fail(seed, case, "overlapped run lost or invented bytes");
        }
        let rep_o = reg_o.run_report(&overlapped.report.local_times);
        for c in [
            Counter::MessagesSent,
            Counter::BytesSent,
            Counter::MessagesReceived,
            Counter::BytesReceived,
            Counter::Tiles,
            Counter::InteriorTiles,
            Counter::BoundaryTiles,
            Counter::Iterations,
        ] {
            if rep_o.total(c) != rep_c.total(c) {
                eprintln!(
                    "  counter {}: compiled {} overlapped {}",
                    c.name(),
                    rep_c.total(c),
                    rep_o.total(c)
                );
                fail(seed, case, "compiled/overlapped logical counter mismatch");
            }
        }
        if rep_o.total(Counter::CompiledDispatches) != rep_o.total(Counter::Tiles)
            || rep_o.total(Counter::ReferenceDispatches) != 0
        {
            fail(seed, case, "overlapped dispatch counters are wrong");
        }
        if rep_o.total(Counter::VectorizedPoints) > rep_o.total(Counter::Iterations) {
            fail(
                seed,
                case,
                "overlapped strategy batched more points than iterations",
            );
        }
        check_timing_only(
            &plan,
            [
                (ExecStrategy::Compiled, &res, &rep_c),
                (ExecStrategy::Overlapped, &overlapped, &rep_o),
            ],
            seed,
            case,
        );
        if tcp && plan.num_procs() <= 8 {
            // Cross-backend check: the same compiled program over real
            // sockets must be indistinguishable from the threaded run —
            // bitwise data, bitwise per-rank clocks, identical counters.
            tcp_cases += 1;
            let tcp_res = match execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::Full,
                ExecStrategy::Compiled,
                Backend::Tcp,
                EngineOptions::default(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("  tcp-backend run failed: {e}");
                    fail(seed, case, "tcp backend failed");
                }
            };
            if let Some(bad) = res
                .data
                .as_ref()
                .unwrap()
                .diff(tcp_res.data.as_ref().unwrap())
            {
                eprintln!("  TCP MISMATCH at {bad:?}");
                fail(seed, case, "tcp/threaded data mismatch");
            }
            for rank in 0..plan.num_procs() {
                if res.report.local_times[rank].to_bits()
                    != tcp_res.report.local_times[rank].to_bits()
                {
                    eprintln!(
                        "  rank {rank} clocks: threaded {} tcp {}",
                        res.report.local_times[rank], tcp_res.report.local_times[rank]
                    );
                    fail(seed, case, "tcp/threaded virtual clock mismatch");
                }
            }
            if tcp_res.report.total_messages() != res.report.total_messages()
                || tcp_res.report.total_bytes() != res.report.total_bytes()
                || tcp_res.report.total_bytes_received() != res.report.total_bytes_received()
            {
                fail(seed, case, "tcp/threaded traffic mismatch");
            }
            // The same chaos plan over sockets: faults are decided above
            // the transport, so the perturbed schedule must also agree
            // bitwise, retransmission accounting included.
            let fault_seed = seed ^ case.wrapping_mul(0x9E37_79B9);
            let chaos = FaultPlan::chaos(fault_seed, 0.3);
            let threaded_f = match execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::Full,
                ExecStrategy::Compiled,
                Backend::Threaded,
                EngineOptions {
                    fault: Some(chaos.clone()),
                    ..EngineOptions::default()
                },
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("  faulty threaded run failed: {e} (fault seed {fault_seed})");
                    fail(seed, case, "threaded backend failed under chaos");
                }
            };
            let tcp_f = match execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::Full,
                ExecStrategy::Compiled,
                Backend::Tcp,
                EngineOptions {
                    fault: Some(chaos),
                    ..EngineOptions::default()
                },
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("  faulty tcp run failed: {e} (fault seed {fault_seed})");
                    fail(seed, case, "tcp backend failed under chaos");
                }
            };
            tcp_chaos_cases += 1;
            if let Some(bad) = threaded_f
                .data
                .as_ref()
                .unwrap()
                .diff(tcp_f.data.as_ref().unwrap())
            {
                eprintln!("  FAULTY TCP MISMATCH at {bad:?} (fault seed {fault_seed})");
                fail(seed, case, "tcp/threaded data mismatch under chaos");
            }
            if threaded_f.makespan().to_bits() != tcp_f.makespan().to_bits() {
                eprintln!(
                    "  chaos makespans: threaded {} tcp {} (fault seed {fault_seed})",
                    threaded_f.makespan(),
                    tcp_f.makespan()
                );
                fail(seed, case, "tcp/threaded makespan mismatch under chaos");
            }
            if threaded_f.report.total_retransmissions() != tcp_f.report.total_retransmissions()
                || threaded_f.report.total_duplicates_suppressed()
                    != tcp_f.report.total_duplicates_suppressed()
            {
                fail(seed, case, "tcp/threaded reliability counters mismatch");
            }
        }
        if faults {
            // Re-run the case over a chaotic substrate seeded per-case: the
            // reliability layer must reproduce the fault-free data bitwise.
            let fault_seed = seed ^ case.wrapping_mul(0x9E37_79B9);
            let reg_f = MetricsRegistry::new();
            let options = EngineOptions {
                fault: Some(FaultPlan::chaos(fault_seed, 0.3)),
                obs: Some(reg_f.clone()),
                ..EngineOptions::default()
            };
            let faulty = match execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::Full,
                ExecStrategy::Compiled,
                Backend::Threaded,
                options,
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("  fault-injected run failed: {e} (fault seed {fault_seed})");
                    fail(seed, case, "reliability layer failed to mask faults");
                }
            };
            if let Some(bad) = seq.diff(faulty.data.as_ref().unwrap()) {
                eprintln!("  FAULTY MISMATCH at {bad:?} (fault seed {fault_seed})");
                fail(seed, case, "fault-injected result differs from fault-free");
            }
            if faulty.report.total_messages() > 20 && faulty.report.total_retransmissions() == 0 {
                fail(seed, case, "30% drop rate produced no retransmissions");
            }
            // Faulty conservation: the reliability layer delivers exactly
            // once (receives == sends — drops are retried before counting,
            // duplicates are suppressed before counting), every dropped
            // attempt shows up as a retransmission, and suppressions never
            // exceed injected duplicates.
            let rep_f = reg_f.run_report(&faulty.report.local_times);
            if rep_f.total(Counter::MessagesSent) != rep_f.total(Counter::MessagesReceived) {
                fail(seed, case, "faulty run broke exactly-once delivery");
            }
            if rep_f.total(Counter::BytesSent) != rep_f.total(Counter::BytesReceived) {
                fail(seed, case, "faulty run lost or invented bytes");
            }
            if rep_f.total(Counter::Retransmits) != rep_f.total(Counter::FaultDrops) {
                fail(seed, case, "retransmissions != injected drops");
            }
            if rep_f.total(Counter::DupsSuppressed) > rep_f.total(Counter::FaultDups) {
                fail(seed, case, "suppressed more duplicates than were injected");
            }
            // Faults perturb timing, never the logical workload.
            for c in [
                Counter::MessagesSent,
                Counter::BytesSent,
                Counter::Tiles,
                Counter::Iterations,
            ] {
                if rep_f.total(c) != rep_c.total(c) {
                    fail(seed, case, "faults changed the logical workload counters");
                }
            }
            // The overlapped schedule must survive the same chaos plan: its
            // in-flight sends go through the identical reliability layer.
            let faulty_o = match execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::Full,
                ExecStrategy::Overlapped,
                Backend::Threaded,
                EngineOptions {
                    fault: Some(FaultPlan::chaos(fault_seed, 0.3)),
                    ..EngineOptions::default()
                },
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("  faulty overlapped run failed: {e} (fault seed {fault_seed})");
                    fail(seed, case, "overlapped strategy failed under faults");
                }
            };
            if let Some(bad) = seq.diff(faulty_o.data.as_ref().unwrap()) {
                eprintln!("  FAULTY OVERLAPPED MISMATCH at {bad:?} (fault seed {fault_seed})");
                fail(seed, case, "fault-injected overlapped result differs");
            }
            if faulty_o.report.total_bytes_received() != faulty_o.report.total_bytes() {
                fail(seed, case, "faulty overlapped run lost or invented bytes");
            }
        }
        if recovery {
            // Crash the busiest rank halfway through its run and recover
            // from checkpoints: the recovered run must reproduce the
            // fault-free data bitwise, and every rank's clock must equal
            // the fault-free clock plus exactly its recovery debt.
            let (crash_rank, peak) = res
                .report
                .local_times
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(r, t)| (r, *t))
                .unwrap();
            let crash = FaultPlan::lossy(0, 0.0).with_crash(crash_rank, peak * 0.5);
            let ropts = |fault: FaultPlan| EngineOptions {
                fault: Some(fault),
                recovery: Some(RecoveryOptions {
                    interval: 2,
                    max_recoveries: 2,
                }),
                ..EngineOptions::default()
            };
            let rec = match execute(
                plan.clone(),
                MachineModel::fast_ethernet_p3(),
                ExecMode::Full,
                ExecStrategy::Compiled,
                Backend::Threaded,
                ropts(crash.clone()),
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("  crashed threaded run failed: {e} (rank {crash_rank} @ {peak})");
                    fail(seed, case, "threaded recovery failed to mask a crash");
                }
            };
            if let Some(bad) = seq.diff(rec.data.as_ref().unwrap()) {
                eprintln!("  RECOVERED MISMATCH at {bad:?} (rank {crash_rank})");
                fail(seed, case, "recovered result differs from fault-free");
            }
            for r in 0..plan.num_procs() {
                let expect = res.report.local_times[r] + rec.report.stats[r].recovery_time;
                if expect.to_bits() != rec.report.local_times[r].to_bits() {
                    eprintln!(
                        "  rank {r}: clean {} + debt {} != recovered {}",
                        res.report.local_times[r],
                        rec.report.stats[r].recovery_time,
                        rec.report.local_times[r]
                    );
                    fail(seed, case, "recovery debt does not settle the clock");
                }
            }
            if rec.report.total_recoveries() > 0 {
                recovered_cases += 1;
            }
            if plan.num_procs() <= 8 {
                // The in-process TCP backend must recover identically:
                // same data, same clocks, same recovery accounting.
                let rec_tcp = match execute(
                    plan.clone(),
                    MachineModel::fast_ethernet_p3(),
                    ExecMode::Full,
                    ExecStrategy::Compiled,
                    Backend::Tcp,
                    ropts(crash),
                ) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("  crashed tcp run failed: {e} (rank {crash_rank} @ {peak})");
                        fail(seed, case, "tcp recovery failed to mask a crash");
                    }
                };
                if let Some(bad) = rec
                    .data
                    .as_ref()
                    .unwrap()
                    .diff(rec_tcp.data.as_ref().unwrap())
                {
                    eprintln!("  RECOVERED TCP MISMATCH at {bad:?} (rank {crash_rank})");
                    fail(seed, case, "tcp/threaded data mismatch after recovery");
                }
                for r in 0..plan.num_procs() {
                    if rec.report.local_times[r].to_bits()
                        != rec_tcp.report.local_times[r].to_bits()
                    {
                        fail(seed, case, "tcp/threaded clock mismatch after recovery");
                    }
                }
                if rec.report.total_recoveries() != rec_tcp.report.total_recoveries()
                    || rec.report.total_recovery_time().to_bits()
                        != rec_tcp.report.total_recovery_time().to_bits()
                {
                    fail(seed, case, "tcp/threaded recovery accounting mismatch");
                }
            }
        }
    }
    if recovery {
        if recovered_cases == 0 {
            eprintln!("--recovery never observed an actual crash — corpus too small");
            fail(seed, cases, "recovery cross-check never fired");
        }
        eprintln!("recovery cross-check: {recovered_cases} cases survived a mid-run crash");
    }
    if tune {
        if tune_cases == 0 {
            eprintln!("--tune never executed a tuner-generated tiling — corpus too small");
            fail(seed, cases, "tune cross-check never ran");
        }
        eprintln!("tune cross-check: {tune_cases} tuner-generated tilings executed");
    }
    if tcp {
        if tcp_cases == 0 || tcp_chaos_cases == 0 {
            eprintln!(
                "--tcp covered {tcp_cases} clean / {tcp_chaos_cases} chaos cases — corpus too small"
            );
            fail(seed, cases, "tcp cross-check never ran");
        }
        eprintln!("tcp cross-check: {tcp_cases} clean + {tcp_chaos_cases} chaos cases");
    }
    // The batched hot path must actually fire across a random corpus —
    // every batched point above went through the bitwise data comparison,
    // so this is the coverage half of the "vectorized == reference" check.
    // Small corpora can legitimately miss it (seed 42 first batches in
    // case 16), so only CI-sized runs enforce coverage.
    if cases >= 25 && vectorized_points == 0 {
        fail(seed, cases, "no case ever took the batched compute path");
    }
    eprintln!("vectorized coverage: {vectorized_points} batched points across the corpus");
    eprintln!(
        "all {cases} cases passed{}",
        if faults {
            " (with fault injection)"
        } else {
            ""
        }
    );
}
