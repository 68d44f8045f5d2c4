//! Randomized end-to-end fuzzer: draws cases and checks the full parallel
//! pipeline bitwise against sequential execution. Every case runs the one
//! per-case cross-check ([`check_case`]), whichever generator drew it:
//! three runs — the compiled flat-index path and the per-point reference
//! path under the blocking scheme, and the compiled path under the
//! overlapped scheme, which splits each tile into boundary and interior —
//! must agree bitwise with identical message traffic and logical counters,
//! and the overlapped makespan must exceed neither the blocking compiled
//! one nor the unsplit reference strategy's under the same scheme.
//!
//! Usage: `fuzz [seed] [cases] [--faults] [--tcp] [--recovery] [--tune] [--dsl]`.
//!
//! Two generators draw the cases. By default each case is a random convex
//! 3-D space with uniform dependences under a rectangular or tiling-cone
//! tiling; with `--tune`, the tiling is drawn from the auto-tuner's
//! candidate enumeration (`tilecc::enumerate_candidates`) instead, so every
//! H the tuner could ever rank flows through the same cross-check. With
//! `--dsl`, each case compiles one kernel of the `examples/kernels/*.tk`
//! corpus through the frontend and draws a random rectangular tiling and
//! mapping dimension; the sequential data of the four paper workloads
//! (`sor`, `jacobi`, `adi`, `adi_paper`) must additionally hash to the
//! frozen fingerprints of the hand-coded Rust kernels they replaced
//! (`tilecc_frontend::corpus::FROZEN`), at the file sizes and at the sizes
//! `perf` benches them at, and every corpus kernel must run. `--tune` and
//! `--dsl` pick different generators and cannot be combined.
//!
//! Three legs extend the per-case check under either generator. With
//! `--faults`, every case is additionally executed under a seeded
//! lossy/duplicating/reordering `FaultPlan`; the reliability layer must
//! reproduce the fault-free result bitwise, with retransmissions visible in
//! the stats. With `--tcp`, every case with ≤ 8 processors is re-executed
//! over the TCP backend (real sockets, TCMP framing) — clean and under a
//! seeded chaos plan — and must match the threaded backend bitwise: same
//! data, same per-rank virtual clocks, same counters; under `--dsl`, a
//! wider case is also checked on a narrow plan of its kernel, and every
//! corpus kernel must have run over TCP. With `--recovery`,
//! every case crashes its busiest rank mid-run under a checkpoint/recovery
//! policy on both backends: the recovered run must reproduce the fault-free
//! data bitwise, and every rank's clock must be the fault-free clock plus
//! exactly its recovery debt.
//!
//! Each case's sequential oracle (`execute_sequential`) is also compared
//! bitwise against the run-based scan (`execute_scan`) that `verify` uses,
//! and the plan's closed forms are checked against walks: its tile set
//! against a lattice walk of every shadow candidate, and its `D^S` against
//! `⌊(j' + d')/v⌋` over every TTIS point. The compiled strategy also runs
//! in `TimingOnly` mode under both schemes, which must equal its `Full`
//! runs on makespan bits, per-rank clocks, iterations, messages and bytes.
//!
//! Every failure path prints the RNG seed so regressions reproduce with
//! `fuzz <seed>`. Found two real bugs during development (Fourier–Motzkin
//! blowup on dense skewed systems; non-monotone minimum-successor message
//! pairing — see DESIGN.md).

use std::collections::BTreeSet;
use std::sync::Arc;
use tilecc_cluster::obs::RunReport as ObsReport;
use tilecc_cluster::{
    CommScheme, Counter, EngineOptions, FaultPlan, MachineModel, MetricsRegistry, RecoveryOptions,
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

/// One fuzz case: the run's seed and the case index, named by every
/// failure so it reproduces with `fuzz <seed>`.
#[derive(Clone, Copy)]
struct Case {
    seed: u64,
    case: u64,
}

impl Case {
    /// Report a failure with the reproduction seed and exit.
    fn fail(self, what: &str) -> ! {
        eprintln!("FAILURE in case {}: {what}", self.case);
        eprintln!("reproduce with: fuzz {}", self.seed);
        std::process::exit(3);
    }

    /// The seed of this case's chaos plan.
    fn fault_seed(self) -> u64 {
        self.seed ^ self.case.wrapping_mul(0x9E37_79B9)
    }

    /// Execute `plan` on the paper's machine model; an engine error fails
    /// the case as `what`.
    fn run(
        self,
        plan: &Arc<ParallelPlan>,
        mode: ExecMode,
        strategy: ExecStrategy,
        backend: Backend,
        options: EngineOptions,
        what: &str,
    ) -> ExecutionResult {
        let model = MachineModel::fast_ethernet_p3();
        execute(plan.clone(), model, mode, strategy, backend, options).unwrap_or_else(|e| {
            eprintln!("  {mode:?} {strategy:?} {backend:?} run failed: {e}");
            self.fail(what)
        })
    }

    /// Run `plan` under `scheme` on the threaded backend with a fresh
    /// metrics registry.
    fn run_observed(
        self,
        plan: &Arc<ParallelPlan>,
        mode: ExecMode,
        strategy: ExecStrategy,
        scheme: CommScheme,
    ) -> (ExecutionResult, Arc<MetricsRegistry>) {
        let reg = MetricsRegistry::new();
        let options = EngineOptions {
            scheme,
            obs: Some(reg.clone()),
            ..EngineOptions::default()
        };
        let what = "strategy run failed";
        let res = self.run(plan, mode, strategy, Backend::Threaded, options, what);
        (res, reg)
    }

    /// The sequential oracle of `alg`, which the run-based scan (what
    /// `verify` runs) must equal bitwise.
    fn sequential(self, alg: &Algorithm) -> DataSpace {
        let seq = alg.execute_sequential();
        if let Some(bad) = alg.execute_scan().diff(&seq) {
            eprintln!("  SCAN MISMATCH at {bad:?}");
            self.fail("sequential scan differs from execute_sequential");
        }
        seq
    }

    /// `got` must hold `want`'s data bitwise.
    fn same_data(self, want: &DataSpace, got: &ExecutionResult, what: &str) {
        if let Some(bad) = want.diff(data(got)) {
            eprintln!("  {what} at {bad:?}");
            self.fail(what);
        }
    }

    /// The engine reports of `a` and `b` must agree on their whole
    /// deterministic subset: makespan, every rank's clock and clock split,
    /// and every logical counter.
    fn same_accounts(self, a: &ExecutionResult, b: &ExecutionResult, what: &str) {
        let report =
            |r: &ExecutionResult| ObsReport::from_snapshots(&r.report.stats, &r.report.local_times);
        let diffs = report(a).deterministic_diff(&report(b));
        if !diffs.is_empty() {
            eprintln!("  {} (fault seed {})", diffs.join("; "), self.fault_seed());
            self.fail(what);
        }
    }

    /// `a` and `b` must agree on every counter of `counters`.
    fn same_totals(self, a: &ObsReport, b: &ObsReport, counters: &[Counter], what: &str) {
        for &c in counters {
            if a.total(c) != b.total(c) {
                eprintln!("  counter {}: {} vs {}", c.name(), a.total(c), b.total(c));
                self.fail(what);
            }
        }
    }
}

/// The gathered data of a `Full` run.
fn data(res: &ExecutionResult) -> &DataSpace {
    res.data.as_ref().expect("a full run gathers its data")
}

/// Bit patterns of a clock vector, for bitwise comparison.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The logical counters every strategy must report identically; only the
/// dispatch counters tell the strategies apart.
const LOGICAL: [Counter; 8] = [
    Counter::MessagesSent,
    Counter::BytesSent,
    Counter::MessagesReceived,
    Counter::BytesReceived,
    Counter::Tiles,
    Counter::InteriorTiles,
    Counter::BoundaryTiles,
    Counter::Iterations,
];

/// The widest plan the TCP legs run: each rank of the in-process TCP
/// backend holds a reader thread per peer.
const TCP_MAX_PROCS: usize = 8;

/// The legs each case runs beyond the fault-free strategy cross-check.
#[derive(Clone, Copy)]
struct Legs {
    faults: bool,
    tcp: bool,
    recovery: bool,
}

/// What the cases covered, for the coverage checks after the last case.
#[derive(Default)]
struct Tally {
    /// Cases cross-checked on the TCP backend, clean and under chaos.
    tcp_cases: u64,
    /// Cases whose crashed rank actually recovered.
    recovered_cases: u64,
    /// Points the compiled strategy computed on the batched path.
    vectorized_points: u64,
}

/// The one per-case cross-check, whichever generator drew the case: the
/// plan's closed forms against walks, every strategy against the
/// sequential oracle `seq`, and the legs `legs` asks for.
fn check_case(c: Case, plan: &Arc<ParallelPlan>, seq: &DataSpace, legs: Legs, tally: &mut Tally) {
    eprintln!(
        "  stage: shadow has {} constraints, {} tiles, {} procs, {} tile deps",
        plan.tiled.shadow().constraints().len(),
        plan.tiled.tiles().count(),
        plan.dist.num_procs(),
        plan.comm.tile_deps.len()
    );
    check_plan_against_walks(plan, c);
    if seq.diff(&execute_tiled_sequential(plan)).is_some() {
        c.fail("tiled sequential reordering mismatch");
    }
    let (res, rep_c) = check_strategies(c, plan, seq, tally);
    if legs.tcp && plan.num_procs() <= TCP_MAX_PROCS {
        check_tcp(c, plan, &res);
        tally.tcp_cases += 1;
    }
    if legs.faults {
        check_faults(c, plan, seq, &rep_c);
    }
    if legs.recovery && check_recovery(c, plan, seq, &res) {
        tally.recovered_cases += 1;
    }
}

/// The fault-free legs: compiled, reference and overlapped runs agree
/// bitwise with `seq` and with each other, conserve messages and bytes,
/// and equal their timing-only runs. Returns the compiled run and its
/// metrics report.
fn check_strategies(
    c: Case,
    plan: &Arc<ParallelPlan>,
    seq: &DataSpace,
    tally: &mut Tally,
) -> (ExecutionResult, ObsReport) {
    let (full, blocking) = (ExecMode::Full, CommScheme::Blocking);
    let (res, reg_c) = c.run_observed(plan, full, ExecStrategy::Compiled, blocking);
    if let Some(bad) = seq.diff(data(&res)) {
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
        eprintln!("  tile of bad point: {:?}", tf.tile_of(&bad));
        eprintln!(
            "  seq value {:?} par value {:?}",
            seq.get_all(&bad),
            data(&res).get_all(&bad)
        );
        c.fail("parallel/sequential mismatch");
    }
    // The per-point reference path must agree bitwise with identical
    // virtual time and traffic.
    let (reference, reg_r) = c.run_observed(plan, full, ExecStrategy::Reference, blocking);
    c.same_data(
        data(&res),
        &reference,
        "compiled/reference strategy data mismatch",
    );
    if res.makespan() != reference.makespan() {
        eprintln!(
            "  makespans: compiled {} reference {}",
            res.makespan(),
            reference.makespan()
        );
        c.fail("compiled/reference makespan mismatch");
    }
    if res.report.total(Counter::BytesSent) != reference.report.total(Counter::BytesSent) {
        c.fail("compiled/reference traffic mismatch");
    }
    // Metrics conservation: in a fault-free run every message sent is
    // received exactly once, byte-for-byte, and no fault or reliability
    // counters fire.
    let rep_c = reg_c.run_report(&res.report.local_times);
    let rep_r = reg_r.run_report(&reference.report.local_times);
    for rep in [&rep_c, &rep_r] {
        if rep.total(Counter::MessagesSent) != rep.total(Counter::MessagesReceived) {
            c.fail("fault-free sends != receives");
        }
        if rep.total(Counter::BytesSent) != rep.total(Counter::BytesReceived) {
            c.fail("fault-free bytes sent != bytes received");
        }
        if rep.total(Counter::Retransmits) != 0
            || rep.total(Counter::DupsSuppressed) != 0
            || rep.total(Counter::FaultDrops) != 0
        {
            c.fail("fault counters fired in a fault-free run");
        }
    }
    if rep_c.total(Counter::MessagesSent) != res.report.total(Counter::MessagesSent)
        || rep_c.total(Counter::BytesSent) != res.report.total(Counter::BytesSent)
    {
        c.fail("metrics registry disagrees with engine report");
    }
    check_snapshots(c, plan, &res, &reg_c, &rep_c);
    let what = "compiled/reference logical counter mismatch";
    c.same_totals(&rep_c, &rep_r, &LOGICAL, what);
    if rep_c.total(Counter::CompiledDispatches) != rep_c.total(Counter::Tiles)
        || rep_c.total(Counter::ReferenceDispatches) != 0
        || rep_r.total(Counter::ReferenceDispatches) != rep_r.total(Counter::Tiles)
        || rep_r.total(Counter::CompiledDispatches) != 0
    {
        c.fail("dispatch counters do not match the strategy");
    }
    // VectorizedPoints is a dispatch-shape counter, not a logical one: the
    // reference strategy never batches, and no strategy can batch more
    // points than it iterates. The two schemes are NOT compared against
    // each other — the overlapped scheme's boundary/interior split cuts runs
    // differently, so their batch totals legitimately diverge while the
    // data stays bitwise identical.
    if rep_r.total(Counter::VectorizedPoints) != 0 {
        c.fail("reference strategy reported batched points");
    }
    if rep_c.total(Counter::VectorizedPoints) > rep_c.total(Counter::Iterations) {
        c.fail("compiled strategy batched more points than iterations");
    }
    tally.vectorized_points += rep_c.total(Counter::VectorizedPoints);
    // Under the overlapped scheme compiled splits each tile: boundary, sends,
    // interior. A pure schedule change: same data and traffic, and no later
    // finish than blocking compiled or the unsplit reference strategy under
    // that scheme (timing-only, whose clocks equal a full run's).
    let (overlap, timing_only) = (CommScheme::Overlapped, ExecMode::TimingOnly);
    let (overlapped, reg_o) = c.run_observed(plan, full, ExecStrategy::Compiled, overlap);
    c.same_data(data(&res), &overlapped, "blocking/overlapped data mismatch");
    let (unsplit, _) = c.run_observed(plan, timing_only, ExecStrategy::Reference, overlap);
    for (other, what) in [(&res, "blocking compiled"), (&unsplit, "unsplit reference")] {
        if overlapped.makespan() > other.makespan() + 1e-12 {
            eprintln!(
                "  makespans: {what} {} overlapped {}",
                other.makespan(),
                overlapped.makespan()
            );
            c.fail(&format!("overlapped scheme slower than {what}"));
        }
    }
    if overlapped.report.total(Counter::BytesSent) != res.report.total(Counter::BytesSent)
        || overlapped.report.total(Counter::MessagesSent) != res.report.total(Counter::MessagesSent)
    {
        c.fail("blocking/overlapped traffic mismatch");
    }
    if overlapped.report.total(Counter::BytesReceived)
        != overlapped.report.total(Counter::BytesSent)
    {
        c.fail("overlapped run lost or invented bytes");
    }
    let rep_o = reg_o.run_report(&overlapped.report.local_times);
    let what = "blocking/overlapped logical counter mismatch";
    c.same_totals(&rep_c, &rep_o, &LOGICAL, what);
    if rep_o.total(Counter::CompiledDispatches) != rep_o.total(Counter::Tiles)
        || rep_o.total(Counter::ReferenceDispatches) != 0
    {
        c.fail("overlapped dispatch counters are wrong");
    }
    if rep_o.total(Counter::VectorizedPoints) > rep_o.total(Counter::Iterations) {
        c.fail("overlapped scheme batched more points than iterations");
    }
    // The timing-only leg: virtual time depends only on iteration counts
    // and message sizes, so a `TimingOnly` run under each scheme must equal
    // its `Full` run on makespan bits, per-rank clocks and the counters.
    for (scheme, full, rep) in [(blocking, &res, &rep_c), (overlap, &overlapped, &rep_o)] {
        let (timing, reg) = c.run_observed(plan, timing_only, ExecStrategy::Compiled, scheme);
        if timing.makespan().to_bits() != full.makespan().to_bits()
            || bits(&timing.report.local_times) != bits(&full.report.local_times)
        {
            eprintln!("  {scheme:?}: timing-only clocks differ from the full run");
            c.fail("timing-only/full clock mismatch");
        }
        let rep_t = reg.run_report(&timing.report.local_times);
        let counters = [
            Counter::Iterations,
            Counter::MessagesSent,
            Counter::BytesSent,
        ];
        c.same_totals(rep, &rep_t, &counters, "timing-only/full counter mismatch");
    }
    (res, rep_c)
}

/// STATS-snapshot merge path: what the multi-process TCP driver does
/// (capture a snapshot per rank, merge with `from_snapshots`) must be
/// bitwise indistinguishable from building the report straight off the
/// registry, and each snapshot must survive its own wire codec.
fn check_snapshots(
    c: Case,
    plan: &ParallelPlan,
    res: &ExecutionResult,
    reg: &MetricsRegistry,
    rep: &ObsReport,
) {
    let snaps: Vec<StatsSnapshot> = (0..plan.num_procs())
        .map(|r| StatsSnapshot::capture(&reg.rank_metrics(r)))
        .collect();
    let merged = ObsReport::from_snapshots(&snaps, &res.report.local_times);
    // Printed, so the comparison is bitwise on every number.
    if merged.to_json().to_string() != rep.to_json().to_string() {
        c.fail("snapshot-merged report differs from registry report");
    }
    if !merged.deterministic_diff(rep).is_empty() {
        c.fail("snapshot merge broke the deterministic subset");
    }
    for (r, snap) in snaps.iter().enumerate() {
        let payload = snap.encode();
        match StatsSnapshot::decode(&payload) {
            Ok(back) if back == *snap => {}
            Ok(_) => c.fail("stats frame did not round-trip"),
            Err(e) => {
                eprintln!("  rank {r} stats frame rejected: {e}");
                c.fail("stats frame rejected by decoder");
            }
        }
        // Truncation anywhere must be a typed error, never a panic or a
        // silent partial decode.
        if StatsSnapshot::decode(&payload[..payload.len() - 1]).is_ok() {
            c.fail("truncated stats frame decoded successfully");
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
            c.fail("snapshot clock partition disagrees with engine");
        }
    }
}

/// Cross-backend leg: the same compiled program over real sockets must be
/// indistinguishable from the threaded run `res` — bitwise data, bitwise
/// per-rank clocks, identical counters — clean and under one chaos plan.
fn check_tcp(c: Case, plan: &Arc<ParallelPlan>, res: &ExecutionResult) {
    let (full, compiled) = (ExecMode::Full, ExecStrategy::Compiled);
    // Observed like `res`, so the tile counters are kept on both sides.
    let observed = EngineOptions {
        obs: Some(MetricsRegistry::new()),
        ..EngineOptions::default()
    };
    let tcp_res = c.run(
        plan,
        full,
        compiled,
        Backend::Tcp,
        observed,
        "tcp backend failed",
    );
    c.same_data(data(res), &tcp_res, "tcp/threaded data mismatch");
    c.same_accounts(res, &tcp_res, "tcp/threaded accounts mismatch");
    // The same chaos plan over sockets: faults are decided above the
    // transport, so the perturbed schedule must also agree bitwise,
    // retransmission accounting included.
    let chaos = || EngineOptions {
        fault: Some(FaultPlan::chaos(c.fault_seed(), 0.3)),
        ..EngineOptions::default()
    };
    let what = "threaded backend failed under chaos";
    let threaded_f = c.run(plan, full, compiled, Backend::Threaded, chaos(), what);
    let what = "tcp backend failed under chaos";
    let tcp_f = c.run(plan, full, compiled, Backend::Tcp, chaos(), what);
    let what = "tcp/threaded data mismatch under chaos";
    c.same_data(data(&threaded_f), &tcp_f, what);
    let what = "tcp/threaded accounts mismatch under chaos";
    c.same_accounts(&threaded_f, &tcp_f, what);
}

/// Chaos leg: over a substrate seeded per case, the reliability layer must
/// reproduce the fault-free data bitwise under the blocking and the
/// overlapped scheme, deliver exactly once, and leave the logical workload
/// of the fault-free compiled run `rep_c` unchanged.
fn check_faults(c: Case, plan: &Arc<ParallelPlan>, seq: &DataSpace, rep_c: &ObsReport) {
    eprintln!("  chaos: fault seed {}", c.fault_seed());
    let reg_f = MetricsRegistry::new();
    let chaos = || EngineOptions {
        fault: Some(FaultPlan::chaos(c.fault_seed(), 0.3)),
        ..EngineOptions::default()
    };
    let options = EngineOptions {
        obs: Some(reg_f.clone()),
        ..chaos()
    };
    let what = "reliability layer failed to mask faults";
    let faulty = c.run(
        plan,
        ExecMode::Full,
        ExecStrategy::Compiled,
        Backend::Threaded,
        options,
        what,
    );
    c.same_data(
        seq,
        &faulty,
        "fault-injected result differs from fault-free",
    );
    if faulty.report.total(Counter::MessagesSent) > 20
        && faulty.report.total(Counter::Retransmits) == 0
    {
        c.fail("30% drop rate produced no retransmissions");
    }
    // Faulty conservation: the reliability layer delivers exactly once
    // (receives == sends — drops are retried before counting, duplicates
    // are suppressed before counting), every dropped attempt shows up as a
    // retransmission, and suppressions never exceed injected duplicates.
    let rep_f = reg_f.run_report(&faulty.report.local_times);
    if rep_f.total(Counter::MessagesSent) != rep_f.total(Counter::MessagesReceived) {
        c.fail("faulty run broke exactly-once delivery");
    }
    if rep_f.total(Counter::BytesSent) != rep_f.total(Counter::BytesReceived) {
        c.fail("faulty run lost or invented bytes");
    }
    if rep_f.total(Counter::Retransmits) != rep_f.total(Counter::FaultDrops) {
        c.fail("retransmissions != injected drops");
    }
    if rep_f.total(Counter::DupsSuppressed) > rep_f.total(Counter::FaultDups) {
        c.fail("suppressed more duplicates than were injected");
    }
    // Faults perturb timing, never the logical workload.
    let workload = [
        Counter::MessagesSent,
        Counter::BytesSent,
        Counter::Tiles,
        Counter::Iterations,
    ];
    c.same_totals(
        rep_c,
        &rep_f,
        &workload,
        "faults changed the logical workload counters",
    );
    // The overlapped schedule must survive the same chaos plan: its
    // in-flight sends go through the identical reliability layer.
    let what = "overlapped scheme failed under faults";
    let (full, compiled) = (ExecMode::Full, ExecStrategy::Compiled);
    let overlap = EngineOptions {
        scheme: CommScheme::Overlapped,
        ..chaos()
    };
    let faulty_o = c.run(plan, full, compiled, Backend::Threaded, overlap, what);
    c.same_data(seq, &faulty_o, "fault-injected overlapped result differs");
    if faulty_o.report.total(Counter::BytesReceived) != faulty_o.report.total(Counter::BytesSent) {
        c.fail("faulty overlapped run lost or invented bytes");
    }
}

/// Recovery leg: crash the busiest rank of the fault-free run `res`
/// halfway through its run, checkpointing every 2 positions, and, when a
/// rank's chain holds `L ≥ 4` tiles, crash the longest such chain at three
/// quarters of its run, checkpointing every `L/2` positions: the crash
/// lands about `L/4 ≥ 1` positions past the checkpoint at `L/2`, whose
/// window has slid since, so a rank that restored its output but not its
/// LDS window reads stale halo cells. Each
/// recovered run must reproduce the fault-free data bitwise, every rank's
/// clock must equal the fault-free clock plus exactly its recovery debt,
/// and with ≤ 8 processors the TCP backend must recover identically.
/// Returns whether a rank actually recovered.
fn check_recovery(
    c: Case,
    plan: &Arc<ParallelPlan>,
    seq: &DataSpace,
    res: &ExecutionResult,
) -> bool {
    let clocks = &res.report.local_times;
    let busiest = (0..clocks.len()).max_by(|&a, &b| clocks[a].total_cmp(&clocks[b]));
    let chain = |r: usize| plan.dist.chains[r].1 - plan.dist.chains[r].0 + 1;
    let longest = (0..clocks.len())
        .filter(|&r| chain(r) >= 4)
        .max_by_key(|&r| chain(r));
    let crashes = [
        busiest.map(|r| (r, 0.5, 2)),
        longest.map(|r| (r, 0.75, chain(r) as u64 / 2)),
    ];
    let mut recovered = false;
    for (crash_rank, share, interval) in crashes.into_iter().flatten() {
        let at = clocks[crash_rank] * share;
        eprintln!("  crash: rank {crash_rank} at {at}, a checkpoint every {interval}");
        recovered |= check_crash(c, plan, seq, res, crash_rank, at, interval);
    }
    recovered
}

/// One crash of [`check_recovery`]: `crash_rank` at virtual time `at`,
/// checkpointing every `interval` positions.
fn check_crash(
    c: Case,
    plan: &Arc<ParallelPlan>,
    seq: &DataSpace,
    res: &ExecutionResult,
    crash_rank: usize,
    at: f64,
    interval: u64,
) -> bool {
    let crashed = || EngineOptions {
        fault: Some(FaultPlan::lossy(0, 0.0).with_crash(crash_rank, at)),
        recovery: Some(RecoveryOptions {
            interval,
            max_recoveries: 2,
        }),
        ..EngineOptions::default()
    };
    let (full, compiled) = (ExecMode::Full, ExecStrategy::Compiled);
    let what = "threaded recovery failed to mask a crash";
    let rec = c.run(plan, full, compiled, Backend::Threaded, crashed(), what);
    c.same_data(seq, &rec, "recovered result differs from fault-free");
    for r in 0..plan.num_procs() {
        let debt = rec.report.stats[r].recovery_time();
        let expect = res.report.local_times[r] + debt;
        if expect.to_bits() != rec.report.local_times[r].to_bits() {
            eprintln!(
                "  rank {r}: clean {} + debt {debt} != recovered {}",
                res.report.local_times[r], rec.report.local_times[r]
            );
            c.fail("recovery debt does not settle the clock");
        }
    }
    if plan.num_procs() <= TCP_MAX_PROCS {
        // The in-process TCP backend must recover identically: same data,
        // same clocks, same recovery accounting.
        let what = "tcp recovery failed to mask a crash";
        let rec_tcp = c.run(plan, full, compiled, Backend::Tcp, crashed(), what);
        c.same_data(
            data(&rec),
            &rec_tcp,
            "tcp/threaded data mismatch after recovery",
        );
        let what = "tcp/threaded accounts mismatch after recovery";
        c.same_accounts(&rec, &rec_tcp, what);
    }
    rec.report.total(Counter::Recoveries) > 0
}

/// The plan's tile set and tile dependences must equal the walks they
/// replaced: every shadow candidate with an in-space TTIS point, and every
/// non-zero `⌊(j' + d')/v⌋` over the TTIS points `j'`.
fn check_plan_against_walks(plan: &ParallelPlan, c: Case) {
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
        c.fail("tile set differs from the lattice walk");
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
        c.fail("tile dependences differ from the TTIS walk");
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

fn frozen_hash(name: &str) -> Option<u64> {
    corpus::FROZEN
        .iter()
        .find(|f| f.name == name && f.overrides.is_empty())
        .map(|f| f.hash)
}

/// `--dsl`: draw the cases from the kernel-DSL corpus. Each case compiles
/// one `.tk` program and draws a random rectangular tiling and mapping
/// dimension. The sequential data of the paper workloads must also match
/// the frozen fingerprints of the hand-coded kernels they replaced
/// ([`corpus::FROZEN`]), checked first at every recorded size and then on
/// each case, and a run of at least one case per kernel must run them all.
/// With `--tcp`, a case whose plan is too wide for sockets is checked once
/// more on a narrow plan of the same kernel ([`narrow_plan`]), so every
/// kernel also runs over TCP.
fn corpus_cases(seed: u64, cases: u64, legs: Legs, tally: &mut Tally) {
    let mut g = G(seed | 1);
    let c = Case { seed, case: 0 };
    for f in &corpus::FROZEN {
        let alg = compile_kernel_with(f.source, f.overrides).unwrap_or_else(|e| {
            eprintln!("  corpus kernel `{}` failed to compile: {e}", f.name);
            c.fail("corpus kernel did not compile")
        });
        let ds = alg.execute_sequential();
        if ds.bit_hash() != f.hash || ds.num_written() != f.written {
            eprintln!(
                "  `{}` with {:?} lost its frozen fingerprint",
                f.name, f.overrides
            );
            c.fail("paper kernel differs from its frozen hand-coded hash");
        }
    }
    let mut per_kernel = vec![0u64; DSL_CORPUS.len()];
    let mut per_kernel_tcp = vec![0u64; DSL_CORPUS.len()];
    let mut frozen_cases = 0u64;
    for case in 0..cases {
        let c = Case { seed, case };
        let ki = (case % DSL_CORPUS.len() as u64) as usize;
        let (name, src) = DSL_CORPUS[ki];
        let alg = tilecc_frontend::compile_kernel(src).unwrap_or_else(|e| {
            eprintln!("  corpus kernel `{name}` failed to compile: {e}");
            c.fail("corpus kernel did not compile")
        });
        let n = alg.nest.dim();
        let edges: Vec<i64> = (0..n).map(|_| g.range(2, 4)).collect();
        let m = g.range(0, n as i64 - 1) as usize;
        eprintln!("case {case}: kernel={name} dim={n} edges={edges:?} m={m}");
        let t = TilingTransform::rectangular(&edges).unwrap_or_else(|e| {
            eprintln!("  rectangular tiling rejected: {e}");
            c.fail("rectangular tiling rejected for DSL kernel")
        });
        if let Err(e) = t.validate_for(alg.nest.deps()) {
            eprintln!("  tiling invalid for corpus deps: {e}");
            c.fail("corpus kernel deps not rectangularly tileable");
        }
        let seq = c.sequential(&alg);
        if let Some(hash) = frozen_hash(name) {
            frozen_cases += 1;
            if seq.bit_hash() != hash {
                c.fail("paper kernel differs from its frozen hand-coded hash");
            }
        }
        let plan = ParallelPlan::new(alg, t, Some(m)).unwrap_or_else(|e| {
            eprintln!("  planning failed: {e}");
            c.fail("planning failed on a DSL kernel")
        });
        let tcp_before = tally.tcp_cases;
        let wide = plan.num_procs() > TCP_MAX_PROCS;
        check_case(c, &Arc::new(plan), &seq, legs, tally);
        per_kernel[ki] += 1;
        if legs.tcp && wide {
            check_case(c, &narrow_plan(c, src, &edges, m), &seq, legs, tally);
        }
        per_kernel_tcp[ki] += tally.tcp_cases - tcp_before;
    }
    let c = Case { seed, case: cases };
    if cases >= DSL_CORPUS.len() as u64 {
        for (ki, count) in per_kernel.iter().enumerate() {
            if *count == 0 {
                eprintln!("corpus kernel `{}` never executed", DSL_CORPUS[ki].0);
                c.fail("DSL corpus coverage hole");
            }
            if legs.tcp && per_kernel_tcp[ki] == 0 {
                eprintln!("corpus kernel `{}` never ran over TCP", DSL_CORPUS[ki].0);
                c.fail("DSL corpus TCP coverage hole");
            }
        }
    }
    if frozen_cases == 0 {
        c.fail("no case checked a frozen fingerprint");
    }
    eprintln!("dsl cross-check: {cases} cases, {frozen_cases} frozen-hash checks");
}

/// The kernel `src` re-planned for the TCP legs: the drawn `edges` along
/// the mapping dimension `m`, and `⌈(hi + 1)/2⌉` along every other one, so a
/// space in the nonnegative orthant spans at most two tiles there and the
/// plan at most `2ⁿ⁻¹` ranks (8 for the 4-D corpus kernels).
fn narrow_plan(c: Case, src: &str, edges: &[i64], m: usize) -> Arc<ParallelPlan> {
    let alg = tilecc_frontend::compile_kernel(src).expect("the corpus kernel compiled before");
    let (_, hi) = alg.nest.bounding_box();
    let narrow: Vec<i64> = (0..edges.len())
        .map(|k| if k == m { edges[k] } else { (hi[k] + 2) / 2 })
        .collect();
    let t = TilingTransform::rectangular(&narrow).expect("positive edges tile rectangularly");
    let plan = ParallelPlan::new(alg, t, Some(m)).unwrap_or_else(|e| {
        eprintln!("  planning edges {narrow:?} failed: {e}");
        c.fail("planning failed on a narrow DSL plan")
    });
    eprintln!("  tcp re-plan: edges={narrow:?} procs={}", plan.num_procs());
    Arc::new(plan)
}

/// The default generator: random convex 3-D spaces with uniform
/// dependences under a rectangular or tiling-cone tiling, or with `tune`
/// under a tiling drawn from the tuner's candidates. Cases whose tiling or
/// plan is rejected are skipped.
fn random_cases(seed: u64, cases: u64, tune: bool, legs: Legs, tally: &mut Tally) {
    let mut tune_cases = 0u64;
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
        let c = Case { seed, case };
        let alg = Algorithm::new("p", LoopNest::new(space, deps), Arc::new(K));
        let seq = c.sequential(&alg);
        let Ok(plan) = ParallelPlan::new(alg, t, Some(m)) else {
            continue;
        };
        tune_cases += u64::from(tune);
        check_case(c, &Arc::new(plan), &seq, legs, tally);
    }
    if tune {
        if tune_cases == 0 {
            eprintln!("--tune never executed a tuner-generated tiling — corpus too small");
            Case { seed, case: cases }.fail("tune cross-check never ran");
        }
        eprintln!("tune cross-check: {tune_cases} tuner-generated tilings executed");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    const FLAGS: [&str; 5] = ["--faults", "--tcp", "--recovery", "--tune", "--dsl"];
    let unknown = |a: &&String| a.starts_with("--") && !FLAGS.contains(&a.as_str());
    if let Some(bad) = args[1..].iter().find(unknown) {
        eprintln!("unknown flag `{bad}`; flags: {}", FLAGS.join(" "));
        std::process::exit(2);
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let legs = Legs {
        faults: flag("--faults"),
        tcp: flag("--tcp"),
        recovery: flag("--recovery"),
    };
    let (tune, dsl) = (flag("--tune"), flag("--dsl"));
    let positional: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let seed: u64 = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let cases: u64 = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let mut tally = Tally::default();
    // The batched hot path must actually fire across a corpus — every
    // batched point went through the bitwise data comparison, so this is
    // the coverage half of the "vectorized == reference" check. Small
    // corpora can legitimately miss it (seed 42 first batches in case 16
    // of the random corpus), so only runs of this many cases enforce it.
    let coverage_cases = if dsl {
        if tune {
            eprintln!("--tune draws random spaces' tilings; --dsl draws the corpus's: pick one");
            std::process::exit(2);
        }
        corpus_cases(seed, cases, legs, &mut tally);
        DSL_CORPUS.len() as u64
    } else {
        random_cases(seed, cases, tune, legs, &mut tally);
        25
    };
    let c = Case { seed, case: cases };
    if legs.recovery {
        if tally.recovered_cases == 0 {
            eprintln!("--recovery never observed an actual crash — corpus too small");
            c.fail("recovery cross-check never fired");
        }
        eprintln!(
            "recovery cross-check: {} cases survived a mid-run crash",
            tally.recovered_cases
        );
    }
    if legs.tcp {
        if tally.tcp_cases == 0 {
            eprintln!("--tcp covered no case — corpus too small");
            c.fail("tcp cross-check never ran");
        }
        eprintln!(
            "tcp cross-check: {} cases, clean and under chaos",
            tally.tcp_cases
        );
    }
    if cases >= coverage_cases && tally.vectorized_points == 0 {
        c.fail("no case ever took the batched compute path");
    }
    eprintln!(
        "vectorized coverage: {} batched points across the corpus",
        tally.vectorized_points
    );
    eprintln!(
        "all {cases} cases passed{}{}",
        if dsl { " (dsl corpus)" } else { "" },
        if legs.faults {
            " (with fault injection)"
        } else {
            ""
        }
    );
}
