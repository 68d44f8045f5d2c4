//! End-to-end tests for `tilecc run --backend tcp`: the driver spawns real
//! worker processes, and the summary it prints must agree with the
//! threaded backend line for line — including the bitwise `checksum` —
//! clean and under fault injection. Failure paths must exit nonzero and
//! name the rank.

use std::process::{Command, Output};
use tilecc_cluster::obs::json::{self, Json};

fn sor_nest() -> String {
    format!("{}/../../examples/nests/sor.tk", env!("CARGO_MANIFEST_DIR"))
}

/// The two-array stencil: width 2, and its skew leaves clamped boundary
/// tiles.
fn coupled_kernel() -> String {
    format!(
        "{}/../../examples/kernels/coupled.tk",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The SOR plan most tests run: 4×10×10 tiles mapped along dimension 2.
const SOR_PLAN: [&str; 4] = ["--rect", "4,10,10", "--map", "2"];

/// The coupled plan: 4×6 tiles on 4 processors.
const COUPLED_PLAN: [&str; 2] = ["--rect", "4,6"];

/// Self-cleaning temp path prefix (per-worker artifacts append `.rankN`).
struct TempArtifacts(std::path::PathBuf);

impl TempArtifacts {
    fn new(tag: &str) -> Self {
        TempArtifacts(std::env::temp_dir().join(format!("tilecc-tcp-{}-{tag}", std::process::id())))
    }
    fn to_str(&self) -> &str {
        self.0.to_str().unwrap()
    }
    fn rank(&self, r: usize) -> std::path::PathBuf {
        std::path::PathBuf::from(format!("{}.rank{r}", self.to_str()))
    }
}

impl Drop for TempArtifacts {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        for r in 0..16 {
            let _ = std::fs::remove_file(self.rank(r));
        }
    }
}

fn tilecc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tilecc"))
        .args(args)
        .output()
        .expect("spawn tilecc")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "tilecc failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn field<'a>(out: &'a str, key: &str) -> &'a str {
    out.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == key).then(|| v.trim())
        })
        .unwrap_or_else(|| panic!("no `{key}` line in:\n{out}"))
}

/// Run `kernel` verified on both backends with `args` (the plan flags and
/// any extra ones) and assert every summary line they share is identical —
/// virtual times, counters, and the bitwise data checksum.
fn assert_backends_print_identically(kernel: &str, args: &[&str]) -> (String, String) {
    let mut base = vec!["run", kernel, "--verify"];
    base.extend_from_slice(args);

    let threaded = stdout_of(&tilecc(&base));
    let procs = field(&threaded, "processors");

    let mut tcp_args = base.clone();
    tcp_args.extend_from_slice(&["--backend", "tcp", "--ranks", procs]);
    let tcp = stdout_of(&tilecc(&tcp_args));

    for key in [
        "processors",
        "iterations",
        "seq time",
        "makespan",
        "speedup",
        "messages",
        "bytes",
        "checksum",
        "verified",
    ] {
        assert_eq!(
            field(&threaded, key),
            field(&tcp, key),
            "`{key}` differs between backends\n--- threaded ---\n{threaded}\n--- tcp ---\n{tcp}"
        );
    }
    assert_eq!(field(&tcp, "verified"), "true");
    assert!(field(&tcp, "backend").starts_with("tcp"), "{tcp}");
    (threaded, tcp)
}

#[test]
fn tcp_run_matches_threaded_bitwise() {
    assert_backends_print_identically(&sor_nest(), &SOR_PLAN);
}

#[test]
fn two_array_skewed_tcp_run_matches_threaded_bitwise() {
    // Every worker returns a width-2 LDS whose boundary tiles the driver
    // gathers through the clamp.
    let (threaded, _) = assert_backends_print_identically(&coupled_kernel(), &COUPLED_PLAN);
    assert_eq!(field(&threaded, "processors"), "4");
}

/// A skewed kernel whose body reads `mod()` and a coordinate, so every
/// body evaluation maps its point back through `T⁻¹`.
const SKEWED_MOD: &str = "\
kernel skewmod
param T = 6
param N = 12
iter t = 1 to T
iter i = 1 to N
skew = [1,0; 1,1]
array A = bnd()
A[t,i] = 0.5*A[t-1,i] + 0.25*A[t-1,i-1] + 0.125*A[t-1,i+1] + mod(3*t + 5*i, 7)*0.01 + 0.001*i
";

/// Both backends print the checksum of the kernel's sequential data, and
/// that data is the unskewed kernel's, moved: a skew changes coordinates,
/// not values, so the value at `T·j` is the unskewed value at `j`, bitwise.
#[test]
fn coordinate_reading_body_under_a_skew_matches_sequential() {
    use tilecc_frontend::tk::{lower_kernel, parse_kernel};
    let file = TempArtifacts::new("skewed-mod.tk");
    std::fs::write(&file.0, SKEWED_MOD).unwrap();
    let (threaded, _) = assert_backends_print_identically(file.to_str(), &["--rect", "3,4"]);
    let program = parse_kernel(SKEWED_MOD).unwrap();
    let seq = lower_kernel(&program).execute_sequential();
    assert_eq!(
        field(&threaded, "checksum"),
        format!("{:016x}", seq.checksum().to_bits())
    );
    let t = tilecc_linalg::IMat::from_rows(&[&[1, 0], &[1, 1]]);
    let mut plain = program.clone();
    plain.skew = None;
    let plain = lower_kernel(&plain);
    let moved = plain.execute_sequential();
    for j in plain.nest.bounds().points() {
        let (a, b) = (moved.get(&j).unwrap(), seq.get(&t.mul_vec(&j)).unwrap());
        assert_eq!(a.to_bits(), b.to_bits(), "at {j:?}");
    }
}

#[test]
fn tcp_runs_follow_the_strategy_like_threaded_ones() {
    let (sor, coupled) = (sor_nest(), coupled_kernel());
    let cases: [(&str, &[&str]); 2] = [(&sor, &SOR_PLAN), (&coupled, &COUPLED_PLAN)];
    for strategy in ["reference", "overlapped"] {
        for (kernel, plan) in cases {
            let mut args = plan.to_vec();
            args.extend(["--strategy", strategy]);
            let (_, tcp) = assert_backends_print_identically(kernel, &args);
            assert!(
                field(&tcp, "strategy").eq_ignore_ascii_case(strategy),
                "{tcp}"
            );
        }
    }
}

#[test]
fn tcp_driver_trace_records_gather_and_verify() {
    let trace = TempArtifacts::new("driver-trace.json");
    let nest = sor_nest();
    let mut args = vec!["run", nest.as_str(), "--verify", "--backend", "tcp"];
    args.extend(SOR_PLAN);
    args.extend(["--trace-out", trace.to_str()]);
    let out = stdout_of(&tilecc(&args));
    assert_eq!(field(&out, "verified"), "true");
    let t = json::parse(&std::fs::read_to_string(trace.to_str()).unwrap()).unwrap();
    let names: std::collections::BTreeSet<&str> = (t.get("traceEvents"))
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for span in ["gather", "verify"] {
        assert!(
            names.contains(span),
            "driver span `{span}` missing: {names:?}"
        );
    }
    // The driver verifies in place: each rank's `gather` pass compares its
    // cells with the finished scan, so it starts after `verify` ends.
    let spans = |name: &str| -> Vec<(u64, u64)> {
        let events = t.get("traceEvents").and_then(Json::as_arr).unwrap();
        let wall = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_u64);
        let named = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name));
        named
            .filter_map(|e| Some((wall(e, "wall_start_ns")?, wall(e, "wall_dur_ns")?)))
            .collect()
    };
    let (v0, vdur) = spans("verify")[0];
    let gathers = spans("gather");
    assert!(!gathers.is_empty());
    for (g0, _) in gathers {
        assert!(
            g0 >= v0 + vdur,
            "a gather pass started before the scan ended"
        );
    }
}

/// A worker's `RESULT` carries its output and nothing more: each worker's
/// trace file holds one `result` span whose detail is the payload size,
/// and over all of them the sizes sum to one 8-byte iteration count per
/// rank plus 8 bytes per value of the points they own, `w = 2` values
/// each for the coupled kernel. Each also holds one `mesh` span, its
/// bring-up, whose detail is its peer count.
#[test]
fn worker_results_carry_exactly_the_owned_values() {
    let trace = TempArtifacts::new("result-trace.json");
    let kernel = coupled_kernel();
    let mut args = vec!["run", kernel.as_str(), "--verify", "--backend", "tcp"];
    args.extend(COUPLED_PLAN);
    args.extend(["--trace-out", trace.to_str()]);
    let out = stdout_of(&tilecc(&args));
    assert_eq!(field(&out, "verified"), "true");
    let procs: u64 = field(&out, "processors").parse().unwrap();
    let iterations: u64 = field(&out, "iterations").parse().unwrap();
    let mut details = Vec::new();
    for r in 0..procs as usize {
        let t = json::parse(&std::fs::read_to_string(trace.rank(r)).unwrap()).unwrap();
        let events = t.get("traceEvents").and_then(Json::as_arr).unwrap();
        let detail = |name| {
            let spans = events
                .iter()
                .filter(move |e| e.get("name").and_then(Json::as_str) == Some(name));
            spans.map(|e| {
                e.get("args")
                    .and_then(|a| a.get("detail"))
                    .and_then(Json::as_u64)
            })
        };
        let mesh: Vec<_> = detail("mesh").collect();
        assert_eq!(
            mesh,
            [Some(procs - 1)],
            "rank {r}: one `mesh` span over its peers"
        );
        details.extend(detail("result"));
    }
    assert_eq!(details.len() as u64, procs, "one `result` span per worker");
    let bytes: u64 = details.iter().map(|d| d.expect("a byte count")).sum();
    assert_eq!(bytes, 8 * procs + 8 * 2 * iterations);
}

#[test]
fn faulty_tcp_run_matches_threaded_bitwise() {
    // A lossy link: the reliability layer retransmits over real sockets
    // and the run must still agree bitwise, retransmit counts included.
    let mut args = SOR_PLAN.to_vec();
    args.extend(["--fault-seed", "7", "--drop-rate", "0.25"]);
    let (threaded, tcp) = assert_backends_print_identically(&sor_nest(), &args);
    if threaded.contains("retransmits") {
        assert_eq!(
            field(&threaded, "retransmits"),
            field(&tcp, "retransmits"),
            "--- threaded ---\n{threaded}\n--- tcp ---\n{tcp}"
        );
    }
}

#[test]
fn crashed_worker_fails_the_run_naming_the_rank() {
    let nest = sor_nest();
    let threaded = stdout_of(&tilecc(&["run", &nest, "--rect", "4,10,10", "--map", "2"]));
    let procs = field(&threaded, "processors");

    let out = tilecc(&[
        "run",
        &nest,
        "--rect",
        "4,10,10",
        "--map",
        "2",
        "--backend",
        "tcp",
        "--ranks",
        procs,
        "--crash-rank",
        "1",
    ]);
    assert!(!out.status.success(), "a crashed rank must fail the driver");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rank 1") && stderr.contains("panicked"),
        "driver stderr must name the crashed rank:\n{stderr}"
    );
}

#[test]
fn crash_rank_outside_the_plan_is_rejected_on_both_backends() {
    // The 5×60×80 rectangle puts 4 ranks on the SOR nest: a crash of rank 7
    // would never fire, so the run must refuse it instead of verifying.
    let nest = sor_nest();
    let base = [
        "run",
        &nest,
        "--rect",
        "5,60,80",
        "--map",
        "0",
        "--crash-rank",
        "7",
        "--verify",
    ];
    for backend in ["threaded", "tcp"] {
        let mut args = base.to_vec();
        args.extend_from_slice(&["--backend", backend]);
        let out = tilecc(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{backend}: must fail
{stderr}"
        );
        assert!(
            stderr.contains("--crash-rank 7 out of range for a 4-processor plan"),
            "{backend}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{backend}: printed a summary");
    }
}

#[test]
fn worker_with_unreachable_rendezvous_exits_nonzero_fast() {
    let nest = sor_nest();
    let start = std::time::Instant::now();
    let out = tilecc(&[
        "run",
        &nest,
        "--rect",
        "4,10,10",
        "--map",
        "2",
        "--worker-rank",
        "0",
        "--connect",
        "127.0.0.1:1",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rendezvous"), "{stderr}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(20),
        "connection refusal must fail fast, took {:?}",
        start.elapsed()
    );
}

#[test]
fn ranks_must_match_the_plan() {
    let nest = sor_nest();
    let out = tilecc(&[
        "run",
        &nest,
        "--rect",
        "4,10,10",
        "--map",
        "2",
        "--backend",
        "tcp",
        "--ranks",
        "999",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("999"), "{stderr}");
}

#[test]
fn tcp_run_writes_per_worker_metrics_artifacts() {
    let nest = sor_nest();
    let threaded = stdout_of(&tilecc(&["run", &nest, "--rect", "4,10,10", "--map", "2"]));
    let procs: usize = field(&threaded, "processors").parse().unwrap();

    let metrics = TempArtifacts::new("metrics.json");
    let out = stdout_of(&tilecc(&[
        "run",
        &nest,
        "--rect",
        "4,10,10",
        "--map",
        "2",
        "--backend",
        "tcp",
        "--ranks",
        &procs.to_string(),
        "--metrics-out",
        metrics.to_str(),
    ]));
    assert!(out.contains("metrics"), "{out}");
    for r in 0..procs {
        let path = metrics.rank(r);
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("worker artifact {path:?} missing: {e}"));
        assert!(
            body.contains("tilecc-metrics-v1"),
            "artifact {path:?} is not a metrics report"
        );
    }
}

/// The report block a run printed after its summary lines.
fn report_block(out: &str) -> &str {
    let at = out
        .find("run report:")
        .unwrap_or_else(|| panic!("no report block in:\n{out}"));
    &out[at..]
}

#[test]
fn report_renders_what_the_run_printed() {
    let nest = sor_nest();
    let base = ["run", &nest, "--rect", "4,10,10", "--map", "2", "--verify"];
    let threaded_metrics = TempArtifacts::new("printed-threaded.json");
    let mut threaded_args = base.to_vec();
    threaded_args.extend(["--metrics-out", threaded_metrics.to_str()]);
    let threaded = stdout_of(&tilecc(&threaded_args));
    let procs = field(&threaded, "processors").to_string();

    let tcp_metrics = TempArtifacts::new("printed-tcp.json");
    let mut tcp_args = base.to_vec();
    tcp_args.extend(["--backend", "tcp", "--ranks", &procs]);
    tcp_args.extend(["--metrics-out", tcp_metrics.to_str()]);
    let tcp = stdout_of(&tilecc(&tcp_args));

    for (printed, metrics) in [(&threaded, &threaded_metrics), (&tcp, &tcp_metrics)] {
        let rendered = stdout_of(&tilecc(&["report", metrics.to_str()]));
        assert_eq!(
            rendered,
            report_block(printed),
            "`report` must re-render the run's own report"
        );
    }
    // The threaded report carries the dependency-true critical path.
    assert!(threaded.contains("dependency chain"), "{threaded}");
}
