//! Acceptance tests for the observability layer (ISSUE 3): a fault-free SOR
//! run with `--trace-out` must yield a valid Chrome trace — monotone
//! non-overlapping events per (pid, lane), one pid per rank, all five rank
//! phase kinds — and a `RunReport` whose per-rank compute + wait + comm
//! split reproduces that rank's virtual makespan within tolerance.

use std::sync::atomic::{AtomicU64, Ordering};
use tilecc_cli::run_cli;
use tilecc_cluster::obs::json::{self, Json};

fn sor_nest() -> String {
    format!("{}/../../examples/nests/sor.tk", env!("CARGO_MANIFEST_DIR"))
}

/// Self-cleaning temp path, unique per call: the tests of this file run
/// on parallel threads of one process, so a per-process name would let
/// one test's `Drop` delete another's file.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("tilecc-obs-{}-{n}-{tag}", std::process::id());
        TempFile(std::env::temp_dir().join(name))
    }
    fn to_str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Run SOR observed (fault-free, verified) and return (trace, metrics) JSON.
fn observed_sor() -> (Json, Json) {
    let nest = sor_nest();
    let trace = TempFile::new("trace.json");
    let metrics = TempFile::new("metrics.json");
    let out = run_cli(&args(&[
        "run",
        &nest,
        "--rect",
        "4,10,10",
        "--map",
        "2",
        "--verify",
        "--trace-out",
        trace.to_str(),
        "--metrics-out",
        metrics.to_str(),
    ]))
    .expect("observed SOR run failed");
    assert!(out.contains("verified   : true"), "{out}");
    let t = json::parse(&std::fs::read_to_string(trace.to_str()).unwrap()).unwrap();
    let m = json::parse(&std::fs::read_to_string(metrics.to_str()).unwrap()).unwrap();
    (t, m)
}

fn complete_events(trace: &Json) -> Vec<&Json> {
    trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect()
}

#[test]
fn chrome_trace_is_valid_and_complete() {
    let (trace, metrics) = observed_sor();
    let events = complete_events(&trace);
    assert!(!events.is_empty());

    let num_ranks = metrics.get("ranks").and_then(Json::as_arr).unwrap().len();
    assert!(num_ranks > 1, "SOR must distribute over several ranks");

    // One pid per rank (rank r is pid r+1) plus the driver on pid 0.
    let pids: std::collections::BTreeSet<u64> = events
        .iter()
        .map(|e| e.get("pid").and_then(Json::as_u64).unwrap())
        .collect();
    for rank in 0..num_ranks {
        assert!(
            pids.contains(&(rank as u64 + 1)),
            "rank {rank} (pid {}) missing from trace; pids = {pids:?}",
            rank + 1
        );
    }
    assert!(pids.contains(&0), "driver (pid 0) missing from trace");
    assert_eq!(pids.len(), num_ranks + 1, "unexpected extra pids: {pids:?}");

    // All five rank-side phase kinds appear.
    let cats: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) != Some(0))
        .filter_map(|e| e.get("cat").and_then(Json::as_str))
        .collect();
    for phase in ["compute", "recv", "send", "pack", "unpack"] {
        assert!(
            cats.contains(phase),
            "phase `{phase}` missing; got {cats:?}"
        );
    }

    // Driver-side phases appear on pid 0.
    let driver_cats: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(0))
        .filter_map(|e| e.get("cat").and_then(Json::as_str))
        .collect();
    for phase in ["lower", "plan", "compile-chain", "gather"] {
        assert!(
            driver_cats.contains(phase),
            "driver phase `{phase}` missing; got {driver_cats:?}"
        );
    }

    // Per-(pid, tid) lanes are monotone: sorted by ts, events never overlap.
    // Timestamps are exported with 3 decimals (µs), so allow that rounding.
    let mut lanes: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> = Default::default();
    for e in &events {
        let pid = e.get("pid").and_then(Json::as_u64).unwrap();
        let tid = e.get("tid").and_then(Json::as_u64).unwrap();
        let ts = e.get("ts").and_then(Json::as_f64).unwrap();
        let dur = e.get("dur").and_then(Json::as_f64).unwrap();
        assert!(dur >= 0.0, "negative duration in lane ({pid}, {tid})");
        lanes.entry((pid, tid)).or_default().push((ts, dur));
    }
    for ((pid, tid), mut evs) in lanes {
        evs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in evs.windows(2) {
            let (ts0, dur0) = w[0];
            let (ts1, _) = w[1];
            assert!(
                ts1 >= ts0 + dur0 - 0.002,
                "lane ({pid}, {tid}) overlaps: [{ts0}, {}) then {ts1}",
                ts0 + dur0
            );
        }
    }

    // Every rank-side event carries its virtual interval in args.
    for e in &events {
        if e.get("pid").and_then(Json::as_u64) != Some(0) {
            let a = e.get("args").expect("args");
            assert!(a.get("virt_start_s").and_then(Json::as_f64).is_some());
            assert!(a.get("virt_end_s").and_then(Json::as_f64).is_some());
        }
    }
}

/// The reference scan starts before the ranks and runs alongside them:
/// its `verify` span's wall start precedes every rank span's, and
/// `verify-diff` records the wait for it plus the diff, after the run.
#[test]
fn verify_scan_starts_before_every_rank_span() {
    let (trace, _) = observed_sor();
    let events = complete_events(&trace);
    let start = |e: &&Json| {
        let a = e.get("args").expect("args");
        a.get("wall_start_ns").and_then(Json::as_u64).unwrap()
    };
    let driver = |name: &str| {
        let found: Vec<u64> = events
            .iter()
            .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(0))
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .map(start)
            .collect();
        assert_eq!(found.len(), 1, "expected one driver `{name}` span");
        found[0]
    };
    let first_rank = events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) != Some(0))
        .map(start)
        .min()
        .expect("rank spans");
    let verify = driver("verify");
    assert!(
        verify <= first_rank,
        "verify starts at {verify} ns, after a rank span at {first_rank} ns"
    );
    assert!(driver("verify-diff") >= first_rank);
}

/// A traced threaded `run --verify` keeps every driver span the
/// benchmark's per-layer rows read, and its per-rank `gather` passes, which
/// compare the ranks' cells with the scan in place, follow the scan.
#[test]
fn traced_verify_keeps_every_driver_span() {
    let (trace, _) = observed_sor();
    let events = complete_events(&trace);
    let driver: Vec<&Json> = events
        .iter()
        .copied()
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(0))
        .collect();
    let wall = |e: &Json, k: &str| {
        e.get("args")
            .and_then(|a| a.get(k))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let named = |name: &str| -> Vec<&Json> {
        let hit = |e: &&Json| e.get("name").and_then(Json::as_str) == Some(name);
        driver.iter().copied().filter(hit).collect()
    };
    for name in [
        "lower",
        "tiled-space",
        "comm-plan",
        "compile-chain",
        "gather",
        "verify",
        "verify-diff",
    ] {
        assert!(!named(name).is_empty(), "no driver `{name}` span");
    }
    // One chain table serves every chain length of the plan.
    assert_eq!(named("compile-chain").len(), 1);
    let verify = named("verify")[0];
    let scan_end = wall(verify, "wall_start_ns") + wall(verify, "wall_dur_ns");
    for g in named("gather") {
        assert!(
            wall(g, "wall_start_ns") >= scan_end,
            "gather before the scan ended"
        );
    }
}

#[test]
fn run_report_partitions_every_rank_clock() {
    let (_, metrics) = observed_sor();
    assert_eq!(
        metrics.get("schema").and_then(Json::as_str),
        Some("tilecc-metrics-v1")
    );
    let makespan = metrics.get("makespan").and_then(Json::as_f64).unwrap();
    let ranks = metrics.get("ranks").and_then(Json::as_arr).unwrap();
    let mut max_local = 0.0f64;
    for r in ranks {
        let rank = r.get("rank").and_then(Json::as_u64).unwrap();
        let local = r.get("local_time").and_then(Json::as_f64).unwrap();
        let compute = r.get("compute").and_then(Json::as_f64).unwrap();
        let wait = r.get("wait").and_then(Json::as_f64).unwrap();
        let comm = r.get("comm").and_then(Json::as_f64).unwrap();
        // The three accumulators partition the rank's virtual clock exactly;
        // the tolerance covers the 9-decimal JSON serialization.
        let sum = compute + wait + comm;
        assert!(
            (sum - local).abs() <= 1e-8 + 1e-6 * local.abs(),
            "rank {rank}: compute {compute} + wait {wait} + comm {comm} = {sum} != local {local}"
        );
        max_local = max_local.max(local);

        // Fault-free: no reliability or fault activity.
        let c = |name: &str| {
            r.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
        };
        assert_eq!(c("retransmits"), Some(0));
        assert_eq!(c("dups_suppressed"), Some(0));
        assert_eq!(c("fault_drops"), Some(0));
    }
    assert!(
        (makespan - max_local).abs() <= 1e-8,
        "makespan {makespan} != slowest rank {max_local}"
    );

    // Global conservation: sends == receives, bytes match.
    let total = |name: &str| -> u64 {
        ranks
            .iter()
            .filter_map(|r| {
                r.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_u64)
            })
            .sum()
    };
    assert_eq!(total("messages_sent"), total("messages_received"));
    assert_eq!(total("bytes_sent"), total("bytes_received"));
    assert!(total("messages_sent") > 0, "SOR must communicate");
    assert_eq!(
        total("tiles"),
        total("interior_tiles") + total("boundary_tiles")
    );
    assert!(total("iterations") > 0);
}

#[test]
fn report_reads_a_metrics_file_with_the_retired_writer_queue_gauge() {
    // Metrics files written while the TCP backend still had writer threads
    // carry a sixth gauge, `writer_queue_depth`; `report` reads them, and
    // `--diff` against the same run without it agrees.
    let (_, metrics) = observed_sor();
    let current = TempFile::new("current.json");
    std::fs::write(current.to_str(), metrics.pretty()).unwrap();
    let text = metrics.pretty();
    let older = text.replace(
        "\"gauges\": {",
        "\"gauges\": {\"writer_queue_depth\": {\"value\": 3, \"max\": 64}, ",
    );
    assert_ne!(older, text, "the metrics file has gauges");
    let old = TempFile::new("six-gauges.json");
    std::fs::write(old.to_str(), &older).unwrap();
    let out = run_cli(&args(&["report", old.to_str()])).expect("report loads the older file");
    assert!(out.starts_with("run report: "), "{out}");
    assert!(!out.contains("writer_queue_depth"), "{out}");
    run_cli(&args(&["report", old.to_str(), "--diff", current.to_str()]))
        .expect("the retired gauge is not a difference");
}

/// The perfbench `sor` shape (seed 1): its innermost dependence has lag 1,
/// so its rows batch only in wavefront lane groups, and most of its points
/// must take the batch entry. Its reference scan starts right after
/// `lower`, before the plan is built.
#[test]
fn lag_one_sor_batches_in_lane_groups_and_scans_while_planning() {
    let kernel = TempFile::new("sor.tk");
    std::fs::write(
        &kernel.0,
        "kernel sor
param M = 24
param N = 62
param L = 62
iter t = 1 to M
iter i = 1 to N
iter j = 1 to L
skew = [1,0,0; 1,1,0; 2,0,1]
deps = (0,1,0), (0,0,1), (1,-1,0), (1,0,-1), (1,0,0)
array A = bnd()
A[t,i,j] = 1.1/4*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) + (1 - 1.1)*A[t-1,i,j]
",
    )
    .unwrap();
    let (trace, metrics) = (TempFile::new("trace.json"), TempFile::new("metrics.json"));
    let out = run_cli(&args(&[
        "run",
        kernel.to_str(),
        "--rect",
        "6,30,30",
        "--map",
        "0",
        "--verify",
        "--trace-out",
        trace.to_str(),
        "--metrics-out",
        metrics.to_str(),
    ]))
    .expect("sor run failed");
    assert!(out.contains("verified   : true"), "{out}");
    let metrics = json::parse(&std::fs::read_to_string(&metrics.0).unwrap()).unwrap();
    let ranks = metrics.get("ranks").and_then(Json::as_arr).unwrap();
    let total = |name: &str| -> u64 {
        let counter = |r: &Json| r.get("counters")?.get(name)?.as_u64();
        ranks.iter().filter_map(counter).sum()
    };
    assert_eq!(total("iterations"), 24 * 62 * 62);
    let batched = total("vectorized_points");
    assert!(
        batched * 10 >= total("iterations") * 6,
        "only {batched} of {} points batched",
        total("iterations")
    );
    let trace = json::parse(&std::fs::read_to_string(&trace.0).unwrap()).unwrap();
    let events = complete_events(&trace);
    let start = |name: &str| {
        let named = events
            .iter()
            .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(0))
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no driver `{name}` span"));
        let args = named.get("args").unwrap();
        args.get("wall_start_ns").and_then(Json::as_u64).unwrap()
    };
    assert!(start("verify") <= start("tiled-space"));
}
