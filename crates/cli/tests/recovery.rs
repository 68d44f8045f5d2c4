//! End-to-end crash-recovery tests for `tilecc run --on-crash recover`:
//! a worker killed mid-run — by an injected virtual-time crash or a real
//! SIGKILL — must be respawned from its checkpoint and the run must
//! finish with the same summary as a fault-free run, bitwise checksum
//! and makespan included (worker respawn carries zero recovery debt).

use std::process::{Command, Output};
use tilecc_cluster::obs::json::{self, Json};

fn sor_nest() -> String {
    format!("{}/../../examples/nests/sor.tk", env!("CARGO_MANIFEST_DIR"))
}

fn tilecc_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tilecc"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn tilecc")
}

fn tilecc(args: &[&str]) -> Output {
    tilecc_env(args, &[])
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

/// A clean TCP run of SOR plus its rank count, for comparison.
fn clean_tcp_run() -> (String, String) {
    let nest = sor_nest();
    let threaded = stdout_of(&tilecc(&[
        "run", &nest, "--rect", "4,10,10", "--map", "2", "--verify",
    ]));
    let procs = field(&threaded, "processors").to_string();
    let clean = stdout_of(&tilecc(&[
        "run",
        &nest,
        "--rect",
        "4,10,10",
        "--map",
        "2",
        "--verify",
        "--backend",
        "tcp",
        "--ranks",
        &procs,
    ]));
    (clean, procs)
}

/// Every summary line a fault-free run prints must be reproduced by the
/// recovered run — a respawned worker resumes its virtual clock from the
/// checkpoint, so even the makespan is bitwise identical.
fn assert_recovered_matches_clean(clean: &str, recovered: &str) {
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
            field(clean, key),
            field(recovered, key),
            "`{key}` differs after recovery\n--- clean ---\n{clean}\n--- recovered ---\n{recovered}"
        );
    }
    assert_eq!(field(recovered, "verified"), "true");
    assert_eq!(field(recovered, "recoveries"), "1", "{recovered}");
}

#[test]
fn tcp_injected_crash_recovers_bitwise() {
    let (clean, procs) = clean_tcp_run();
    let nest = sor_nest();
    let recovered = stdout_of(&tilecc(&[
        "run",
        &nest,
        "--rect",
        "4,10,10",
        "--map",
        "2",
        "--verify",
        "--backend",
        "tcp",
        "--ranks",
        &procs,
        "--crash-rank",
        "1",
        "--on-crash",
        "recover",
        "--ckpt-interval",
        "2",
    ]));
    assert_recovered_matches_clean(&clean, &recovered);
}

#[test]
fn tcp_sigkilled_worker_respawns_and_completes_bitwise() {
    let (clean, procs) = clean_tcp_run();
    let nest = sor_nest();
    // Rank 1 hard-kills itself (SIGKILL, no cleanup) right after writing
    // its second checkpoint; the driver must respawn it from that file.
    let recovered = stdout_of(&tilecc_env(
        &[
            "run",
            &nest,
            "--rect",
            "4,10,10",
            "--map",
            "2",
            "--verify",
            "--backend",
            "tcp",
            "--ranks",
            &procs,
            "--on-crash",
            "recover",
            "--ckpt-interval",
            "1",
        ],
        &[("TILECC_CRASH_KILL", "1:2")],
    ));
    assert_recovered_matches_clean(&clean, &recovered);
}

#[test]
fn exhausted_recovery_budget_fails_naming_the_rank() {
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
        "--on-crash",
        "recover",
        "--max-recoveries",
        "0",
    ]);
    assert!(
        !out.status.success(),
        "a crash past the recovery budget must fail the driver"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rank 1"), "{stderr}");
    assert!(stderr.contains("recovery budget exhausted"), "{stderr}");
}

/// The checkpoint directory the driver creates under the temp dir (no
/// `--ckpt-dir`) is gone after a run that exhausts its recovery budget and
/// after one that recovers and finishes.
#[test]
fn driver_checkpoint_dir_is_removed_on_failure_and_success() {
    let nest = sor_nest();
    let tmp = std::env::temp_dir().join(format!("tilecc-tmpdir-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let tmpdir = tmp.to_str().unwrap();
    let leftovers = || -> Vec<String> {
        let entries = std::fs::read_dir(&tmp).unwrap();
        let names = entries.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
        names.filter(|n| n.starts_with("tilecc-ckpt-")).collect()
    };
    let run = |budget: &str| {
        tilecc_env(
            &[
                "run",
                &nest,
                "--rect",
                "4,10,10",
                "--map",
                "2",
                "--verify",
                "--backend",
                "tcp",
                "--crash-rank",
                "1",
                "--on-crash",
                "recover",
                "--max-recoveries",
                budget,
            ],
            &[("TMPDIR", tmpdir)],
        )
    };
    let failed = run("0");
    assert!(
        !failed.status.success(),
        "the budget of 0 must fail the run"
    );
    assert_eq!(leftovers(), Vec::<String>::new(), "after a failed run");
    let recovered = stdout_of(&run("1"));
    assert_eq!(field(&recovered, "recoveries"), "1", "{recovered}");
    assert_eq!(leftovers(), Vec::<String>::new(), "after a recovered run");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn recovered_tcp_run_counts_its_recovery_in_the_merged_metrics() {
    // The CI recovery-smoke run, with the driver-merged metrics written.
    let nest = sor_nest();
    let metrics = std::env::temp_dir().join(format!(
        "tilecc-recovery-{}-metrics.json",
        std::process::id()
    ));
    let m = metrics.to_str().unwrap();
    let out = tilecc_env(
        &[
            "run",
            &nest,
            "--rect",
            "5,60,80",
            "--map",
            "0",
            "--backend",
            "tcp",
            "--ranks",
            "4",
            "--verify",
            "--on-crash",
            "recover",
            "--ckpt-interval",
            "1",
            "--metrics-out",
            m,
        ],
        &[("TILECC_CRASH_KILL", "1:1")],
    );
    let report = std::fs::read_to_string(m);
    let rendered = tilecc(&["report", m]);
    let _ = std::fs::remove_file(&metrics);
    for r in 0..4 {
        let _ = std::fs::remove_file(format!("{m}.rank{r}"));
    }
    let out = stdout_of(&out);
    assert_eq!(field(&out, "recoveries"), "1", "{out}");
    let report = json::parse(&report.expect("merged metrics")).expect("merged metrics parse");
    let recoveries: u64 = report
        .get("ranks")
        .and_then(Json::as_arr)
        .expect("ranks")
        .iter()
        .map(|r| {
            r.get("counters")
                .and_then(|c| c.get("recoveries"))
                .and_then(Json::as_u64)
                .expect("a recoveries counter")
        })
        .sum();
    assert_eq!(
        recoveries.to_string(),
        field(&out, "recoveries"),
        "the merged metrics must count the recovery the summary printed"
    );
    // `report` re-renders the printed block, recovery line included.
    let rendered = stdout_of(&rendered);
    assert!(rendered.contains("recovery   : 1 recoveries"), "{rendered}");
    let printed = &out[out.find("run report:").expect("report block")..];
    assert_eq!(rendered, printed);
}

/// Offset of the `app` length in a `TCKP` file: magic (4), version (2),
/// chain position (8).
const CKPT_APP_LEN_AT: usize = 14;

/// Resume a lone worker of a one-processor plan from a checkpoint whose
/// rank state (the `app` blob) `edit` rewrote. The test is the driver: it
/// serves the rendezvous and returns the worker's output.
fn resume_with_rank_state(tag: &str, edit: impl Fn(&[u8]) -> Vec<u8>) -> Output {
    let nest = sor_nest();
    let dir =
        std::env::temp_dir().join(format!("tilecc-ckpt-corrupt-{}-{tag}", std::process::id()));
    let d = dir.to_str().unwrap();
    let run = [
        "run",
        &nest,
        "--rect",
        "4,100,100",
        "--map",
        "0",
        "--verify",
    ];
    let mut clean = run.to_vec();
    clean.extend(["--backend", "tcp", "--on-crash", "recover"]);
    clean.extend(["--ckpt-interval", "1", "--ckpt-dir", d]);
    assert_eq!(field(&stdout_of(&tilecc(&clean)), "processors"), "1");

    let path = dir.join("rank0.ckpt");
    let bytes = std::fs::read(&path).expect("the run leaves its checkpoint");
    let at = CKPT_APP_LEN_AT;
    let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let state = edit(&bytes[at + 8..at + 8 + len]);
    let mut corrupt = bytes[..at].to_vec();
    corrupt.extend_from_slice(&(state.len() as u64).to_le_bytes());
    corrupt.extend_from_slice(&state);
    corrupt.extend_from_slice(&bytes[at + 8 + len..]);
    std::fs::write(&path, corrupt).unwrap();

    let rendezvous = tilecc_cluster::Rendezvous::bind().unwrap();
    let addr = rendezvous.addr().to_string();
    let serve =
        std::thread::spawn(move || rendezvous.coordinate(1, std::time::Duration::from_secs(20)));
    let mut worker = run.to_vec();
    worker.extend(["--worker-rank", "0", "--connect", &addr]);
    worker.extend(["--ckpt-dir", d, "--resume"]);
    let out = tilecc(&worker);
    // The control connection stays open until the worker is gone.
    drop(serve.join().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn resuming_from_a_malformed_rank_state_fails_naming_rank_and_checkpoint() {
    type Edit = fn(&[u8]) -> Vec<u8>;
    let cases: [(&str, Edit, &str); 3] = [
        (
            "short",
            |s| s[..3].to_vec(),
            "truncated rank state: 3 bytes",
        ),
        ("less", |s| s[..s.len() - 8].to_vec(), "the rank's LDS of"),
        ("more", |s| [s, &[0; 8]].concat(), "the rank's LDS of"),
    ];
    for (tag, edit, why) in cases {
        let out = resume_with_rank_state(tag, edit);
        assert!(!out.status.success(), "a malformed checkpoint must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("worker rank 0 failed"), "{stderr}");
        assert!(
            stderr.contains("rank 0: cannot restore the checkpoint at chain position"),
            "{stderr}"
        );
        assert!(stderr.contains(why), "{stderr}");
    }
}
