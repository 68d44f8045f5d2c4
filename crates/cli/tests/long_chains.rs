//! Long chains: `examples/nests/sor.tk --rect 1,20,20 --map 0` plans 17
//! ranks whose chains hold 1 to 20 tiles. Every rank computes in the same
//! one-tile LDS window, whatever its chain length, and slides it along
//! the chain; the run, and a run that crashes a long chain past its third
//! tile and restores a slid window (in place on the threaded backend,
//! from a respawned worker's checkpoint file on TCP), must equal the
//! sequential execution bitwise. Each check runs on that file and on its
//! twin, the corpus SOR (`examples/kernels/sor.tk`) over the same space;
//! both carry varying, boundary-valued data (`array A = bnd()`), so cells
//! mixed up between tiles or lanes change the result.

use std::process::{Command, Output};
use std::sync::Arc;
use tilecc_cluster::{
    Counter, EngineOptions, MachineModel, MetricsRegistry, Phase, RecoveryOptions,
};
use tilecc_frontend::compile_kernel;
use tilecc_parcode::{execute, Backend, ExecMode, ExecStrategy, ParallelPlan};
use tilecc_tiling::TilingTransform;

const RECT: [i64; 3] = [1, 20, 20];

/// `examples/nests/sor.tk` and its varying-data twin, by name.
fn kernels() -> [(&'static str, String); 2] {
    let read = |path: &str| {
        let root = env!("CARGO_MANIFEST_DIR");
        std::fs::read_to_string(format!("{root}/../../examples/{path}")).unwrap()
    };
    let twin = read("kernels/sor.tk")
        .replace("param M = 8", "param M = 20")
        .replace("param N = 12", "param N = 40");
    [
        ("nests/sor.tk", read("nests/sor.tk")),
        ("kernels/sor.tk", twin),
    ]
}

fn plan(src: &str) -> Arc<ParallelPlan> {
    let rect = TilingTransform::rectangular(&RECT).unwrap();
    let plan = ParallelPlan::new(compile_kernel(src).unwrap(), rect, Some(0)).unwrap();
    assert_eq!(plan.num_procs(), 17);
    Arc::new(plan)
}

/// The rank with the longest chain and its length.
fn longest_chain(plan: &ParallelPlan) -> (usize, i64) {
    let lens = plan.dist.chains.iter().map(|&(lo, hi)| hi - lo + 1);
    let (rank, len) = lens.enumerate().max_by_key(|&(_, len)| len).unwrap();
    (rank, len)
}

fn run(
    plan: &Arc<ParallelPlan>,
    mode: ExecMode,
    options: EngineOptions,
) -> tilecc_parcode::ExecutionResult {
    let model = MachineModel::fast_ethernet_p3();
    execute(
        plan.clone(),
        model,
        mode,
        ExecStrategy::Compiled,
        Backend::Threaded,
        options,
    )
    .unwrap()
}

/// Every rank's checkpoint at chain position 0 (the only one, at an
/// interval past every chain) holds the iteration count and the same
/// window; the 20-tile rank's window is at least 4x below its
/// whole-chain box; and the run equals the sequential execution.
#[test]
fn every_chain_length_runs_in_one_window() {
    for (name, src) in kernels() {
        one_window(&plan(&src), name);
    }
}

fn one_window(plan: &Arc<ParallelPlan>, name: &str) {
    let (_, longest) = longest_chain(plan);
    assert_eq!(longest, 20);
    assert!(
        plan.dist.chains.iter().any(|&(lo, hi)| lo == hi),
        "a one-tile chain"
    );

    let options = EngineOptions {
        recovery: Some(RecoveryOptions {
            interval: 64,
            max_recoveries: 1,
        }),
        ..EngineOptions::default()
    };
    let res = run(plan, ExecMode::Full, options);
    let window = plan.lds().values().len() as u64;
    for (rank, stats) in res.report.stats.iter().enumerate() {
        assert_eq!(stats.counter(Counter::CkptWrites), 1, "{name} rank {rank}");
        assert_eq!(
            stats.counter(Counter::CkptBytes),
            8 + 8 * window,
            "{name} rank {rank}"
        );
    }

    // The paper's LDS box of a 20-tile chain.
    let whole: i64 = plan.geo.chain_box(longest).iter().product();
    let w = plan.algorithm.width() as i64;
    assert!(
        whole * w >= 4 * window as i64,
        "the whole-chain box of {whole} cells is under 4x the window of {window} values"
    );

    let seq = plan.algorithm.execute_sequential();
    assert_eq!(seq.diff(res.data.as_ref().unwrap()), None, "{name}");
}

fn tilecc(args: &[&str]) -> Output {
    tilecc_env(args, &[])
}

fn tilecc_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_tilecc"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn tilecc");
    assert!(
        out.status.success(),
        "tilecc failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn field(out: &Output, key: &str) -> String {
    let out = String::from_utf8_lossy(&out.stdout);
    out.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
        .unwrap_or_else(|| panic!("no `{key}` line in:\n{out}"))
}

/// A threaded crash of the 20-tile rank during its sixth computed tile,
/// with a checkpoint every 2 chain positions, restores a window slid
/// past the chain's start and an output of several tiles, and the run
/// still verifies with the clean run's checksum.
#[test]
fn crash_past_the_third_tile_of_a_long_chain_recovers_bitwise() {
    for (name, src) in kernels() {
        crash_and_recover(&src, name);
    }
}

fn crash_and_recover(src: &str, name: &str) {
    let plan = plan(src);
    let (rank, _) = longest_chain(&plan);
    // The virtual ends of the rank's compute spans, from a timing-only
    // run (the same clocks as a full one).
    let reg = MetricsRegistry::new();
    let options = EngineOptions {
        obs: Some(reg.clone()),
        ..EngineOptions::default()
    };
    run(&plan, ExecMode::TimingOnly, options);
    let mut ends: Vec<f64> = (reg.spans().iter())
        .filter(|s| s.phase == Phase::Compute && s.pid as usize == rank + 1)
        .map(|s| s.virt.expect("a rank span has a virtual interval").1)
        .collect();
    ends.sort_by(f64::total_cmp);
    assert!(ends.len() >= 6, "{} computed tiles", ends.len());
    // During the sixth tile: past the checkpoint at chain position 4, so
    // the crash leaves a window one slide beyond the restored one.
    let at = (ends[4] + ends[5]) / 2.0;

    let file = kernel_file(name, "threaded", src);
    let file_arg = file.to_str().unwrap();
    let base = [
        "run", file_arg, "--rect", "1,20,20", "--map", "0", "--verify",
    ];
    let clean = tilecc(&base);
    let crash = format!("{rank}@{at}");
    let mut args = base.to_vec();
    args.extend(["--crash-rank", &crash, "--on-crash", "recover"]);
    args.extend(["--ckpt-interval", "2"]);
    let recovered = tilecc(&args);
    let _ = std::fs::remove_file(&file);
    let keys = ["processors", "iterations", "checksum"];
    assert_recovered(name, &clean, &recovered, &keys);
}

/// The kernel source written to a fresh temporary file.
fn kernel_file(name: &str, tag: &str, src: &str) -> std::path::PathBuf {
    let file = std::env::temp_dir().join(format!(
        "tilecc-long-chain-{}-{tag}-{}",
        std::process::id(),
        name.replace('/', "-")
    ));
    std::fs::write(&file, src).unwrap();
    file
}

/// One recovery, a verified result, and the clean run's `keys`.
fn assert_recovered(name: &str, clean: &Output, recovered: &Output, keys: &[&str]) {
    assert_eq!(field(recovered, "recoveries"), "1", "{name}");
    assert_eq!(field(recovered, "verified"), "true", "{name}");
    for key in keys {
        assert_eq!(field(clean, key), field(recovered, key), "{name} {key}");
    }
}

/// On the TCP backend the 20-tile rank's worker hard-kills itself right
/// after its third checkpoint (`--ckpt-interval 1`, chain position 2),
/// and the driver respawns the world from the checkpoint files: the
/// rank restores a two-tile output and a window slid two tiles from its
/// TCKP file. Only the varying-data twin runs, since on the fixed-point
/// file a respawn that restored the output but no window verifies too.
#[test]
fn tcp_respawn_restores_a_slid_window_bitwise() {
    let [_, (name, src)] = kernels();
    let plan = plan(&src);
    let (rank, _) = longest_chain(&plan);
    let file = kernel_file(name, "tcp", &src);
    let procs = plan.num_procs().to_string();
    let base = [
        "run",
        file.to_str().unwrap(),
        "--rect",
        "1,20,20",
        "--map",
        "0",
        "--verify",
        "--backend",
        "tcp",
        "--ranks",
        &procs,
    ];
    let clean = tilecc(&base);
    let mut args = base.to_vec();
    args.extend(["--on-crash", "recover", "--ckpt-interval", "1"]);
    let kill = format!("{rank}:3");
    let recovered = tilecc_env(&args, &[("TILECC_CRASH_KILL", &kill)]);
    let _ = std::fs::remove_file(&file);
    let stderr = String::from_utf8_lossy(&recovered.stderr);
    assert!(stderr.contains("restarting the world"), "{stderr}");
    let keys = ["processors", "iterations", "makespan", "checksum"];
    assert_recovered(name, &clean, &recovered, &keys);
}
