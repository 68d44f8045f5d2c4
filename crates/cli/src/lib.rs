//! # tilecc-cli
//!
//! The command-line face of the framework — the analogue of the paper's
//! "tool which automatically generates MPI code":
//!
//! ```text
//! tilecc parse  sor.tk                            # inspect the parsed model
//! tilecc cone   sor.tk                            # tiling cone extreme rays
//! tilecc plan   sor.tk --tile "1/4,0,0;0,1/4,0;-1/4,0,1/4" [--map 2]
//! tilecc run    sor.tk --rect 4,4,4 [--verify] [--strategy overlapped]
//! tilecc run    --kernel heat3d.tk --rect 4,4,4,4 # explicit input spelling
//! tilecc emit   sor.tk --tile … > generated.c     # C/MPI source
//! ```
//!
//! Inputs are `.tk` kernel-DSL files (arbitrary uniform-dependence
//! stencils, one or more arrays; see `docs/kernel-dsl.md`), parsed once and
//! lowered both to the executable algorithm and, for `emit`, to C.
//! `--kernel <file>` is an alias for the positional path.
//!
//! All logic lives in [`run_cli`] so it is directly testable; the binary is
//! a thin wrapper.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;
use tilecc::{Pipeline, Reference, RunSummary, TuneOptions};
use tilecc_cluster::obs::json::Json;
use tilecc_cluster::obs::RunReport as MetricsReport;
use tilecc_cluster::{
    collect_workers, run_worker, CommError, CommScheme, Counter, EngineOptions, FaultPlan,
    MachineModel, MetricsRegistry, Phase, RankPhase, RankTelemetry, RecoveryOptions, Rendezvous,
    RunError, StatsSnapshot, WorkerCkptConfig, WorkerConfig, WorkerReport, HEARTBEAT_PERIOD,
};
use tilecc_frontend::KernelProgram;
use tilecc_linalg::{RMat, Rational};
use tilecc_loopnest::{Algorithm, CountError, DataSpace};
use tilecc_parcode::{
    decode_rank_state, encode_rank_state, run_rank, Backend, ExecMode, ExecStrategy, RankOutput,
};
use tilecc_tiling::tiling_cone_rays;

/// CLI error: message for the user, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Crash policy (`--on-crash`): fail the run, or recover from per-rank
/// checkpoints — rewinding in place on the threaded backend, restarting
/// the world from checkpoint files on the TCP backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OnCrash {
    /// A crashed rank fails the whole run (the default).
    Fail,
    /// Checkpoint every `--ckpt-interval` chain steps and recover crashed
    /// ranks, bounded by the `--max-recoveries` budget.
    Recover,
}

/// Parsed command-line options.
struct Options {
    tile: Option<RMat>,
    map: Option<usize>,
    verify: bool,
    /// Tile execution strategy and comm scheme (`--strategy`): how each
    /// rank walks and communicates its tiles. `overlapped` is the compiled
    /// strategy under the overlapped scheme, which splits each tile.
    strategy: ExecStrategy,
    scheme: CommScheme,
    model: MachineModel,
    /// Seed for deterministic fault injection (`--fault-seed`).
    fault_seed: Option<u64>,
    /// Per-attempt message drop probability (`--drop-rate`).
    drop_rate: Option<f64>,
    /// Rank to crash, with an optional `rank@time` virtual crash time
    /// (`--crash-rank`).
    crash: Option<(usize, f64)>,
    /// Write a Chrome trace-event JSON here (`--trace-out`).
    trace_out: Option<String>,
    /// Write the aggregated metrics JSON here (`--metrics-out`).
    metrics_out: Option<String>,
    /// Render a live per-rank telemetry table on stderr while the TCP
    /// driver collects results (`--live`).
    live: bool,
    /// Append newline-delimited telemetry snapshots here while the TCP
    /// driver runs (`--stats-out`).
    stats_out: Option<String>,
    /// Cluster backend carrying the messages (`--backend`).
    backend: Backend,
    /// Expected worker-process count for the TCP backend (`--ranks`).
    ranks: Option<usize>,
    /// Internal: run as TCP worker process for this rank (`--worker-rank`).
    worker_rank: Option<usize>,
    /// Internal: the driver's rendezvous `host:port` (`--connect`).
    connect: Option<String>,
    /// Crash policy (`--on-crash`).
    on_crash: OnCrash,
    /// Run-wide restore budget under `--on-crash recover`
    /// (`--max-recoveries`).
    max_recoveries: u64,
    /// Chain steps between checkpoints (`--ckpt-interval`).
    ckpt_interval: u64,
    /// Worker mesh listener bind address (`--bind-addr`).
    bind_addr: Option<String>,
    /// Worker heartbeat cadence in milliseconds (`--heartbeat-ms`).
    heartbeat_ms: Option<u64>,
    /// Driver-side dead-peer timeout in milliseconds (`--peer-timeout-ms`);
    /// `None` relies on socket EOF alone to detect dead workers.
    peer_timeout_ms: Option<u64>,
    /// Internal: directory holding per-rank checkpoint files (`--ckpt-dir`).
    ckpt_dir: Option<String>,
    /// Internal: restore the worker from its checkpoint file (`--resume`).
    resume: bool,
    /// Internal: restores this worker's rank has undergone (`--recovered`).
    recovered: u64,
}

impl Options {
    /// The fault plan implied by the fault flags, if any were given.
    fn fault_plan(&self) -> Option<FaultPlan> {
        if self.fault_seed.is_none() && self.drop_rate.is_none() && self.crash.is_none() {
            return None;
        }
        let mut plan =
            FaultPlan::lossy(self.fault_seed.unwrap_or(0), self.drop_rate.unwrap_or(0.0));
        if let Some((rank, at)) = self.crash {
            plan = plan.with_crash(rank, at);
        }
        Some(plan)
    }

    /// The engine-level recovery policy implied by `--on-crash`.
    fn recovery_options(&self) -> Option<RecoveryOptions> {
        (self.on_crash == OnCrash::Recover).then(|| RecoveryOptions {
            interval: self.ckpt_interval.max(1),
            max_recoveries: self.max_recoveries,
        })
    }
}

/// Parse `--crash-rank`'s `<rank>` or `<rank>@<time>` value.
fn parse_crash_spec(spec: &str) -> Result<(usize, f64), CliError> {
    let (rank_s, at_s) = match spec.split_once('@') {
        Some((r, t)) => (r, Some(t)),
        None => (spec, None),
    };
    let rank: usize = rank_s
        .trim()
        .parse()
        .map_err(|_| CliError(format!("invalid --crash-rank rank `{rank_s}`")))?;
    let at = match at_s.map(str::trim) {
        None => 0.0,
        Some(t) => match t.parse::<f64>() {
            Ok(at) if at.is_finite() && at >= 0.0 => at,
            Ok(_) => return err(format!("--crash-rank time `{t}` must be finite and >= 0")),
            Err(_) => return err(format!("invalid --crash-rank time `{t}`")),
        },
    };
    Ok((rank, at))
}

/// Parse a tiling matrix specification: rows separated by `;`, entries by
/// `,`, each entry `a`, `-a`, `a/b` or `-a/b`.
pub fn parse_tile_spec(spec: &str) -> Result<RMat, CliError> {
    let rows: Vec<&str> = spec.split(';').map(str::trim).collect();
    if rows.is_empty() {
        return err("empty tile specification");
    }
    let mut parsed: Vec<Vec<Rational>> = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut out = vec![];
        for entry in row.split(',') {
            let entry = entry.trim();
            let r = match entry.split_once('/') {
                Some((num, den)) => {
                    let n: i128 = num
                        .trim()
                        .parse()
                        .map_err(|_| CliError(format!("invalid numerator `{num}` in tile spec")))?;
                    let d: i128 = den.trim().parse().map_err(|_| {
                        CliError(format!("invalid denominator `{den}` in tile spec"))
                    })?;
                    if d == 0 {
                        return err("zero denominator in tile spec");
                    }
                    Rational::new(n, d)
                }
                None => {
                    let n: i128 = entry
                        .parse()
                        .map_err(|_| CliError(format!("invalid entry `{entry}` in tile spec")))?;
                    Rational::new(n, 1)
                }
            };
            out.push(r);
        }
        parsed.push(out);
    }
    let n = parsed.len();
    if parsed.iter().any(|r| r.len() != n) {
        return err("tile matrix must be square (rows `;`-separated, entries `,`-separated)");
    }
    Ok(RMat::from_fn(n, n, |i, j| parsed[i][j]))
}

/// Parse `--rect x,y,z` into a diagonal tiling matrix.
pub fn parse_rect_spec(spec: &str) -> Result<RMat, CliError> {
    let sizes: Result<Vec<i64>, _> = spec.split(',').map(|s| s.trim().parse::<i64>()).collect();
    let sizes = sizes.map_err(|_| CliError(format!("invalid --rect sizes `{spec}`")))?;
    if sizes.iter().any(|&s| s <= 0) {
        return err("--rect sizes must be positive");
    }
    let n = sizes.len();
    Ok(RMat::from_fn(n, n, |i, j| {
        if i == j {
            Rational::new(1, sizes[i] as i128)
        } else {
            Rational::ZERO
        }
    }))
}

/// Parsed `tune` options: tuner configuration plus CLI-only presentation.
struct TuneCliOptions {
    opts: TuneOptions,
    /// Ranking rows to print (`--top`).
    top: usize,
    /// Write the machine-readable outcome here (`--json`).
    json_out: Option<String>,
}

fn parse_tune_options(args: &[String], n: usize) -> Result<TuneCliOptions, CliError> {
    let mut volume: Option<i64> = None;
    let mut m = 0usize;
    let mut include: Vec<RMat> = vec![];
    let mut top = 10usize;
    let mut max_candidates = 128usize;
    let mut json_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |what: &str| {
            args.get(i + 1)
                .ok_or_else(|| CliError(format!("{} needs {what}", args[i])))
        };
        match args[i].as_str() {
            "--volume" => {
                let v: i64 = value("a tile volume")?
                    .parse()
                    .map_err(|_| CliError("--volume must be an integer".into()))?;
                if v <= 0 {
                    return err("--volume must be positive");
                }
                volume = Some(v);
                i += 2;
            }
            "--map" => {
                m = value("a dimension index")?
                    .parse()
                    .map_err(|_| CliError("--map must be a dimension index".into()))?;
                i += 2;
            }
            "--tile" => {
                include.push(parse_tile_spec(value("a tiling matrix")?)?);
                i += 2;
            }
            "--rect" => {
                include.push(parse_rect_spec(value("edge sizes")?)?);
                i += 2;
            }
            "--top" => {
                top = value("a row count")?
                    .parse()
                    .map_err(|_| CliError("--top must be an integer".into()))?;
                i += 2;
            }
            "--max-candidates" => {
                max_candidates = value("a candidate count")?
                    .parse()
                    .map_err(|_| CliError("--max-candidates must be an integer".into()))?;
                i += 2;
            }
            "--json" => {
                json_out = Some(value("a file path")?.clone());
                i += 2;
            }
            other => return err(format!("unknown tune option `{other}`")),
        }
    }
    let volume = volume.ok_or(CliError("tune needs --volume <n>".into()))?;
    if m >= n {
        return err(format!("--map {m} out of range for a {n}-dimensional nest"));
    }
    for h in &include {
        if h.rows() != n {
            return err(format!(
                "seed tile matrix is {}×{} but the nest is {n}-dimensional",
                h.rows(),
                h.cols()
            ));
        }
    }
    let mut opts = TuneOptions::new(volume, m);
    opts.max_candidates = max_candidates;
    opts.include = include;
    Ok(TuneCliOptions {
        opts,
        top,
        json_out,
    })
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options {
        tile: None,
        map: None,
        verify: false,
        strategy: ExecStrategy::default(),
        scheme: CommScheme::Blocking,
        model: MachineModel::fast_ethernet_p3(),
        fault_seed: None,
        drop_rate: None,
        crash: None,
        trace_out: None,
        metrics_out: None,
        live: false,
        stats_out: None,
        backend: Backend::default(),
        ranks: None,
        worker_rank: None,
        connect: None,
        on_crash: OnCrash::Fail,
        max_recoveries: 1,
        ckpt_interval: 4,
        bind_addr: None,
        heartbeat_ms: None,
        peer_timeout_ms: None,
        ckpt_dir: None,
        resume: false,
        recovered: 0,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tile" => {
                let spec = args
                    .get(i + 1)
                    .ok_or(CliError("--tile needs a value".into()))?;
                o.tile = Some(parse_tile_spec(spec)?);
                i += 2;
            }
            "--rect" => {
                let spec = args
                    .get(i + 1)
                    .ok_or(CliError("--rect needs a value".into()))?;
                o.tile = Some(parse_rect_spec(spec)?);
                i += 2;
            }
            "--map" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--map needs a value".into()))?;
                o.map = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("invalid --map value `{v}`")))?,
                );
                i += 2;
            }
            "--verify" => {
                o.verify = true;
                i += 1;
            }
            "--strategy" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--strategy needs a value".into()))?;
                (o.strategy, o.scheme) = match v.as_str() {
                    "compiled" => (ExecStrategy::Compiled, CommScheme::Blocking),
                    "reference" => (ExecStrategy::Reference, CommScheme::Blocking),
                    "overlapped" => (ExecStrategy::Compiled, CommScheme::Overlapped),
                    other => {
                        return err(format!(
                            "unknown --strategy `{other}` (expected compiled, reference, or overlapped)"
                        ))
                    }
                };
                i += 2;
            }
            "--zero-comm" => {
                o.model = MachineModel::zero_comm(o.model.compute_per_iter);
                i += 1;
            }
            "--fault-seed" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--fault-seed needs a value".into()))?;
                o.fault_seed = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("invalid --fault-seed value `{v}`")))?,
                );
                i += 2;
            }
            "--drop-rate" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--drop-rate needs a value".into()))?;
                let rate: f64 = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid --drop-rate value `{v}`")))?;
                if !(0.0..1.0).contains(&rate) {
                    return err("--drop-rate must be in [0, 1)");
                }
                o.drop_rate = Some(rate);
                i += 2;
            }
            "--crash-rank" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--crash-rank needs a value".into()))?;
                o.crash = Some(parse_crash_spec(v)?);
                i += 2;
            }
            "--backend" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--backend needs a value".into()))?;
                o.backend = match v.as_str() {
                    "threaded" => Backend::Threaded,
                    "tcp" => Backend::Tcp,
                    other => {
                        return err(format!(
                            "unknown --backend `{other}` (expected threaded or tcp)"
                        ))
                    }
                };
                i += 2;
            }
            "--ranks" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--ranks needs a value".into()))?;
                o.ranks = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("invalid --ranks value `{v}`")))?,
                );
                i += 2;
            }
            "--worker-rank" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--worker-rank needs a value".into()))?;
                o.worker_rank = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("invalid --worker-rank value `{v}`")))?,
                );
                i += 2;
            }
            "--connect" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--connect needs a host:port value".into()))?;
                o.connect = Some(v.clone());
                i += 2;
            }
            "--on-crash" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--on-crash needs a value".into()))?;
                o.on_crash = match v.as_str() {
                    "fail" => OnCrash::Fail,
                    "recover" => OnCrash::Recover,
                    other => {
                        return err(format!(
                            "unknown --on-crash `{other}` (expected fail or recover)"
                        ))
                    }
                };
                i += 2;
            }
            "--max-recoveries" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--max-recoveries needs a value".into()))?;
                o.max_recoveries = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid --max-recoveries value `{v}`")))?;
                i += 2;
            }
            "--ckpt-interval" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--ckpt-interval needs a value".into()))?;
                let k: u64 = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid --ckpt-interval value `{v}`")))?;
                if k == 0 {
                    return err("--ckpt-interval must be at least 1");
                }
                o.ckpt_interval = k;
                i += 2;
            }
            "--bind-addr" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--bind-addr needs a host:port value".into()))?;
                o.bind_addr = Some(v.clone());
                i += 2;
            }
            "--heartbeat-ms" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--heartbeat-ms needs a value".into()))?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid --heartbeat-ms value `{v}`")))?;
                if ms == 0 {
                    return err("--heartbeat-ms must be at least 1");
                }
                o.heartbeat_ms = Some(ms);
                i += 2;
            }
            "--peer-timeout-ms" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--peer-timeout-ms needs a value".into()))?;
                o.peer_timeout_ms = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("invalid --peer-timeout-ms value `{v}`")))?,
                );
                i += 2;
            }
            "--ckpt-dir" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--ckpt-dir needs a directory".into()))?;
                o.ckpt_dir = Some(v.clone());
                i += 2;
            }
            "--resume" => {
                o.resume = true;
                i += 1;
            }
            "--recovered" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--recovered needs a value".into()))?;
                o.recovered = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid --recovered value `{v}`")))?;
                i += 2;
            }
            "--trace-out" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--trace-out needs a file path".into()))?;
                o.trace_out = Some(v.clone());
                i += 2;
            }
            "--metrics-out" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--metrics-out needs a file path".into()))?;
                o.metrics_out = Some(v.clone());
                i += 2;
            }
            "--live" => {
                o.live = true;
                i += 1;
            }
            "--stats-out" => {
                let v = args
                    .get(i + 1)
                    .ok_or(CliError("--stats-out needs a file path".into()))?;
                o.stats_out = Some(v.clone());
                i += 2;
            }
            other => return err(format!("unknown option `{other}`")),
        }
    }
    if let Some(timeout) = o.peer_timeout_ms {
        // A worker is silent for up to one heartbeat period while healthy.
        let heartbeat = o
            .heartbeat_ms
            .unwrap_or(HEARTBEAT_PERIOD.as_millis() as u64);
        if timeout <= heartbeat {
            return err(format!(
                "--peer-timeout-ms {timeout} must exceed the {heartbeat} ms heartbeat \
                 cadence (--heartbeat-ms), or healthy workers are declared dead"
            ));
        }
    }
    Ok(o)
}

/// Parse a kernel file and lower it. Errors carry `line:col` and render a
/// caret snippet.
fn load(path: &str) -> Result<(KernelProgram, Algorithm), CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    let program =
        tilecc_frontend::parse_kernel(&src).map_err(|e| CliError(e.render(path, &src)))?;
    let alg = tilecc_frontend::tk::lower_kernel(&program);
    Ok((program, alg))
}

/// The input file of a command: either the first positional argument or the
/// explicit `--kernel <file>` form. Returns the path and the index where
/// the remaining options start.
fn input_path(args: &[String]) -> Result<(&str, usize), CliError> {
    match args.get(1).map(String::as_str) {
        Some("--kernel") => args
            .get(2)
            .map(|p| (p.as_str(), 3))
            .ok_or_else(|| CliError("--kernel needs a file path".into())),
        Some(p) => Ok((p, 2)),
        None => Err(CliError(USAGE.into())),
    }
}

/// Build the C kernel/boundary source from the parsed kernel: one C
/// expression per array, `let` bindings computed once at the top of
/// `kernel()`. The generated code iterates in skewed coordinates, so the
/// prelude computes the original coordinates `jo` through the inverse
/// skewing matrix (or aliases `j` when there is no skew).
fn kernel_source(program: &KernelProgram) -> tilecc_parcode::KernelSource {
    let n = program.dim();
    let mut prelude = match &program.skew {
        None => "    const long *jo = j;\n".to_string(),
        Some(rows) => {
            let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            let tinv = tilecc_linalg::IMat::from_rows(&refs).inverse().to_imat();
            let coords: Vec<String> = (0..n)
                .map(|r| {
                    let terms: Vec<String> = (0..n)
                        .filter(|&k| tinv[(r, k)] != 0)
                        .map(|k| format!("({}L * j[{k}])", tinv[(r, k)]))
                        .collect();
                    if terms.is_empty() {
                        "0".to_string()
                    } else {
                        terms.join(" + ")
                    }
                })
                .collect();
            format!("    const long jo[{n}] = {{{}}};\n", coords.join(", "))
        }
    };
    prelude.push_str("    (void)jo;");
    let mut body = vec![String::new(); program.width()];
    for s in &program.stmts {
        body[s.array] = program.c_expr(&s.rhs);
    }
    tilecc_parcode::KernelSource {
        prelude,
        lets: program.c_lets(),
        body,
        boundary: program
            .arrays
            .iter()
            .map(|a| program.c_expr(&a.init))
            .collect(),
    }
}

/// Load a saved `tilecc-metrics-v1` report (written by `--metrics-out`).
fn load_report(path: &str) -> Result<MetricsReport, CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    MetricsReport::from_json(&src).map_err(|e| CliError(format!("{path}: {e}")))
}

/// How long the TCP driver waits for every worker to reach the rendezvous.
const RENDEZVOUS_DEADLINE: Duration = Duration::from_secs(30);
/// Wall-clock cap on a whole multi-process run (driver side).
const DRIVER_WALL_CAP: Duration = Duration::from_secs(300);
/// How often the TCP driver checks for workers that died before reaching
/// the rendezvous.
const STARTUP_POLL: Duration = Duration::from_millis(10);

/// Print the run summary lines shared by every backend. `checksum` is the
/// gathered data-space checksum (full-mode runs only); printing it lets two
/// backends be compared for bitwise-identical results from their stdout.
fn render_run_summary(
    out: &mut String,
    opts: &Options,
    summary: &RunSummary,
    checksum: Option<f64>,
) -> Result<(), CliError> {
    if opts.scheme == CommScheme::Overlapped {
        let _ = writeln!(out, "strategy   : Overlapped");
    } else if opts.strategy != ExecStrategy::default() {
        let _ = writeln!(out, "strategy   : {:?}", opts.strategy);
    }
    if opts.backend == Backend::Tcp {
        let _ = writeln!(out, "backend    : tcp ({} worker processes)", summary.procs);
    }
    let _ = writeln!(out, "processors : {}", summary.procs);
    let _ = writeln!(out, "iterations : {}", summary.iterations);
    let _ = writeln!(out, "seq time   : {:.6} s", summary.sequential_time);
    let _ = writeln!(out, "makespan   : {:.6} s", summary.makespan);
    let _ = writeln!(out, "speedup    : {:.3}", summary.speedup);
    let _ = writeln!(out, "messages   : {}", summary.messages);
    let _ = writeln!(out, "bytes      : {}", summary.bytes);
    if summary.retransmissions > 0 || summary.duplicates_suppressed > 0 {
        let _ = writeln!(out, "retransmits: {}", summary.retransmissions);
        let _ = writeln!(out, "dups suppr : {}", summary.duplicates_suppressed);
    }
    if summary.recoveries > 0 {
        let _ = writeln!(out, "recoveries : {}", summary.recoveries);
        let _ = writeln!(out, "rec time   : {:.6} s", summary.recovery_time);
    }
    if let Some(c) = checksum {
        let _ = writeln!(out, "checksum   : {:016x}", c.to_bits());
    }
    if let Some(v) = summary.verified {
        let _ = writeln!(out, "verified   : {v}");
        if !v {
            return err("verification FAILED: parallel result differs");
        }
    }
    Ok(())
}

/// The fault plan and execution mode implied by the run flags — identical
/// for the worker, the driver, and the in-process path so every backend
/// executes the same program.
fn engine_setup(opts: &Options) -> (Option<FaultPlan>, ExecMode) {
    let fault = opts.fault_plan();
    let mode = if opts.verify || fault.is_some() {
        ExecMode::Full
    } else {
        ExecMode::TimingOnly
    };
    (fault, mode)
}

/// Run as a TCP worker process (`--worker-rank R --connect host:port`):
/// recompile the plan deterministically, execute this rank's chain over the
/// socket mesh, report the `RESULT` frame, and wait for the driver's `BYE`.
/// Failures exit nonzero with the typed [`tilecc_cluster::RunError`] text
/// naming the implicated rank.
fn tcp_worker(
    pipe: &Pipeline,
    opts: &Options,
    rank: usize,
    reg: Option<Arc<MetricsRegistry>>,
) -> Result<String, CliError> {
    let Some(connect) = opts.connect.clone() else {
        return err("--worker-rank requires --connect <host:port>");
    };
    let size = pipe.num_procs();
    if rank >= size {
        return err(format!(
            "--worker-rank {rank} out of range for a {size}-processor plan"
        ));
    }
    let (fault, mode) = engine_setup(opts);
    let options = EngineOptions {
        scheme: opts.scheme,
        fault,
        obs: reg.clone(),
        ..EngineOptions::default()
    };
    let mut cfg = WorkerConfig::new(rank, size, connect, opts.model, options);
    if let Some(bind) = &opts.bind_addr {
        cfg.bind_addr = bind.clone();
    }
    if let Some(ms) = opts.heartbeat_ms {
        cfg.heartbeat = Duration::from_millis(ms);
    }
    if let Some(dir) = &opts.ckpt_dir {
        // The driver hands every worker the shared checkpoint directory;
        // each rank owns one file in it.
        cfg.ckpt = Some(WorkerCkptConfig {
            path: std::path::Path::new(dir).join(format!("rank{rank}.ckpt")),
            interval: opts.ckpt_interval.max(1),
            resume: opts.resume,
            recovered: opts.recovered,
        });
    }
    let plan = pipe.plan().clone();
    let strategy = opts.strategy;
    let (result, local_time, stats, handle): (RankOutput, f64, StatsSnapshot, _) =
        run_worker(&cfg, move |comm| run_rank(&plan, comm, mode, strategy)).map_err(|e| {
            CliError(format!(
                "worker rank {rank} failed: {e}\nranks implicated: {:?}",
                e.ranks()
            ))
        })?;
    // The `RESULT` payload is the rank's output in the checkpoints' codec:
    // its owned values, which the driver checks like a threaded run's. The
    // `result` span covers encoding and sending them.
    let t0 = reg.as_ref().map(|r| r.now_ns());
    let payload = encode_rank_state(result.iterations, &result.values);
    let bytes = payload.len() as u64;
    handle
        .send_result(local_time, &stats, payload)
        .map_err(|e| CliError(format!("worker rank {rank}: cannot report result: {e}")))?;
    if let (Some(r), Some(t0)) = (&reg, t0) {
        r.driver_span(Phase::Gather, "result", t0, bytes);
    }
    if let Some(reg) = &reg {
        // Per-worker artifacts: rank metrics live in this process only, so
        // each worker writes `<path>.rank<R>` next to the requested path.
        let mut local_times = vec![0.0; size];
        local_times[rank] = local_time;
        if let Some(path) = &opts.trace_out {
            let p = format!("{path}.rank{rank}");
            std::fs::write(&p, reg.chrome_trace(None).to_string())
                .map_err(|e| CliError(format!("cannot write trace to `{p}`: {e}")))?;
        }
        if let Some(path) = &opts.metrics_out {
            let p = format!("{path}.rank{rank}");
            std::fs::write(&p, reg.run_report(&local_times).to_json().pretty())
                .map_err(|e| CliError(format!("cannot write metrics to `{p}`: {e}")))?;
        }
    }
    handle
        .wait_bye()
        .map_err(|e| CliError(format!("worker rank {rank}: driver went away: {e}")))?;
    // The driver owns stdout; a worker prints nothing on success.
    Ok(String::new())
}

/// Kill and reap every spawned worker — the driver's cleanup on any failure
/// path, so no orphan processes outlive a failed run.
fn kill_children(children: &mut [std::process::Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
    }
    for c in children.iter_mut() {
        let _ = c.wait();
    }
}

/// The rank whose death explains a failed collection, if the failure is
/// attributable to a single crashed worker — the precondition for a
/// restart-the-world recovery. Deadlocks, wall timeouts, and transport
/// failures outside an established link are not recoverable by respawn.
fn crashed_rank_of(e: &RunError) -> Option<usize> {
    match e {
        RunError::RankPanicked { rank, .. } => Some(*rank),
        RunError::Comm {
            error: CommError::PeerDisconnected { rank },
            ..
        } => Some(*rank),
        RunError::Comm {
            error: CommError::Disconnected { peer },
            ..
        } => Some(*peer),
        _ => None,
    }
}

/// Bounded exponential backoff between restart attempts: 200 ms doubling
/// per restart, capped at 2 s.
fn restart_backoff(restarts: u32) -> Duration {
    let ms = 100u64.saturating_mul(1u64 << restarts.min(5));
    Duration::from_millis(ms.min(2000))
}

/// The live-table phase column for one rank's telemetry row.
fn telemetry_phase(t: &RankTelemetry) -> String {
    if t.done {
        return "done".into();
    }
    match t.phase {
        RankPhase::Running => "running".into(),
        RankPhase::Blocked { from, tag } => format!("recv<-{from}#{tag}"),
        RankPhase::Done => "done".into(),
    }
}

/// Render the `--live` per-rank table. When `redraw` lines were drawn
/// before (stderr is a terminal), the cursor jumps back up and overwrites
/// them in place; otherwise the table is appended. Returns the number of
/// lines drawn.
fn render_live_table(ranks: &[RankTelemetry], redraw: usize) -> usize {
    use std::io::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\x1b[2K{:>4}  {:<14} {:>12} {:>6} {:>6} {:>6} {:>12} {:>7} {:>4}",
        "rank", "phase", "clock", "comp%", "wait%", "comm%", "bytes", "retx", "rec"
    );
    for t in ranks {
        let phase = telemetry_phase(t);
        match &t.stats {
            Some(snap) => {
                let clock = snap.local_clock();
                let pct = |v: f64| if clock > 0.0 { 100.0 * v / clock } else { 0.0 };
                let _ = writeln!(
                    s,
                    "\x1b[2K{:>4}  {:<14} {:>12.6} {:>6.1} {:>6.1} {:>6.1} {:>12} {:>7} {:>4}",
                    t.rank,
                    phase,
                    clock,
                    pct(snap.compute_time()),
                    pct(snap.wait_time()),
                    pct(snap.comm_time()),
                    snap.counter(Counter::BytesSent),
                    snap.counter(Counter::Retransmits),
                    snap.counter(Counter::Recoveries),
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "\x1b[2K{:>4}  {:<14} {:>12} (no snapshot yet)",
                    t.rank, phase, "-"
                );
            }
        }
    }
    let lines = ranks.len() + 1;
    let stderr = std::io::stderr();
    let mut h = stderr.lock();
    if redraw > 0 {
        let _ = write!(h, "\x1b[{redraw}A\r");
    }
    let _ = h.write_all(s.as_bytes());
    let _ = h.flush();
    lines
}

/// One `--stats-out` NDJSON record (printed on one line): the driver's
/// wall-clock offset plus every rank's phase, heartbeat progress, and
/// decoded snapshot (clock partition terms and the counters the live table
/// shows).
fn stats_record(wall_ms: u128, ranks: &[RankTelemetry]) -> Json {
    let ranks = ranks.iter().map(|t| {
        let mut fields = vec![
            ("rank", t.rank.into()),
            ("phase", telemetry_phase(t).into()),
            ("progress", t.progress.into()),
            ("seq", t.stats_seq.into()),
        ];
        if let Some(snap) = &t.stats {
            fields.extend([
                ("clock", snap.local_clock().into()),
                ("compute", snap.compute_time().into()),
                ("wait", snap.wait_time().into()),
                ("comm", snap.comm_time().into()),
                ("recovery", snap.recovery_time().into()),
                ("bytes_sent", snap.counter(Counter::BytesSent).into()),
                ("retransmits", snap.counter(Counter::Retransmits).into()),
                ("recoveries", snap.counter(Counter::Recoveries).into()),
                ("ckpt_writes", snap.counter(Counter::CkptWrites).into()),
            ]);
        }
        Json::obj(fields)
    });
    Json::obj([
        ("t_wall_ms", Json::Int(wall_ms as i128)),
        ("ranks", ranks.collect()),
    ])
}

/// A directory removed, with its contents, when the guard drops.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run as the TCP driver: spawn one worker process per rank of the plan,
/// coordinate the rendezvous, collect every `RESULT` (a rank's owned
/// values), check them like a threaded run's, and print the same summary
/// the threaded backend prints.
fn tcp_driver(
    path: &str,
    run_args: &[String],
    pipe: &Pipeline,
    opts: &Options,
    reg: Option<&Arc<MetricsRegistry>>,
    mut out: String,
) -> Result<String, CliError> {
    let size = pipe.num_procs();
    if let Some(r) = opts.ranks {
        if r != size {
            return err(format!(
                "--ranks {r} does not match the plan's {size} processors; \
                 adjust --rect/--tile/--map or drop --ranks"
            ));
        }
    }
    let (_, mode) = engine_setup(opts);
    // The sequential reference scans on its own thread while the workers
    // run; a failed run drops it without waiting.
    let reference = (mode == ExecMode::Full)
        .then(|| Reference::start(pipe.plan(), reg.cloned()))
        .transpose()
        .map_err(|e| CliError(format!("tcp driver: {e}")))?;

    // Respawn this binary once per rank, forwarding the run options and
    // appending the worker coordinates. `TILECC_BIN` overrides the binary
    // for callers embedding `run_cli` outside the installed executable.
    let exe = std::env::var_os("TILECC_BIN")
        .map(|v| Ok(std::path::PathBuf::from(v)))
        .unwrap_or_else(std::env::current_exe)
        .map_err(|e| CliError(format!("cannot locate the tilecc binary: {e}")))?;
    let mut forwarded: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < run_args.len() {
        match run_args[i].as_str() {
            // Workers derive the world size from the plan; the recovery
            // coordinates below are appended per worker by the driver.
            "--ranks" | "--ckpt-dir" | "--recovered" => i += 2,
            "--resume" => i += 1,
            _ => {
                forwarded.push(&run_args[i]);
                i += 1;
            }
        }
    }

    // Under `--on-crash recover` every worker checkpoints into a shared
    // directory, and a dead worker triggers a restart of the whole world
    // from those files (restart-the-world keeps the virtual clocks exact).
    let recover = opts.on_crash == OnCrash::Recover;
    // A directory the driver creates is removed on every exit path, failed
    // runs included; one the user named with `--ckpt-dir` stays.
    let mut owned_ckpt: Option<RemoveOnDrop> = None;
    let ckpt_dir: Option<PathBuf> = if recover {
        static RUN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = opts.ckpt_dir.clone().map(PathBuf::from).unwrap_or_else(|| {
            let dir = std::env::temp_dir().join(format!(
                "tilecc-ckpt-{}-{}",
                std::process::id(),
                RUN_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            owned_ckpt = Some(RemoveOnDrop(dir.clone()));
            dir
        });
        std::fs::create_dir_all(&dir)
            .map_err(|e| CliError(format!("cannot create checkpoint dir {dir:?}: {e}")))?;
        Some(dir)
    } else {
        None
    };
    let peer_timeout = opts.peer_timeout_ms.map(Duration::from_millis);
    let mut recovered: Vec<u64> = vec![0; size];
    let mut budget = opts.max_recoveries;
    let mut restarts: u32 = 0;

    // Telemetry consumers: the STATS frames piggybacked on worker
    // heartbeats feed an in-place `--live` table on stderr and an
    // NDJSON snapshot stream (`--stats-out`). Both persist across
    // restart-the-world recoveries so the stream shows the recovery.
    let mut stats_file = match &opts.stats_out {
        Some(p) => {
            let f = std::fs::File::create(p)
                .map_err(|e| CliError(format!("cannot write stats stream to `{p}`: {e}")))?;
            Some(std::io::BufWriter::new(f))
        }
        None => None,
    };
    let live_tty = {
        use std::io::IsTerminal as _;
        std::io::stderr().is_terminal()
    };
    let run_start = std::time::Instant::now();
    let mut last_seq_sum: u64 = 0;
    let mut live_lines: usize = 0;
    let mut last_live = run_start;

    let (reports, mut children): (Vec<WorkerReport>, Vec<std::process::Child>) = loop {
        let spawn_t0 = reg.map(|r| r.now_ns());
        let rendezvous = Rendezvous::bind().map_err(|e| CliError(format!("tcp driver: {e}")))?;
        let addr = rendezvous.addr().to_string();
        let mut children: Vec<std::process::Child> = Vec::with_capacity(size);
        for (rank, &times_recovered) in recovered.iter().enumerate() {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("run")
                .arg(path)
                .args(forwarded.iter().map(|s| s.as_str()))
                .arg("--worker-rank")
                .arg(rank.to_string())
                .arg("--connect")
                .arg(&addr);
            if let Some(dir) = &ckpt_dir {
                cmd.arg("--ckpt-dir").arg(dir);
                cmd.arg("--recovered").arg(times_recovered.to_string());
                if restarts > 0 {
                    cmd.arg("--resume");
                }
            }
            let spawned = cmd
                .stdin(std::process::Stdio::null())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit())
                .spawn();
            match spawned {
                Ok(c) => children.push(c),
                Err(e) => {
                    kill_children(&mut children);
                    return err(format!("cannot spawn worker rank {rank}: {e}"));
                }
            }
        }
        if let (Some(r), Some(t0)) = (reg, spawn_t0) {
            r.driver_span(Phase::Launch, "spawn", t0, size as u64);
        }
        let rendezvous_t0 = reg.map(|r| r.now_ns());

        // Coordinate the rendezvous on a helper thread while watching for
        // workers that die before ever connecting (bad flags, missing file
        // on a worker's view of the world, immediate crash).
        let (coord_tx, coord_rx) = std::sync::mpsc::channel();
        let builder = std::thread::Builder::new().name("tilecc-rendezvous".into());
        let coordinator = tilecc_cluster::spawn(builder, "rendezvous coordinator", move || {
            let _ = coord_tx.send(rendezvous.coordinate(size, RENDEZVOUS_DEADLINE));
        });
        if let Err(e) = coordinator {
            kill_children(&mut children);
            return err(format!("tcp rendezvous failed: {e}"));
        }
        let controls = loop {
            match coord_rx.recv_timeout(STARTUP_POLL) {
                Ok(controls) => break controls,
                Err(RecvTimeoutError::Disconnected) => {
                    break Err(CommError::Transport {
                        detail: "rendezvous coordinator panicked".into(),
                    })
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
            for (rank, child) in children.iter_mut().enumerate() {
                if let Ok(Some(status)) = child.try_wait() {
                    kill_children(&mut children);
                    return err(format!(
                        "worker rank {rank} exited during startup ({status})"
                    ));
                }
            }
        };
        let controls = match controls {
            Ok(c) => c,
            Err(e) => {
                kill_children(&mut children);
                return err(format!("tcp rendezvous failed: {e}"));
            }
        };
        if let (Some(r), Some(t0)) = (reg, rendezvous_t0) {
            r.driver_span(Phase::Launch, "rendezvous", t0, size as u64);
        }

        let want_obs = opts.live || stats_file.is_some();
        let mut observer = |ranks: &[RankTelemetry]| {
            // Re-render only when a new snapshot actually arrived: the
            // supervisor wakes on every control frame and every few
            // milliseconds, the snapshots tick at `--heartbeat-ms`.
            let seq_sum: u64 = ranks.iter().map(|t| t.stats_seq).sum();
            if seq_sum == last_seq_sum {
                return;
            }
            last_seq_sum = seq_sum;
            if let Some(w) = &mut stats_file {
                use std::io::Write as _;
                let record = stats_record(run_start.elapsed().as_millis(), ranks);
                let _ = writeln!(w, "{record}");
            }
            if opts.live {
                // On a terminal every update redraws in place; a
                // redirected stderr gets an appended table at most twice
                // a second.
                if live_tty {
                    live_lines = render_live_table(ranks, live_lines);
                } else if last_live.elapsed() >= Duration::from_millis(500)
                    || ranks.iter().all(|t| t.done)
                {
                    last_live = std::time::Instant::now();
                    render_live_table(ranks, 0);
                }
            }
        };
        let collected = collect_workers(
            controls,
            Some(DRIVER_WALL_CAP),
            peer_timeout,
            want_obs.then_some(&mut observer as &mut dyn FnMut(&[RankTelemetry])),
        );
        match collected {
            Ok(r) => break (r, children),
            Err(e) => {
                kill_children(&mut children);
                let dead = if recover { crashed_rank_of(&e) } else { None };
                let Some(dead) = dead else {
                    return err(format!(
                        "run failed: {e}\nranks implicated: {:?}",
                        e.ranks()
                    ));
                };
                if budget == 0 {
                    return err(format!(
                        "run failed: {e}\nranks implicated: {:?}\n\
                         recovery budget exhausted after {restarts} restart(s)",
                        e.ranks()
                    ));
                }
                budget -= 1;
                recovered[dead] += 1;
                restarts += 1;
                eprintln!(
                    "tilecc: rank {dead} failed ({e}); \
                     restarting the world from checkpoints (restart {restarts})"
                );
                std::thread::sleep(restart_backoff(restarts));
            }
        }
    };
    // Every result is in; workers exit after the BYE. Reap them so artifact
    // write failures (nonzero exits after reporting) still surface.
    for (rank, child) in children.iter_mut().enumerate() {
        match child.wait() {
            Ok(st) if st.success() => {}
            Ok(st) => {
                return err(format!(
                    "worker rank {rank} exited with {st} after reporting its result"
                ))
            }
            Err(e) => return err(format!("cannot reap worker rank {rank}: {e}")),
        }
    }

    let plan = pipe.plan();
    let local_times: Vec<f64> = reports.iter().map(|r| r.local_time).collect();
    let mut snaps: Vec<StatsSnapshot> = Vec::with_capacity(size);
    let mut outputs: Vec<RankOutput> = Vec::with_capacity(size);
    for rep in reports {
        let malformed =
            |what: &str| CliError(format!("worker rank {} sent a malformed {what}", rep.rank));
        let owned = (mode == ExecMode::Full).then(|| plan.owned_points(rep.rank));
        let mut values = vec![0.0; owned.unwrap_or(0) * plan.algorithm.width()];
        let iterations = decode_rank_state(&rep.payload, &mut values, "output")
            .map_err(|e| malformed(&format!("result payload: {e}")))?;
        outputs.push(RankOutput { values, iterations });
        let snap = rep
            .stats
            .ok_or_else(|| malformed("result: no decodable final STATS frame"))?;
        snaps.push(snap);
    }
    let total_iterations = outputs.iter().map(|o| o.iterations).sum();
    let (verified, parallel) = match reference {
        Some(r) => {
            let (verified, data) = r.check(plan, &outputs, opts.strategy);
            (Some(verified), Some(data))
        }
        None => (None, None),
    };
    let summary = RunSummary::new(&opts.model, &snaps, local_times, total_iterations, verified);
    let checksum = parallel.as_ref().map(DataSpace::checksum);
    render_run_summary(&mut out, opts, &summary, checksum)?;
    if let Some(mut w) = stats_file {
        use std::io::Write as _;
        w.flush().map_err(|e| {
            CliError(format!(
                "cannot write stats stream to `{}`: {e}",
                opts.stats_out.as_deref().unwrap_or("?")
            ))
        })?;
        if let Some(p) = &opts.stats_out {
            let _ = writeln!(out, "stats      : {p}");
        }
    }
    if let (Some(p), Some(reg)) = (&opts.trace_out, reg) {
        // Worker spans stay in the workers' files; the driver's own
        // (lowering, plan, chain lowering, gather, verify) go to the plain
        // path.
        std::fs::write(p, reg.chrome_trace(None).to_string())
            .map_err(|e| CliError(format!("cannot write trace to `{p}`: {e}")))?;
        let _ = writeln!(
            out,
            "trace      : {p} (driver), per-rank {p}.rank0 .. {p}.rank{}",
            size - 1
        );
    }
    if let Some(p) = &opts.metrics_out {
        // Every worker shipped its final absolute snapshot before its
        // RESULT, so the driver can merge one report over all ranks —
        // bitwise identical to the report a threaded run of the same
        // program writes (`tilecc report a --diff b` checks this).
        let merged = MetricsReport::from_snapshots(&snaps, &summary.local_times);
        std::fs::write(p, merged.to_json().pretty())
            .map_err(|e| CliError(format!("cannot write metrics to `{p}`: {e}")))?;
        let _ = writeln!(
            out,
            "metrics    : {p} (driver-merged), per-rank {p}.rank0 .. {p}.rank{}",
            size - 1
        );
        out.push('\n');
        out.push_str(&merged.render());
    }
    Ok(out)
}

fn fmt_matrix(m: &RMat) -> String {
    let mut s = String::new();
    for i in 0..m.rows() {
        let row: Vec<String> = (0..m.cols()).map(|j| m[(i, j)].to_string()).collect();
        let _ = writeln!(s, "  [ {} ]", row.join("  "));
    }
    s
}

const USAGE: &str = "usage: tilecc <command> <kernel.tk> [options]

Inputs are not limited to the built-in workloads: any `.tk` kernel-DSL
file (arbitrary uniform-dependence stencils, multiple arrays, `let`
bindings — see docs/kernel-dsl.md) compiles through the same pipeline,
runs on every backend and strategy, and emits as C/MPI.

commands:
  parse <file>               inspect the parsed loop nest / kernel
  cone  <file>               print the tiling cone's extreme rays
  tune  <file> --volume <n>  search legal tilings of volume n drawn from
                              the tiling cone, rank by modeled makespan
  plan  <file> --tile|--rect print the derived parallelization plan
  run   <file> --tile|--rect simulate on the modelled cluster
  emit  <file> --tile|--rect emit a complete C/MPI program to stdout
  report <metrics.json>       render a saved metrics file as a summary
                              (works for runs of any workload, built-in
                              or `.tk`)
  report <a> --diff <b>       compare two saved metrics files on the
                              deterministic subset (exit nonzero on any
                              mismatch)

options:
  --kernel <file.tk>          explicit input-file spelling (equivalent to
                              passing the path positionally):
                              `tilecc run --kernel f.tk …`
  --tile \"r11,r12;r21,r22\"   tiling matrix H (rows `;`, entries `,`, a/b);
                              for `tune`: a seed candidate that is always
                              evaluated (e.g. the paper's fixed H)
  --rect x,y[,z…]             rectangular tiling of the given edge sizes;
                              for `tune`: a seed candidate
  --map <k>                   mapping dimension (default: longest;
                              `tune` default: 0)
  --volume <n>                tune: target tile volume |det P|
  --top <n>                   tune: ranking rows to print (default 10)
  --max-candidates <n>        tune: cap on simulated generated
                              candidates; seeds are not counted
                              (default 128)
  --json <file>               tune: write the full outcome (winning H,
                              ranking, counters) as JSON
  --verify                    full run, compare against sequential (run)
  --strategy <s>              tile execution strategy: compiled (default),
                              reference, or overlapped — compiled under the
                              overlapped communication scheme, which
                              computes the tile's boundary slab first and
                              hides its sends behind the private interior
                              (run)
  --zero-comm                 zero-cost network model (run)
  --backend <b>               cluster substrate: threaded (default, one
                              thread per rank) or tcp — spawn one worker
                              process per rank, every message over real
                              sockets in the TCMP wire format (run)
  --ranks <n>                 assert the worker-process count for
                              --backend tcp; must equal the plan's
                              processor count (run)
  --worker-rank <r>           internal: run as TCP worker process r
                              (spawned by the driver, not by hand)
  --connect <host:port>       internal: the driver's rendezvous address
                              for --worker-rank
  --fault-seed <s>            seed for deterministic fault injection (run)
  --drop-rate <p>             drop each send attempt with probability p;
                              the reliability layer retransmits (run)
  --crash-rank <r[@t]>        crash rank r at virtual time t >= 0 (default 0) to
                              exercise failure reporting (run)
  --on-crash <fail|recover>   crash policy (default fail): `recover` takes
                              a checkpoint every --ckpt-interval chain
                              steps and survives crashed ranks — rewinding
                              in place on the threaded backend, respawning
                              dead worker processes from their checkpoint
                              files on tcp — with results bitwise identical
                              to a fault-free run (run)
  --max-recoveries <n>        run-wide restore budget for --on-crash
                              recover (default 1) (run)
  --ckpt-interval <k>         chain steps between checkpoints (default 4)
                              (run)
  --bind-addr <host:port>     mesh listener bind address for tcp workers
                              (default 127.0.0.1:0) (run)
  --heartbeat-ms <ms>         worker heartbeat cadence to the driver
                              (default 50) (run)
  --peer-timeout-ms <ms>      driver declares a silent worker dead after
                              this long without control-socket traffic;
                              must exceed --heartbeat-ms
                              (default: socket EOF only) (run)
  --ckpt-dir <dir>            internal: per-rank checkpoint directory
                              (managed by the driver)
  --resume                    internal: restore workers from checkpoints
  --recovered <n>             internal: restores this worker's rank has
                              undergone
  --trace-out <file>          write a Chrome trace-event JSON of the run,
                              loadable in Perfetto / chrome://tracing (run)
  --metrics-out <file>        write the aggregated per-rank metrics JSON
                              (tilecc-metrics-v1; see `tilecc report`); on
                              --backend tcp the driver also merges every
                              worker's final STATS snapshot into one
                              report at this exact path (run)
  --live                      render a live per-rank telemetry table on
                              stderr while the tcp driver waits: phase,
                              virtual clock, compute/wait/comm split,
                              bytes, retransmits, recoveries (run)
  --stats-out <file>          append one newline-delimited JSON telemetry
                              snapshot per heartbeat STATS frame while the
                              tcp driver waits (run)
";

/// Run the CLI. Returns the output text; errors carry user messages.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let mut out = String::new();
    let Some(cmd) = args.first() else {
        return err(USAGE);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            out.push_str(USAGE);
            Ok(out)
        }
        "parse" => {
            let (path, _) = input_path(args)?;
            let (_, alg) = load(path)?;
            let _ = writeln!(out, "algorithm : {}", alg.name);
            let _ = writeln!(out, "dimension : {}", alg.nest.dim());
            let _ = writeln!(out, "components: {}", alg.width());
            match alg.nest.num_points() {
                Ok(points) => {
                    let _ = writeln!(out, "iterations: {points}");
                }
                // Only the count gave up; the nest itself may still run.
                Err(e @ CountError::TooManyRanges { .. }) => {
                    let _ = writeln!(out, "iterations: not counted ({e})");
                }
                Err(e) => return err(format!("{path}: {e}")),
            }
            let _ = writeln!(out, "dependence columns:");
            for q in 0..alg.nest.deps().cols() {
                let _ = writeln!(out, "  d{q} = {:?}", alg.nest.deps().col(q));
            }
            Ok(out)
        }
        "cone" => {
            let (path, _) = input_path(args)?;
            let (_, alg) = load(path)?;
            let rays =
                tiling_cone_rays(alg.nest.deps()).map_err(|e| CliError(format!("cone: {e}")))?;
            let _ = writeln!(out, "tiling cone extreme rays:");
            for r in rays {
                let _ = writeln!(out, "  {r:?}");
            }
            Ok(out)
        }
        "tune" => {
            let (path, rest) = input_path(args)?;
            let (_, alg) = load(path)?;
            let topts = parse_tune_options(&args[rest..], alg.nest.dim())?;
            let outcome = tilecc::tune_labeled(
                &alg,
                &topts.opts,
                MachineModel::fast_ethernet_p3(),
                &alg.name,
            )
            .map_err(|e| CliError(format!("tune: {e}")))?;
            out.push_str(&outcome.report_top(topts.top));
            match outcome.best() {
                None => return err("tune: no legal candidate survived"),
                Some(best) => {
                    let _ = writeln!(
                        out,
                        "winner: {} makespan {:.6} bytes {}",
                        tilecc::tune::fmt_h(&best.h),
                        best.summary.makespan,
                        best.summary.bytes
                    );
                }
            }
            if let Some(json_path) = &topts.json_out {
                std::fs::write(json_path, outcome.to_json().pretty())
                    .map_err(|e| CliError(format!("cannot write `{json_path}`: {e}")))?;
                let _ = writeln!(out, "json   : {json_path}");
            }
            Ok(out)
        }
        "report" => {
            let path = args.get(1).ok_or(CliError(USAGE.into()))?;
            let report = load_report(path)?;
            match args.get(2).map(String::as_str) {
                None => out.push_str(&report.render()),
                Some("--diff") => {
                    let other_path = args
                        .get(3)
                        .ok_or(CliError("--diff needs a second metrics file".into()))?;
                    let diffs = report.deterministic_diff(&load_report(other_path)?);
                    if !diffs.is_empty() {
                        return err(format!(
                            "{path} and {other_path} disagree on the deterministic subset:\n  {}",
                            diffs.join("\n  ")
                        ));
                    }
                    let _ = writeln!(
                        out,
                        "reports agree on the deterministic subset ({} ranks, makespan {:.6} s)",
                        report.ranks.len(),
                        report.makespan
                    );
                }
                Some(extra) => return err(format!("unknown report option `{extra}`")),
            }
            Ok(out)
        }
        "plan" | "run" | "emit" => {
            let (path, rest) = input_path(args)?;
            let opts = parse_options(&args[rest..])?;
            // One registry per invocation when an artifact was requested;
            // the frontend, planner and engine all record into it.
            let reg: Option<Arc<MetricsRegistry>> = (opts.trace_out.is_some()
                || opts.metrics_out.is_some()
                || opts.live
                || opts.stats_out.is_some())
            .then(MetricsRegistry::new);
            let lower_t0 = reg.as_ref().map(|r| r.now_ns());
            let (program, alg) = load(path)?;
            if let (Some(r), Some(t0)) = (&reg, lower_t0) {
                // A nest too large to count still runs; its span records 0.
                let points = alg.nest.num_points().unwrap_or(0);
                r.driver_span(Phase::Lower, "lower", t0, points);
            }
            let h = opts
                .tile
                .clone()
                .ok_or(CliError("missing --tile or --rect".into()))?;
            if h.rows() != alg.nest.dim() {
                return err(format!(
                    "tile matrix is {}×{} but the nest is {}-dimensional",
                    h.rows(),
                    h.cols(),
                    alg.nest.dim()
                ));
            }
            let transform = tilecc_tiling::TilingTransform::new(h)
                .map_err(|e| CliError(format!("tiling rejected: {e}")))?;
            let pipe = Pipeline::compile_observed(alg, transform, opts.map, reg.as_deref())
                .map_err(|e| CliError(format!("tiling rejected: {e}")))?;
            match cmd.as_str() {
                "plan" => {
                    let plan = pipe.plan();
                    let t = plan.tiled.transform();
                    let _ = writeln!(out, "H =\n{}", fmt_matrix(t.h()));
                    let _ = writeln!(out, "P = H^-1 =\n{}", fmt_matrix(t.p()));
                    let _ = writeln!(out, "V diag      : {:?}", t.v());
                    let _ = writeln!(out, "H' = V*H    : {:?}", t.h_prime());
                    let _ = writeln!(out, "HNF(H')     : {:?}", t.hnf());
                    let _ = writeln!(out, "strides c   : {:?}", t.strides());
                    let _ = writeln!(out, "tile size   : {}", plan.tiled.full_tile_volume());
                    let _ = writeln!(out, "mapping dim : {}", plan.m());
                    let _ = writeln!(out, "processors  : {}", plan.num_procs());
                    let _ = writeln!(out, "CC          : {:?}", plan.comm.cc);
                    let _ = writeln!(out, "offsets     : {:?}", plan.comm.off);
                    let _ = writeln!(out, "D^S         : {:?}", plan.comm.tile_deps);
                    let _ = writeln!(out, "D^m         : {:?}", plan.comm.proc_deps);
                    Ok(out)
                }
                "run" => {
                    let size = pipe.num_procs();
                    if let Some((rank, _)) = opts.crash.filter(|&(rank, _)| rank >= size) {
                        return err(format!(
                            "--crash-rank {rank} out of range for a {size}-processor plan"
                        ));
                    }
                    if let Some(rank) = opts.worker_rank {
                        return tcp_worker(&pipe, &opts, rank, reg);
                    }
                    if opts.connect.is_some() {
                        return err("--connect is only meaningful together with --worker-rank");
                    }
                    if opts.backend == Backend::Tcp {
                        return tcp_driver(path, &args[rest..], &pipe, &opts, reg.as_ref(), out);
                    }
                    if opts.ranks.is_some() {
                        return err("--ranks is only meaningful with --backend tcp");
                    }
                    if opts.live || opts.stats_out.is_some() {
                        return err("--live/--stats-out stream worker telemetry and are only \
                             meaningful with --backend tcp");
                    }
                    let (fault, mode) = engine_setup(&opts);
                    let options = EngineOptions {
                        scheme: opts.scheme,
                        fault,
                        recovery: opts.recovery_options(),
                        obs: reg.clone(),
                        ..EngineOptions::default()
                    };
                    let run_err = |e: tilecc_cluster::RunError| {
                        CliError(format!(
                            "run failed: {e}\nranks implicated: {:?}",
                            e.ranks()
                        ))
                    };
                    let (summary, data) = match mode {
                        ExecMode::Full => {
                            let (s, d) = pipe
                                .run_verified(opts.model, opts.strategy, options)
                                .map_err(run_err)?;
                            (s, Some(d))
                        }
                        ExecMode::TimingOnly => (
                            pipe.simulate(opts.model, opts.strategy, options)
                                .map_err(run_err)?,
                            None,
                        ),
                    };
                    render_run_summary(
                        &mut out,
                        &opts,
                        &summary,
                        data.as_ref().map(DataSpace::checksum),
                    )?;
                    if let Some(reg) = &reg {
                        // The dependency-true critical path replaces the
                        // slowest-rank approximation in the rendered
                        // report and is highlighted as a Perfetto flow in
                        // the exported trace.
                        let report = reg
                            .run_report(&summary.local_times)
                            .with_critical_path(reg.critical_path(&summary.local_times));
                        if let Some(path) = &opts.trace_out {
                            let trace = reg.chrome_trace(report.critical_path.as_ref()).to_string();
                            std::fs::write(path, trace).map_err(|e| {
                                CliError(format!("cannot write trace to `{path}`: {e}"))
                            })?;
                            let _ = writeln!(out, "trace      : {path}");
                        }
                        if let Some(path) = &opts.metrics_out {
                            std::fs::write(path, report.to_json().pretty()).map_err(|e| {
                                CliError(format!("cannot write metrics to `{path}`: {e}"))
                            })?;
                            let _ = writeln!(out, "metrics    : {path}");
                        }
                        out.push('\n');
                        out.push_str(&report.render());
                    }
                    Ok(out)
                }
                "emit" => {
                    let src = kernel_source(&program);
                    out.push_str(&tilecc_parcode::emit_c_program(pipe.plan(), &src));
                    Ok(out)
                }
                _ => unreachable!(),
            }
        }
        other => err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tilecc_cluster::obs::json::Json;
    use tilecc_cluster::VirtAcc;

    /// Self-cleaning temp file (avoids external tempfile dependencies).
    struct TempNest(std::path::PathBuf);

    impl TempNest {
        fn to_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for TempNest {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn write_nest(content: &str) -> TempNest {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("tilecc-cli-test-{}-{id}.tk", std::process::id()));
        std::fs::write(&path, content).unwrap();
        TempNest(path)
    }

    const ADI_SRC: &str = r#"
kernel adi
param T = 6
param N = 9
iter t = 1 to T
iter i = 1 to N
iter j = 1 to N
array X = 0.25
X[t,i,j] = X[t-1,i,j] + 0.3*X[t-1,i-1,j] - 0.2*X[t-1,i,j-1]
"#;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_command_reports_structure() {
        let p = write_nest(ADI_SRC);
        let out = run_cli(&args(&["parse", p.to_str()])).unwrap();
        assert!(out.contains("dimension : 3"));
        assert!(out.contains("iterations: 486"));
        assert!(out.contains("d0 = [1, 0, 0]"));
    }

    #[test]
    fn cone_command_prints_rays() {
        let p = write_nest(ADI_SRC);
        let out = run_cli(&args(&["cone", p.to_str()])).unwrap();
        assert!(out.contains("[1, -1, -1]"), "{out}");
    }

    #[test]
    fn tune_command_ranks_and_beats_rect_seed() {
        let p = write_nest(ADI_SRC);
        let json = std::env::temp_dir().join(format!(
            "tilecc-cli-tune-{}-{}.json",
            std::process::id(),
            line!()
        ));
        let out = run_cli(&args(&[
            "tune",
            p.to_str(),
            "--volume",
            "8",
            "--rect",
            "2,2,2",
            "--top",
            "200",
            "--json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("winner:"), "{out}");
        assert!(out.contains("evaluated"), "{out}");
        // The rect seed was evaluated (marked * in the ranking).
        assert!(out.lines().any(|l| l.trim_end().ends_with('*')), "{out}");
        let saved = std::fs::read_to_string(&json).unwrap();
        let _ = std::fs::remove_file(&json);
        assert!(saved.contains("\"ranking\""), "{saved}");
        assert!(saved.contains("\"included\": true"), "{saved}");
    }

    #[test]
    fn tune_cap_counts_generated_candidates_not_seeds() {
        let jacobi = format!(
            "{}/../../examples/kernels/jacobi.tk",
            env!("CARGO_MANIFEST_DIR")
        );
        let tune = |extra: &[&str]| {
            let mut a = vec!["tune", &jacobi, "--volume", "8"];
            a.extend_from_slice(extra);
            run_cli(&args(&a)).unwrap()
        };
        // Both seeds and one generated candidate are evaluated, so the
        // winner is the better seed, `rect 2,2,2`.
        let out = tune(&[
            "--rect",
            "4,2,1",
            "--rect",
            "2,2,2",
            "--max-candidates",
            "1",
        ]);
        assert!(out.contains(", 3 evaluated"), "{out}");
        assert!(
            out.contains("winner: [1/2 0 0;0 1/2 0;0 0 1/2] makespan 0.002578"),
            "{out}"
        );
        // A zero cap still evaluates the seed.
        let out = tune(&["--max-candidates", "0", "--rect", "2,2,2"]);
        assert!(out.contains(", 1 evaluated"), "{out}");
        assert!(out.contains("winner: [1/2 0 0;0 1/2 0;0 0 1/2]"), "{out}");
    }

    #[test]
    fn tune_command_rejects_missing_volume_and_bad_map() {
        let p = write_nest(ADI_SRC);
        assert!(run_cli(&args(&["tune", p.to_str()])).is_err());
        assert!(run_cli(&args(&["tune", p.to_str(), "--volume", "8", "--map", "3"])).is_err());
        assert!(run_cli(&args(&["tune", p.to_str(), "--volume", "-2"])).is_err());
    }

    #[test]
    fn run_with_verification_succeeds() {
        let p = write_nest(ADI_SRC);
        let out = run_cli(&args(&[
            "run",
            p.to_str(),
            "--rect",
            "2,4,4",
            "--map",
            "0",
            "--verify",
        ]))
        .unwrap();
        assert!(out.contains("verified   : true"), "{out}");
    }

    #[test]
    fn run_with_cone_tiling_and_overlap() {
        let p = write_nest(ADI_SRC);
        let out = run_cli(&args(&[
            "run",
            p.to_str(),
            "--tile",
            "1/2,-1/2,-1/2; 0,1/4,0; 0,0,1/4",
            "--map",
            "0",
            "--strategy",
            "overlapped",
            "--verify",
        ]))
        .unwrap();
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("verified   : true"), "{out}");
    }

    #[test]
    fn overlapped_strategy_verifies_and_is_no_slower() {
        let p = write_nest(ADI_SRC);
        let makespan = |out: &str| -> f64 {
            out.lines()
                .find_map(|l| l.strip_prefix("makespan   :"))
                .unwrap()
                .trim()
                .trim_end_matches(" s")
                .parse()
                .unwrap()
        };
        let run = |strategy: &str| {
            run_cli(&args(&[
                "run",
                p.to_str(),
                "--rect",
                "2,4,4",
                "--map",
                "0",
                "--verify",
                "--strategy",
                strategy,
            ]))
            .unwrap()
        };
        let overlapped = run("overlapped");
        assert!(
            overlapped.contains("strategy   : Overlapped"),
            "{overlapped}"
        );
        assert!(overlapped.contains("verified   : true"), "{overlapped}");
        let compiled = run("compiled");
        assert!(
            makespan(&overlapped) <= makespan(&compiled) + 1e-12,
            "overlapped must not be slower\n{overlapped}\n{compiled}"
        );
    }

    #[test]
    fn unknown_strategy_is_rejected() {
        let p = write_nest(ADI_SRC);
        let run = |extra: &[&str]| {
            let mut a = args(&["run", p.to_str(), "--rect", "2,4,4"]);
            a.extend(args(extra));
            run_cli(&a).unwrap_err()
        };
        let e = run(&["--strategy", "turbo"]);
        assert!(e.0.contains("unknown --strategy `turbo`"), "{e}");
        // The overlapped scheme is spelled `--strategy overlapped` only.
        let e = run(&["--overlap"]);
        assert!(e.0.contains("unknown option `--overlap`"), "{e}");
    }

    #[test]
    fn unwritable_artifact_paths_are_reported_not_panicked() {
        // A nonexistent parent directory must surface as a CliError naming
        // the artifact and path — never a panic or a silent success.
        let p = write_nest(ADI_SRC);
        let base = args(&["run", p.to_str(), "--rect", "2,4,4", "--map", "0"]);
        for (flag, what) in [("--trace-out", "trace"), ("--metrics-out", "metrics")] {
            let bad = "/nonexistent-tilecc-dir/artifact.json";
            let mut a = base.clone();
            a.extend(args(&[flag, bad]));
            let e = run_cli(&a).unwrap_err();
            assert!(
                e.0.contains(&format!("cannot write {what} to `{bad}`")),
                "{flag}: {e}"
            );
        }
    }

    #[test]
    fn plan_command_shows_comm_data() {
        let p = write_nest(ADI_SRC);
        let out = run_cli(&args(&["plan", p.to_str(), "--rect", "2,4,4"])).unwrap();
        assert!(out.contains("CC"), "{out}");
        assert!(out.contains("tile size   : 32"), "{out}");
    }

    #[test]
    fn emit_command_produces_c() {
        let p = write_nest(ADI_SRC);
        let out = run_cli(&args(&["emit", p.to_str(), "--rect", "2,4,4"])).unwrap();
        assert!(out.contains("#include <mpi.h>"));
    }

    #[test]
    fn old_nest_syntax_is_a_located_error() {
        // The retired `for`/`boundary =` nest notation is not `.tk`: every
        // command reports where it stops parsing instead of panicking.
        let p = write_nest("param N = 4\nfor t = 1 to N\nA[t] = A[t-1] + 1\nboundary = 0.5\n");
        for cmd in ["parse", "run", "emit"] {
            let e = run_cli(&args(&[cmd, p.to_str(), "--rect", "2"])).unwrap_err();
            assert!(
                e.0.starts_with(&format!("{}:1:1: ", p.to_str())),
                "{cmd}: {e}"
            );
            assert!(e.0.contains("  1 | param N = 4"), "{cmd}: {e}");
        }
    }

    #[test]
    fn lossy_run_verifies_and_reports_retransmissions() {
        let p = write_nest(ADI_SRC);
        let out = run_cli(&args(&[
            "run",
            p.to_str(),
            "--rect",
            "2,4,4",
            "--map",
            "0",
            "--fault-seed",
            "7",
            "--drop-rate",
            "0.25",
        ]))
        .unwrap();
        assert!(out.contains("verified   : true"), "{out}");
        assert!(out.contains("retransmits:"), "{out}");
        let n: u64 = out
            .lines()
            .find_map(|l| l.strip_prefix("retransmits:"))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(n > 0, "a 25% drop rate must force retransmissions\n{out}");
    }

    #[test]
    fn observed_run_writes_artifacts_and_report_reads_them_back() {
        let p = write_nest(ADI_SRC);
        let trace = write_nest("");
        let metrics = write_nest("");
        let out = run_cli(&args(&[
            "run",
            p.to_str(),
            "--rect",
            "2,4,4",
            "--map",
            "0",
            "--verify",
            "--trace-out",
            trace.to_str(),
            "--metrics-out",
            metrics.to_str(),
        ]))
        .unwrap();
        assert!(out.contains("verified   : true"), "{out}");
        assert!(out.contains("trace      :"), "{out}");
        assert!(out.contains("run report"), "{out}");

        // The trace must be valid JSON with Chrome trace-event structure.
        let trace_txt = std::fs::read_to_string(trace.to_str()).unwrap();
        let doc = tilecc_cluster::obs::json::parse(&trace_txt).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));

        // The metrics file round-trips through the `report` subcommand.
        let rendered = run_cli(&args(&["report", metrics.to_str()])).unwrap();
        assert!(rendered.contains("run report"), "{rendered}");
        assert!(rendered.contains("rank"), "{rendered}");
    }

    #[test]
    fn report_rejects_non_metrics_files() {
        let bogus = write_nest("{\"schema\": \"other\"}");
        let e = run_cli(&args(&["report", bogus.to_str()])).unwrap_err();
        assert!(e.0.contains("schema"), "{e}");
    }

    #[test]
    fn report_rejects_schema_version_mismatch() {
        // A future schema rev must be refused with a typed error naming
        // both the found and the expected version — not misrendered.
        let v2 =
            write_nest("{\"schema\": \"tilecc-metrics-v2\", \"makespan\": 1.0, \"ranks\": []}");
        let e = run_cli(&args(&["report", v2.to_str()])).unwrap_err();
        assert!(e.0.contains("tilecc-metrics-v2"), "{e}");
        assert!(e.0.contains("tilecc-metrics-v1"), "{e}");
        // Same contract on the diff path, for either argument.
        let good =
            write_nest("{\"schema\": \"tilecc-metrics-v1\", \"makespan\": 1.0, \"ranks\": []}");
        let e = run_cli(&args(&["report", good.to_str(), "--diff", v2.to_str()])).unwrap_err();
        assert!(e.0.contains("unsupported metrics schema"), "{e}");
    }

    #[test]
    fn report_rejects_truncated_metrics_json() {
        // A metrics file cut off mid-write (crashed run, full disk) must
        // surface as a typed parse error naming the file — never a panic.
        let full =
            "{\"schema\": \"tilecc-metrics-v1\", \"makespan\": 1.0, \"ranks\": [{\"rank\": 0";
        for cut in [full.len(), full.len() - 20, 30, 1] {
            let t = write_nest(&full[..cut]);
            let e = run_cli(&args(&["report", t.to_str()])).unwrap_err();
            assert!(
                e.0.contains(t.to_str()),
                "error must name the file at cut {cut}: {e}"
            );
        }
    }

    #[test]
    fn report_diff_agrees_and_detects_mismatches() {
        let p = write_nest(ADI_SRC);
        let metrics = write_nest("");
        run_cli(&args(&[
            "run",
            p.to_str(),
            "--rect",
            "2,4,4",
            "--map",
            "0",
            "--metrics-out",
            metrics.to_str(),
        ]))
        .unwrap();
        // A report agrees with itself.
        let out = run_cli(&args(&[
            "report",
            metrics.to_str(),
            "--diff",
            metrics.to_str(),
        ]))
        .unwrap();
        assert!(out.contains("agree"), "{out}");
        // Perturbing one deterministic field must fail the diff and name it.
        let src = std::fs::read_to_string(metrics.to_str()).unwrap();
        let tampered = write_nest(&src.replacen("\"messages_sent\": ", "\"messages_sent\": 1", 1));
        let e = run_cli(&args(&[
            "report",
            metrics.to_str(),
            "--diff",
            tampered.to_str(),
        ]))
        .unwrap_err();
        assert!(e.0.contains("messages_sent"), "{e}");
        // But a transport-local counter may differ freely.
        let ckpt = write_nest(&src.replacen("\"ckpt_writes\": ", "\"ckpt_writes\": 9", 1));
        let out = run_cli(&args(&[
            "report",
            metrics.to_str(),
            "--diff",
            ckpt.to_str(),
        ]))
        .unwrap();
        assert!(out.contains("agree"), "{out}");
        let e = run_cli(&args(&["report", metrics.to_str(), "--bogus"])).unwrap_err();
        assert!(e.0.contains("unknown report option"), "{e}");
    }

    #[test]
    fn live_and_stats_out_require_tcp_backend() {
        let p = write_nest(ADI_SRC);
        for extra in [&["--live"][..], &["--stats-out", "/tmp/x.ndjson"][..]] {
            let mut v = vec!["run", p.to_str(), "--rect", "2,4,4", "--map", "0"];
            v.extend_from_slice(extra);
            let e = run_cli(&args(&v)).unwrap_err();
            assert!(e.0.contains("--backend tcp"), "{extra:?}: {e}");
        }
    }

    #[test]
    fn stats_ndjson_lines_are_valid_json() {
        let reg = MetricsRegistry::new();
        let m = reg.rank_metrics(0);
        m.add(Counter::BytesSent, 4096);
        m.virt_add(VirtAcc::Compute, 0.5);
        m.virt_add(VirtAcc::Wait, 0.25);
        let ranks = vec![
            RankTelemetry {
                rank: 0,
                phase: RankPhase::Running,
                progress: 3,
                done: false,
                stats: Some(StatsSnapshot::capture(&m)),
                stats_seq: 2,
            },
            RankTelemetry {
                rank: 1,
                phase: RankPhase::Blocked { from: 0, tag: 7 },
                progress: 1,
                done: false,
                stats: None,
                stats_seq: 0,
            },
        ];
        let line = stats_record(1234, &ranks).to_string();
        let j = tilecc_cluster::obs::json::parse(&line).expect("NDJSON line must parse");
        assert_eq!(j.get("t_wall_ms").and_then(Json::as_u64), Some(1234));
        let rs = j.get("ranks").and_then(Json::as_arr).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].get("clock").and_then(Json::as_f64), Some(0.75));
        assert_eq!(rs[0].get("bytes_sent").and_then(Json::as_u64), Some(4096));
        assert_eq!(
            rs[1].get("phase").and_then(Json::as_str),
            Some("recv<-0#7"),
            "{line}"
        );
        // A rank without a snapshot yet reports identity only.
        assert!(rs[1].get("clock").is_none());
    }

    #[test]
    fn threaded_report_renders_dependency_critical_path() {
        let p = write_nest(ADI_SRC);
        let metrics = write_nest("");
        let out = run_cli(&args(&[
            "run",
            p.to_str(),
            "--rect",
            "2,4,4",
            "--map",
            "0",
            "--metrics-out",
            metrics.to_str(),
        ]))
        .unwrap();
        // The dependency chain replaces the slowest-rank approximation:
        // hops are listed with virtual intervals and cross-rank hand-offs.
        assert!(out.contains("dependency chain"), "{out}");
        assert!(out.contains("<- rank"), "{out}");
        // The saved JSON carries the path and `report` re-renders it.
        let rendered = run_cli(&args(&["report", metrics.to_str()])).unwrap();
        assert!(rendered.contains("dependency chain"), "{rendered}");
        assert!(rendered.contains("<- rank"), "{rendered}");
    }

    #[test]
    fn crashed_rank_is_reported_with_context() {
        let p = write_nest(ADI_SRC);
        let e = run_cli(&args(&[
            "run",
            p.to_str(),
            "--rect",
            "2,4,4",
            "--map",
            "0",
            "--crash-rank",
            "1",
        ]))
        .unwrap_err();
        assert!(e.0.contains("run failed"), "{e}");
        assert!(e.0.contains("rank 1"), "{e}");
        assert!(e.0.contains("injected crash"), "{e}");
    }

    /// Extract the value of a `key : value` summary line.
    fn field<'a>(out: &'a str, key: &str) -> &'a str {
        out.lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                (k.trim() == key).then(|| v.trim())
            })
            .unwrap_or_else(|| panic!("no `{key}` line in:\n{out}"))
    }

    #[test]
    fn crashed_rank_recovers_bitwise_with_on_crash_recover() {
        let p = write_nest(ADI_SRC);
        let base = [
            "run",
            p.to_str(),
            "--rect",
            "2,4,4",
            "--map",
            "0",
            "--verify",
        ];
        let clean = run_cli(&args(&base)).unwrap();
        let mut rec_args = base.to_vec();
        rec_args.extend_from_slice(&[
            "--crash-rank",
            "1",
            "--on-crash",
            "recover",
            "--ckpt-interval",
            "2",
        ]);
        let rec = run_cli(&args(&rec_args)).unwrap();
        assert_eq!(field(&rec, "verified"), "true", "{rec}");
        assert_eq!(
            field(&clean, "checksum"),
            field(&rec, "checksum"),
            "recovered run must reproduce the clean data bitwise\n{rec}"
        );
        assert_eq!(field(&rec, "recoveries"), "1", "{rec}");
        assert!(rec.contains("rec time"), "{rec}");
        // The clean run never prints recovery lines.
        assert!(!clean.contains("recoveries"), "{clean}");
    }

    #[test]
    fn exhausted_recovery_budget_still_fails() {
        let p = write_nest(ADI_SRC);
        let e = run_cli(&args(&[
            "run",
            p.to_str(),
            "--rect",
            "2,4,4",
            "--map",
            "0",
            "--crash-rank",
            "1",
            "--on-crash",
            "recover",
            "--max-recoveries",
            "0",
        ]))
        .unwrap_err();
        assert!(e.0.contains("run failed"), "{e}");
        assert!(e.0.contains("injected crash"), "{e}");
    }

    #[test]
    fn recovery_flag_values_are_validated() {
        let p = write_nest(ADI_SRC);
        let run_with = |extra: &[&str]| {
            let mut v = vec!["run", p.to_str(), "--rect", "2,4,4"];
            v.extend_from_slice(extra);
            run_cli(&args(&v))
        };
        let e = run_with(&["--on-crash", "explode"]).unwrap_err();
        assert!(e.0.contains("--on-crash"), "{e}");
        let e = run_with(&["--ckpt-interval", "0"]).unwrap_err();
        assert!(e.0.contains("--ckpt-interval"), "{e}");
        let e = run_with(&["--heartbeat-ms", "0"]).unwrap_err();
        assert!(e.0.contains("--heartbeat-ms"), "{e}");
    }

    #[test]
    fn peer_timeout_must_exceed_the_heartbeat_cadence() {
        let p = write_nest(ADI_SRC);
        let run_with = |extra: &[&str]| {
            let mut v = vec!["run", p.to_str(), "--rect", "2,4,4", "--backend", "tcp"];
            v.extend_from_slice(extra);
            run_cli(&args(&v))
        };
        // Against the default 50 ms cadence, then against an explicit one
        // given after the timeout.
        for extra in [
            &["--peer-timeout-ms", "0"][..],
            &["--peer-timeout-ms", "50"],
            &["--peer-timeout-ms", "200", "--heartbeat-ms", "200"],
        ] {
            let e = run_with(extra).unwrap_err();
            assert!(e.0.contains("--peer-timeout-ms"), "{extra:?}: {e}");
            assert!(e.0.contains("must exceed"), "{extra:?}: {e}");
        }
        assert!(parse_options(&args(&["--peer-timeout-ms", "51"])).is_ok());
        assert!(parse_options(&args(&["--heartbeat-ms", "5", "--peer-timeout-ms", "6"])).is_ok());
    }

    #[test]
    fn fault_flag_values_are_validated() {
        assert!(parse_crash_spec("2").unwrap() == (2, 0.0));
        assert!(parse_crash_spec("3@0.5").unwrap() == (3, 0.5));
        assert!(parse_crash_spec("x").is_err());
        assert!(parse_crash_spec("1@y").is_err());
        // A time that never fires or fires early is an error naming it.
        for t in ["nan", "inf", "-inf", "1e400", "-1"] {
            let e = parse_crash_spec(&format!("0@{t}")).unwrap_err();
            assert!(e.0.contains(&format!("`{t}`")), "{e}");
        }
        let p = write_nest(ADI_SRC);
        let e = run_cli(&args(&[
            "run",
            p.to_str(),
            "--rect",
            "2,4,4",
            "--drop-rate",
            "1.5",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--drop-rate"), "{e}");
    }

    #[test]
    fn bad_tile_spec_is_reported() {
        assert!(parse_tile_spec("1/x,0;0,1").is_err());
        assert!(parse_tile_spec("1,0;0").is_err());
        assert!(parse_tile_spec("1/0,0;0,1").is_err());
        assert!(parse_rect_spec("4,0").is_err());
        assert!(parse_rect_spec("a").is_err());
    }

    #[test]
    fn illegal_tiling_is_rejected_with_message() {
        let p = write_nest(ADI_SRC);
        let e = run_cli(&args(&[
            "run",
            p.to_str(),
            "--tile",
            "-1/2,0,0; 0,1/4,0; 0,0,1/4",
        ]))
        .unwrap_err();
        assert!(e.0.contains("tiling rejected"), "{e}");
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let p = write_nest(ADI_SRC);
        let e = run_cli(&args(&["run", p.to_str(), "--rect", "4,4"])).unwrap_err();
        assert!(e.0.contains("3-dimensional"), "{e}");
    }

    #[test]
    fn out_of_range_mapping_dimension_is_a_typed_error() {
        // Plan construction reports the bad dimension instead of panicking.
        let adi = format!(
            "{}/../../examples/kernels/adi.tk",
            env!("CARGO_MANIFEST_DIR")
        );
        let e = run_cli(&args(&["run", &adi, "--rect", "2,4,4", "--map", "7"])).unwrap_err();
        let typed = tilecc_tiling::TilingError::MappingOutOfRange { m: 7, dim: 3 };
        assert!(e.0.contains(&typed.to_string()), "{e}");
    }

    #[test]
    fn oversized_tile_is_a_typed_error_without_walking_it() {
        // A 400³ tile over ADI's 6×8×8 space would hold 64M lattice
        // points; the volume budget rejects it before any walk.
        let adi = format!(
            "{}/../../examples/kernels/adi.tk",
            env!("CARGO_MANIFEST_DIR")
        );
        let t0 = std::time::Instant::now();
        let e = run_cli(&args(&["plan", &adi, "--rect", "400,400,400"])).unwrap_err();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "rejection took {:?}",
            t0.elapsed()
        );
        let typed = tilecc_tiling::TilingError::TileTooLarge {
            volume: 64_000_000,
            limit: Some(tilecc_tiling::tile_space::TILE_VOLUME_FLOOR),
        };
        assert!(e.0.contains(&typed.to_string()), "{e}");
    }

    #[test]
    fn large_tiles_plan_without_per_point_tables() {
        // Tiles of 10⁸ and 4.9·10⁹ lattice points: the chain tables hold
        // one entry per TTIS row, so planning neither allocates per point
        // nor runs out of a point index.
        let p = write_nest(
            "kernel big\nparam N = 100000\niter i = 1 to N\niter j = 1 to N\n\
             array A = 1.0\nA[i,j] = 0.5*A[i-1,j] + 0.5*A[i,j-1]\n",
        );
        for (rect, size, procs) in [
            ("10000,10000", 100_000_000, 11),
            ("70000,70000", 4_900_000_000u64, 2),
        ] {
            let t0 = std::time::Instant::now();
            let out = run_cli(&args(&["plan", p.to_str(), "--rect", rect, "--map", "0"])).unwrap();
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(5),
                "{rect}: planning took {:?}",
                t0.elapsed()
            );
            assert!(out.contains(&format!("tile size   : {size}\n")), "{out}");
            assert!(out.contains(&format!("processors  : {procs}\n")), "{out}");
        }
    }

    #[test]
    fn tile_volume_past_i64_is_a_typed_error() {
        // (3·10⁹)³ lattice points per tile does not fit i64.
        let jacobi = format!(
            "{}/../../examples/kernels/jacobi.tk",
            env!("CARGO_MANIFEST_DIR")
        );
        let rect = "3000000000,3000000000,3000000000";
        for cmd in ["run", "plan"] {
            let e = run_cli(&args(&[cmd, &jacobi, "--rect", rect])).unwrap_err();
            let typed = tilecc_tiling::TilingError::TileTooLarge {
                volume: 27 * 10i128.pow(27),
                limit: Some(tilecc_tiling::tile_space::TILE_VOLUME_FLOOR),
            };
            assert!(e.0.contains(&typed.to_string()), "{cmd}: {e}");
        }
    }

    #[test]
    fn tune_and_cone_on_a_one_dimensional_kernel_are_typed_errors() {
        let p = write_nest(
            "kernel one\nparam N = 20\niter i = 1 to N\narray A = 1.0\nA[i] = 0.5*A[i-1]\n",
        );
        let typed = tilecc_tiling::TilingError::ConeDimension { dim: 1 }.to_string();
        let e = run_cli(&args(&["tune", p.to_str(), "--volume", "10"])).unwrap_err();
        assert!(e.0.contains(&typed), "{e}");
        let e = run_cli(&args(&["cone", p.to_str()])).unwrap_err();
        assert!(e.0.contains(&typed), "{e}");
        // The kernel itself runs: only the cone is undefined in 1-D.
        let out = run_cli(&args(&["run", p.to_str(), "--rect", "4", "--verify"])).unwrap();
        assert!(out.contains("verified   : true"), "{out}");
    }

    #[test]
    fn an_empty_iteration_space_is_a_typed_error() {
        let p = write_nest(
            "kernel empty\niter t = 5 to 1\niter i = 1 to 8\narray A = 1.0\n\
             A[t,i] = 0.5*A[t-1,i] + 0.5*A[t,i-1]\n",
        );
        let out = run_cli(&args(&["parse", p.to_str()])).unwrap();
        assert!(out.contains("iterations: 0"), "{out}");
        let typed = format!(
            "tiling rejected: {}",
            tilecc_tiling::TilingError::EmptySpace
        );
        for cmd in [&["plan"][..], &["run", "--verify"], &["emit"]] {
            let mut argv = vec![cmd[0], p.to_str(), "--rect", "2,2"];
            argv.extend(&cmd[1..]);
            let e = run_cli(&args(&argv)).unwrap_err();
            assert!(e.0.contains(&typed), "{cmd:?}: {e}");
        }
        let e = run_cli(&args(&["tune", p.to_str(), "--volume", "4"])).unwrap_err();
        assert!(
            e.0.contains(&tilecc_tiling::TilingError::EmptySpace.to_string()),
            "{e}"
        );
    }

    #[test]
    fn tune_past_the_tile_volume_limit_is_a_typed_error_not_a_hang() {
        let jacobi = format!(
            "{}/../../examples/kernels/jacobi.tk",
            env!("CARGO_MANIFEST_DIR")
        );
        let t0 = std::time::Instant::now();
        let e = run_cli(&args(&["tune", &jacobi, "--volume", "9223372036854775807"])).unwrap_err();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "rejection took {:?}",
            t0.elapsed()
        );
        let typed = tilecc_tiling::TilingError::TileTooLarge {
            volume: i64::MAX.into(),
            limit: Some(tilecc_tiling::tile_space::TILE_VOLUME_FLOOR),
        };
        assert!(e.0.contains(&typed.to_string()), "{e}");
    }

    #[test]
    fn tile_too_large_names_a_volume_that_fits_i64() {
        // `i64::MAX` itself is a volume like any other; only a volume past
        // it reads as "past 2^63".
        let jacobi = format!(
            "{}/../../examples/kernels/jacobi.tk",
            env!("CARGO_MANIFEST_DIR")
        );
        let e = run_cli(&args(&["tune", &jacobi, "--volume", "9223372036854775807"])).unwrap_err();
        assert!(
            e.0.contains("tile volume 9223372036854775807 exceeds the limit 2097152 "),
            "{e}"
        );
        let rect = "3037000499,3037000499,3037000499";
        let e = run_cli(&args(&["plan", &jacobi, "--rect", rect])).unwrap_err();
        assert!(
            e.0.contains("tile volume (past 2^63) exceeds the limit 2097152 "),
            "{e}"
        );
    }

    #[test]
    fn parse_of_a_huge_nest_is_a_typed_error_not_a_hang() {
        let p = write_nest(
            "kernel huge\nparam N = 4000000000000000000\niter t = 1 to N\n\
             iter i = 1 to N\narray A = 1.0\nA[t,i] = 0.5*A[t-1,i] + 0.25*A[t,i-1]\n",
        );
        let t0 = std::time::Instant::now();
        let e = run_cli(&args(&["parse", p.to_str()])).unwrap_err();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "parse took {:?}",
            t0.elapsed()
        );
        assert!(
            e.0.contains(&tilecc_loopnest::CountError::Overflow.to_string()),
            "{e}"
        );
        // Past the range cap rather than the count: a 2-D nest of short
        // rows whose outer loop alone is far past the cap. Only the count
        // gives up.
        let p = write_nest(
            "kernel tall\nparam N = 4000000000000000000\niter t = 1 to N\n\
             iter i = 1 to 2\narray A = 1.0\nA[t,i] = 0.5*A[t-1,i] + 0.25*A[t,i-1]\n",
        );
        let out = run_cli(&args(&["parse", p.to_str()])).unwrap();
        let typed = tilecc_loopnest::CountError::TooManyRanges {
            limit: tilecc_loopnest::nest::MAX_COUNTED_RANGES,
        };
        assert!(
            out.contains(&format!("iterations: not counted ({typed})")),
            "{out}"
        );
    }

    #[test]
    fn a_nest_past_the_count_cap_plans_traced() {
        // 1.1M rows of two points: past the range cap, yet small enough to
        // plan. The traced `lower` span must not turn the uncounted nest
        // into an error.
        let p = write_nest(
            "kernel tall\nparam N = 1100000\niter t = 1 to N\niter i = 1 to 2\n\
             array A = 1.0\nA[t,i] = 0.5*A[t-1,i] + 0.25*A[t,i-1]\n",
        );
        let metrics = write_nest("");
        let out = run_cli(&args(&[
            "plan",
            p.to_str(),
            "--rect",
            "100000,2",
            "--metrics-out",
            metrics.to_str(),
        ]))
        .unwrap();
        assert!(out.contains("processors  : 2"), "{out}");
    }
}
