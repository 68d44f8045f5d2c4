//! The threaded cluster engine: one OS thread per logical process,
//! `std::sync::mpsc` channels as links.
//!
//! Execution is *functionally deterministic*: programs only use blocking
//! point-to-point receives on FIFO per-pair channels, so computed values and
//! virtual clocks do not depend on OS scheduling. The engine therefore
//! doubles as a discrete-event simulator — the returned [`RunReport`]
//! contains the exact virtual makespan on the modelled machine.
//!
//! # Fault tolerance
//!
//! The engine no longer assumes a perfect substrate:
//!
//! * Each rank runs under [`std::panic::catch_unwind`]; a panicking rank is
//!   reported as [`RunError::RankPanicked`] and its channels are dropped so
//!   blocked peers unwind (as [`CommError::Disconnected`]) instead of
//!   hanging.
//! * An optional [`FaultPlan`] injects deterministic per-link drops,
//!   duplicates, reorders and delays between `send_tagged` and the channel.
//!   A reliability sublayer — per-link sequence numbers, receiver-side
//!   duplicate suppression and re-sequencing, and sender-side retransmission
//!   charged to the virtual clock with exponential backoff — restores exact
//!   FIFO delivery, so lossy runs produce data bitwise identical to
//!   fault-free runs.
//! * A watchdog detects the all-ranks-blocked condition (a cyclic
//!   communication schedule) and returns [`RunError::Deadlock`] naming the
//!   blocked ranks, and optionally enforces a wall-clock cap
//!   ([`RunError::WallTimeout`]) so a wedged run can never hang the caller
//!   forever.
//!
//! Everything a rank does to its virtual clock lives in the shared
//! [`RankCore`]; this module supplies its in-process [`ChannelLink`], the
//! run options and report, and the watchdog both engines share.

use crate::comm::{CommAbort, CommStats, Envelope};
use crate::error::{CommError, RunError};
use crate::fault::FaultPlan;
use crate::model::MachineModel;
use crate::obs::{MetricsRegistry, RankObs};
use crate::rank::{run_rank, Link, RankCore, RankEnd, RunShared};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, Once};
use std::thread;
use std::time::{Duration, Instant};

/// How often a blocked receiver wakes to check the abort flag.
pub(crate) const RECV_POLL: Duration = Duration::from_millis(25);
/// How often the collector thread polls watchdog conditions.
pub(crate) const COLLECT_POLL: Duration = Duration::from_millis(10);
/// Consecutive silent polls with every live rank blocked before the
/// watchdog declares a deadlock (~120 ms of global inactivity).
pub(crate) const DEADLOCK_STABLE_POLLS: u32 = 12;
/// How long the collector drains straggler outcomes after an abort.
pub(crate) const ABORT_GRACE: Duration = Duration::from_secs(1);

/// Outcome of a cluster run.
#[derive(Clone, Debug)]
pub struct RunReport<R> {
    /// Per-rank results returned by the SPMD closure.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks.
    pub local_times: Vec<f64>,
    /// Per-rank statistics.
    pub stats: Vec<CommStats>,
}

impl<R> RunReport<R> {
    /// The simulated parallel completion time: the latest local clock.
    ///
    /// An empty report (no ranks — only constructible by hand, the engine
    /// requires `size > 0`) has makespan `0.0` by convention. Debug builds
    /// assert every clock is finite so a `NaN` clock cannot silently poison
    /// downstream speedup arithmetic.
    pub fn makespan(&self) -> f64 {
        debug_assert!(
            self.local_times.iter().all(|t| t.is_finite()),
            "non-finite rank clock in {:?}",
            self.local_times
        );
        self.local_times.iter().copied().fold(0.0, f64::max)
    }

    /// Aggregate bytes sent across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes_sent).sum()
    }

    /// Aggregate bytes accepted by receivers across all ranks (duplicate
    /// deliveries suppressed by the reliability layer are not counted, so
    /// this equals [`RunReport::total_bytes`] even on faulty links).
    pub fn total_bytes_received(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes_received).sum()
    }

    /// Aggregate messages sent across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.stats.iter().map(|s| s.messages_sent).sum()
    }

    /// Aggregate retransmissions across all ranks (0 on perfect links).
    pub fn total_retransmissions(&self) -> u64 {
        self.stats.iter().map(|s| s.retransmissions).sum()
    }

    /// Aggregate receiver-side duplicate suppressions across all ranks.
    pub fn total_duplicates_suppressed(&self) -> u64 {
        self.stats.iter().map(|s| s.duplicates_suppressed).sum()
    }

    /// Aggregate checkpoint restores across all ranks (0 unless a crash
    /// was recovered).
    pub fn total_recoveries(&self) -> u64 {
        self.stats.iter().map(|s| s.recoveries).sum()
    }

    /// Aggregate virtual seconds charged to crash recovery across all
    /// ranks. Subtracting each rank's share from its local clock recovers
    /// the fault-free clock bitwise.
    pub fn total_recovery_time(&self) -> f64 {
        self.stats.iter().map(|s| s.recovery_time).sum()
    }
}

/// Communication scheme for the virtual-time model.
///
/// `Blocking` is the paper's scheme: the CPU pays the full send cost before
/// continuing and the full receive overhead on arrival. `Overlapped` models
/// the computation/communication overlapping of the paper's future-work
/// reference (Goumas/Sotiropoulos/Koziris, IPDPS'01 [8]): transfers proceed
/// in the background (DMA/comm thread), so the sender's clock is not
/// charged for injection and the receiver pays no per-message overhead —
/// only true data-dependence waiting remains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CommScheme {
    /// MPI-style blocking sends and receives: the sender's clock pays the
    /// injection cost, the receiver pays the per-message overhead.
    #[default]
    Blocking,
    /// Background transfers on a dedicated comm lane: only true
    /// data-dependence waiting charges the ranks' clocks.
    Overlapped,
}

/// Crash-recovery policy: checkpoint cadence and the shared restore budget.
///
/// With a policy attached the executor calls [`Comm::checkpoint`] every
/// `interval` completed chain steps, and an injected crash rewinds the rank
/// to its latest checkpoint instead of killing the run — as long as the
/// run-wide `max_recoveries` budget is not exhausted. Recovered runs stay
/// bitwise identical to fault-free ones: the re-executed virtual time is
/// charged to the `recovery` accumulator at the end of the run, never to
/// individual message timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Take a checkpoint every `interval` chain steps (min 1).
    pub interval: u64,
    /// Total restores permitted across all ranks of the run.
    pub max_recoveries: u64,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            interval: 4,
            max_recoveries: 1,
        }
    }
}

/// Engine options: communication scheme, fault injection, crash recovery,
/// the watchdog configuration and observability.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Communication scheme in force (see [`CommScheme`]).
    pub scheme: CommScheme,
    /// Deterministic fault-injection plan (`None` = perfect substrate).
    pub fault: Option<FaultPlan>,
    /// Crash-recovery policy (`None` = a crash fails the run).
    pub recovery: Option<RecoveryOptions>,
    /// Wall-clock cap on the whole run. `None` disables the cap. The
    /// default is `None` in release dependents and 60 s when this crate is
    /// compiled under `cfg(test)`, so the crate's own test suite can never
    /// hang on a wedged run.
    pub wall_timeout: Option<Duration>,
    /// Detect the all-ranks-blocked condition and return
    /// [`RunError::Deadlock`] instead of hanging (default: on).
    pub deadlock_detection: bool,
    /// Observability session: when set, every rank records spans, counters,
    /// gauges and histograms into its slot of the shared registry. `None`
    /// (the default) keeps the hot paths observability-free.
    pub obs: Option<Arc<MetricsRegistry>>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            scheme: CommScheme::default(),
            fault: None,
            recovery: None,
            wall_timeout: default_wall_timeout(),
            deadlock_detection: true,
            obs: None,
        }
    }
}

/// Wall-clock cap applied when none is configured: bounded under
/// `cfg(test)` (a blocked rank must never hang `cargo test`), unbounded
/// otherwise.
fn default_wall_timeout() -> Option<Duration> {
    if cfg!(test) {
        Some(Duration::from_secs(60))
    } else {
        None
    }
}

/// Panic payload of a [`FaultPlan`]-injected rank crash.
#[derive(Clone, Debug)]
pub struct InjectedCrash {
    /// The crashed rank.
    pub rank: usize,
    /// Configured crash time.
    pub at: f64,
    /// Virtual clock when the crash fired.
    pub clock: f64,
}

/// What a rank is doing, as seen by the watchdog (and, in the
/// multi-process model, by the driver's telemetry consumers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankPhase {
    /// Computing or sending — anything but a blocking receive.
    Running,
    /// Blocked in a receive.
    Blocked {
        /// The rank it is receiving from.
        from: usize,
        /// The tag it is waiting on.
        tag: i64,
    },
    /// Finished its program (result may still be in flight).
    Done,
}

/// Shared run state: per-rank phases, a progress counter bumped on every
/// state change and message hand-off, and the abort flag. Shared between
/// the threaded and TCP engines (the TCP multi-process driver rebuilds the
/// same view from heartbeat frames).
pub(crate) struct Monitor {
    phases: Mutex<Vec<RankPhase>>,
    progress: AtomicU64,
    abort: AtomicBool,
}

impl Monitor {
    pub(crate) fn new(size: usize) -> Self {
        Monitor {
            phases: Mutex::new(vec![RankPhase::Running; size]),
            progress: AtomicU64::new(0),
            abort: AtomicBool::new(false),
        }
    }

    pub(crate) fn set(&self, rank: usize, phase: RankPhase) {
        self.phases.lock().expect("monitor poisoned")[rank] = phase;
        self.bump();
    }

    pub(crate) fn snapshot(&self) -> Vec<RankPhase> {
        self.phases.lock().expect("monitor poisoned").clone()
    }

    pub(crate) fn phase_of(&self, rank: usize) -> RankPhase {
        self.phases.lock().expect("monitor poisoned")[rank]
    }

    pub(crate) fn bump(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    pub(crate) fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }

    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }
}

/// The in-process [`Link`]: one `std::sync::mpsc` channel per directed
/// rank pair.
pub struct ChannelLink {
    /// `txs[to]`: channel to each peer (slot `rank` unused).
    txs: Vec<Option<Sender<Envelope>>>,
    /// `rxs[from]`: channel from each peer.
    rxs: Vec<Option<Receiver<Envelope>>>,
}

impl Link for ChannelLink {
    fn push(&self, to: usize, env: Envelope, _obs: Option<&RankObs>) -> bool {
        let tx = self.txs[to].as_ref().expect("no channel to peer");
        tx.send(env).is_ok()
    }

    fn poll(&self, from: usize, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        let rx = self.rxs[from].as_ref().expect("no channel from peer");
        rx.recv_timeout(timeout)
    }

    fn closed(peer: usize) -> CommError {
        CommError::Disconnected { peer }
    }
}

/// Communication endpoint handed to each SPMD thread: the shared
/// [`RankCore`] over in-process channels.
pub type ThreadedComm = RankCore<ChannelLink>;

/// A collected rank outcome: how it ended, final clock, stats.
pub(crate) type RankSlot<R> = Option<(RankEnd<R>, f64, CommStats)>;

/// Silence the default panic hook for the engine's sentinel payloads
/// ([`CommAbort`] cascades and [`InjectedCrash`]es): they are expected
/// control flow, reported through [`RunError`], and would otherwise spam
/// stderr with backtraces. Genuine panics still reach the previous hook.
pub(crate) fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.downcast_ref::<CommAbort>().is_some()
                || payload.downcast_ref::<InjectedCrash>().is_some()
            {
                return;
            }
            previous(info);
        }));
    });
}

/// Run an SPMD program over `size` logical processes. The closure receives
/// each process's [`ThreadedComm`]; its return values, final clocks and
/// statistics are collected into a [`RunReport`] (indexed by rank).
///
/// `options` set the communication scheme, fault injection, recovery,
/// watchdog and observability. Failures come back as [`RunError`]s: one
/// rank's panic is contained and reported as [`RunError::RankPanicked`], a
/// cyclic schedule as [`RunError::Deadlock`], and a wedged run as
/// [`RunError::WallTimeout`] — the process is never aborted and the call
/// always returns.
pub fn run_cluster<R, F>(
    size: usize,
    model: MachineModel,
    options: EngineOptions,
    f: F,
) -> Result<RunReport<R>, RunError>
where
    R: Send + 'static,
    F: Fn(&mut ThreadedComm) -> R + Send + Sync + 'static,
{
    assert!(size > 0, "cluster needs at least one process");
    install_quiet_panic_hook();
    let shared = RunShared::new(size, model, &options);
    // Channel matrix: channels[from][to].
    let mut senders: Vec<Vec<Option<Sender<Envelope>>>> = (0..size)
        .map(|_| (0..size).map(|_| None).collect())
        .collect();
    let mut receivers: Vec<Vec<Option<Receiver<Envelope>>>> = (0..size)
        .map(|_| (0..size).map(|_| None).collect())
        .collect();
    for from in 0..size {
        for to in 0..size {
            if from == to {
                continue;
            }
            let (tx, rx) = channel();
            senders[from][to] = Some(tx);
            receivers[to][from] = Some(rx);
        }
    }

    let f = Arc::new(f);
    let (done_tx, done_rx) = channel();
    for (rank, (txs, rxs)) in senders.into_iter().zip(receivers).enumerate() {
        let f = f.clone();
        let done = done_tx.clone();
        let comm = shared.core(rank, ChannelLink { txs, rxs });
        thread::Builder::new()
            .name(format!("tilecc-rank-{rank}"))
            .spawn(move || {
                let (end, clock, stats) = run_rank(comm, |comm| f(comm));
                let _ = done.send((rank, end, clock, stats));
            })
            .expect("failed to spawn rank thread");
    }
    drop(done_tx);

    collect(size, &shared.monitor, done_rx, &options)
}

/// Collect rank outcomes while running the watchdog: wall-clock cap and
/// all-ranks-blocked deadlock detection. Shared by the threaded engine and
/// the in-process TCP runner ([`crate::tcp::run_cluster_tcp`]).
pub(crate) fn collect<R>(
    size: usize,
    monitor: &Monitor,
    done_rx: Receiver<(usize, RankEnd<R>, f64, CommStats)>,
    options: &EngineOptions,
) -> Result<RunReport<R>, RunError> {
    let started = Instant::now();
    let mut slots: Vec<RankSlot<R>> = (0..size).map(|_| None).collect();
    let mut finished = 0usize;
    let mut last_progress = monitor.progress();
    let mut stable: u32 = 0;

    while finished < size {
        match done_rx.recv_timeout(COLLECT_POLL) {
            Ok((rank, end, clock, stats)) => {
                slots[rank] = Some((end, clock, stats));
                finished += 1;
                stable = 0;
                continue;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        if let Some(cap) = options.wall_timeout {
            if started.elapsed() >= cap {
                monitor.abort();
                drain_stragglers(&done_rx, &mut slots, &mut finished);
                if let Some(e) = primary_failure(&slots) {
                    return Err(e);
                }
                let unfinished: Vec<usize> = (0..size).filter(|&r| slots[r].is_none()).collect();
                return Err(RunError::WallTimeout {
                    elapsed: started.elapsed(),
                    unfinished,
                });
            }
        }

        if options.deadlock_detection {
            let progress = monitor.progress();
            if progress != last_progress {
                last_progress = progress;
                stable = 0;
                continue;
            }
            let snapshot = monitor.snapshot();
            let waiting_on: Vec<(usize, usize, i64)> = snapshot
                .iter()
                .enumerate()
                .filter_map(|(rank, p)| match p {
                    RankPhase::Blocked { from, tag } => Some((rank, *from, *tag)),
                    _ => None,
                })
                .collect();
            let any_running = snapshot.contains(&RankPhase::Running);
            if any_running || waiting_on.is_empty() {
                stable = 0;
                continue;
            }
            // Every live rank is blocked and nothing moved: count silent
            // polls before declaring deadlock (a message hand-off or state
            // change would have bumped the progress counter).
            stable += 1;
            if stable >= DEADLOCK_STABLE_POLLS {
                monitor.abort();
                drain_stragglers(&done_rx, &mut slots, &mut finished);
                if let Some(e) = primary_failure(&slots) {
                    return Err(e);
                }
                return Err(RunError::Deadlock {
                    blocked_ranks: waiting_on.iter().map(|w| w.0).collect(),
                    waiting_on,
                });
            }
        }
    }

    if let Some(e) = primary_failure(&slots) {
        return Err(e);
    }
    let mut results = Vec::with_capacity(size);
    let mut local_times = Vec::with_capacity(size);
    let mut stats = Vec::with_capacity(size);
    for (rank, slot) in slots.into_iter().enumerate() {
        let Some((end, clock, st)) = slot else {
            return Err(RunError::RankPanicked {
                rank,
                payload: "rank thread vanished without reporting".into(),
            });
        };
        match end {
            RankEnd::Ok(r) => {
                results.push(r);
                local_times.push(clock);
                stats.push(st);
            }
            // primary_failure() above returned for panics and non-abort
            // comm failures; a stray Aborted still surfaces as an error.
            RankEnd::CommFail(error) => return Err(RunError::Comm { rank, error }),
            RankEnd::Panic(payload) => return Err(RunError::RankPanicked { rank, payload }),
        }
    }
    Ok(RunReport {
        results,
        local_times,
        stats,
    })
}

/// After an abort, give rank threads a bounded grace period to report, so
/// the error carries as much context as possible. Threads that still do not
/// finish (e.g. wedged in user compute code) are abandoned, never joined —
/// the engine must not hang.
fn drain_stragglers<R>(
    done_rx: &Receiver<(usize, RankEnd<R>, f64, CommStats)>,
    slots: &mut [RankSlot<R>],
    finished: &mut usize,
) {
    let deadline = Instant::now() + ABORT_GRACE;
    while *finished < slots.len() && Instant::now() < deadline {
        match done_rx.recv_timeout(COLLECT_POLL) {
            Ok((rank, end, clock, stats)) => {
                slots[rank] = Some((end, clock, stats));
                *finished += 1;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// The primary failure among collected outcomes: a genuine panic wins over
/// secondary communication failures (peers observing the dead rank), and
/// non-abort communication errors win over watchdog-abort fallout.
fn primary_failure<R>(slots: &[RankSlot<R>]) -> Option<RunError> {
    for (rank, slot) in slots.iter().enumerate() {
        if let Some((RankEnd::Panic(payload), ..)) = slot {
            return Some(RunError::RankPanicked {
                rank,
                payload: payload.clone(),
            });
        }
    }
    for (rank, slot) in slots.iter().enumerate() {
        if let Some((RankEnd::CommFail(e), ..)) = slot {
            // `Aborted` is watchdog fallout, never a primary cause — the
            // watchdog's own Deadlock/WallTimeout error describes the run.
            if *e != CommError::Aborted {
                return Some(RunError::Comm {
                    rank,
                    error: e.clone(),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Comm;

    #[test]
    fn single_rank_computes_locally() {
        let report = run_cluster(
            1,
            MachineModel::zero_comm(1e-3),
            EngineOptions::default(),
            |comm| {
                comm.advance_compute(5);
                comm.rank()
            },
        )
        .unwrap();
        assert_eq!(report.results, vec![0]);
        assert!((report.makespan() - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn ping_pong_virtual_times() {
        let model = MachineModel {
            compute_per_iter: 0.0,
            send_overhead: 1.0,
            recv_overhead: 2.0,
            wire_latency: 4.0,
            per_byte: 0.5,
        };
        let report = run_cluster(2, model, EngineOptions::default(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, vec![7.0, 8.0], 16);
                comm.local_time()
            } else {
                let v = comm.recv(0);
                assert_eq!(v, vec![7.0, 8.0]);
                comm.local_time()
            }
        })
        .unwrap();
        // Sender: 1 + 16·0.5 = 9. Receiver: max(0, 9 + 4) + 2 = 15.
        assert!((report.results[0] - 9.0).abs() < 1e-12);
        assert!((report.results[1] - 15.0).abs() < 1e-12);
        assert!((report.makespan() - 15.0).abs() < 1e-12);
        assert_eq!(report.total_bytes(), 16);
        assert_eq!(report.total_messages(), 1);
        assert_eq!(report.total_retransmissions(), 0);
    }

    #[test]
    fn fifo_order_per_pair() {
        let report = run_cluster(
            2,
            MachineModel::zero_comm(0.0),
            EngineOptions::default(),
            |comm| {
                if comm.rank() == 0 {
                    for i in 0..100 {
                        comm.send(1, vec![i as f64], 8);
                    }
                    0.0
                } else {
                    let mut last = -1.0;
                    for _ in 0..100 {
                        let v = comm.recv(0)[0];
                        assert!(v > last, "out of order");
                        last = v;
                    }
                    last
                }
            },
        )
        .unwrap();
        assert_eq!(report.results[1], 99.0);
    }

    #[test]
    fn pipeline_makespan_reflects_critical_path() {
        // 4-stage pipeline: each rank computes 10 iters then forwards.
        let model = MachineModel {
            compute_per_iter: 1.0,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            wire_latency: 2.0,
            per_byte: 0.0,
        };
        let report = run_cluster(4, model, EngineOptions::default(), |comm| {
            let r = comm.rank();
            if r > 0 {
                comm.recv(r - 1);
            }
            comm.advance_compute(10);
            if r < 3 {
                comm.send(r + 1, vec![], 0);
            }
            comm.local_time()
        })
        .unwrap();
        // Critical path: 4 × 10 compute + 3 × 2 latency = 46.
        assert!((report.makespan() - 46.0).abs() < 1e-12);
    }

    #[test]
    fn wait_time_is_tracked() {
        let model = MachineModel {
            compute_per_iter: 1.0,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            wire_latency: 0.0,
            per_byte: 0.0,
        };
        let report = run_cluster(2, model, EngineOptions::default(), |comm| {
            if comm.rank() == 0 {
                comm.advance_compute(100);
                comm.send(1, vec![], 0);
            } else {
                comm.recv(0);
            }
        })
        .unwrap();
        assert!((report.stats[1].wait_time - 100.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_runs() {
        let model = MachineModel::fast_ethernet_p3();
        let run = || {
            run_cluster(4, model, EngineOptions::default(), |comm| {
                let r = comm.rank();
                let n = comm.size();
                // Ring: compute, pass a token around twice.
                let mut acc = r as f64;
                for round in 0..2 {
                    comm.advance_compute(50 + r as u64);
                    comm.send((r + 1) % n, vec![acc], 8);
                    acc += comm.recv((r + n - 1) % n)[0] + round as f64;
                }
                (acc, comm.local_time())
            })
            .unwrap()
        };
        let a = run();
        let b = run();
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x, y);
        }
        assert_eq!(a.local_times, b.local_times);
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use crate::Comm;

    fn model() -> MachineModel {
        MachineModel {
            compute_per_iter: 1.0,
            send_overhead: 5.0,
            recv_overhead: 3.0,
            wire_latency: 2.0,
            per_byte: 0.0,
        }
    }

    fn pipeline_run(scheme: CommScheme) -> RunReport<f64> {
        run_cluster(
            3,
            model(),
            EngineOptions {
                scheme,
                ..EngineOptions::default()
            },
            |comm| {
                let r = comm.rank();
                if r > 0 {
                    comm.recv(r - 1);
                }
                comm.advance_compute(10);
                if r < 2 {
                    comm.send(r + 1, vec![], 0);
                }
                comm.local_time()
            },
        )
        .unwrap()
    }

    #[test]
    fn overlapped_sends_shorten_the_critical_path() {
        let blocking = pipeline_run(CommScheme::Blocking);
        let overlapped = pipeline_run(CommScheme::Overlapped);
        // Blocking: 10 + (5+2+3) + 10 + (5+2+3) + 10 = 50.
        assert!((blocking.makespan() - 50.0).abs() < 1e-12);
        // Overlapped: 10 + (5+2) + 10 + (5+2) + 10 = 44 — injection and
        // receive overheads are off the CPU, wire+bandwidth delay remains.
        assert!((overlapped.makespan() - 44.0).abs() < 1e-12);
    }

    #[test]
    fn drain_sends_pays_only_the_lane_overshoot() {
        let report = run_cluster(
            2,
            model(),
            EngineOptions {
                scheme: CommScheme::Overlapped,
                ..EngineOptions::default()
            },
            |comm| {
                if comm.rank() == 0 {
                    // Two back-to-back sends serialize on the NIC lane: the lane
                    // reaches 2 × 5 = 10 while the CPU clock stays at 0.
                    comm.send(1, vec![1.0], 0);
                    comm.send(1, vec![2.0], 0);
                    let before = comm.local_time();
                    let paid = comm.drain_sends();
                    assert!((before - 0.0).abs() < 1e-12);
                    assert!((paid - 10.0).abs() < 1e-12);
                    // Idempotent: a second drain finds an empty lane.
                    assert_eq!(comm.drain_sends(), 0.0);
                    comm.local_time()
                } else {
                    comm.recv(0);
                    comm.recv(0);
                    comm.drain_sends();
                    comm.local_time()
                }
            },
        )
        .unwrap();
        assert!((report.results[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn drain_after_compute_hides_the_lane() {
        // The send's lane time runs concurrently with the compute that
        // follows it, so the drain right after costs nothing.
        let report = run_cluster(
            2,
            model(),
            EngineOptions {
                scheme: CommScheme::Overlapped,
                ..EngineOptions::default()
            },
            |comm| {
                if comm.rank() == 0 {
                    comm.send(1, vec![1.0], 0);
                    comm.advance_compute(20); // 20 > send_cost 5: fully hides it
                    let paid = comm.drain_sends();
                    assert_eq!(paid, 0.0);
                    comm.local_time()
                } else {
                    comm.recv(0);
                    comm.local_time()
                }
            },
        )
        .unwrap();
        assert!((report.results[0] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn blocking_drain_is_a_no_op() {
        let report = run_cluster(
            2,
            model(),
            EngineOptions {
                scheme: CommScheme::Blocking,
                ..EngineOptions::default()
            },
            |comm| {
                if comm.rank() == 0 {
                    comm.send(1, vec![1.0], 0);
                    let t = comm.local_time();
                    assert_eq!(comm.drain_sends(), 0.0);
                    assert_eq!(comm.local_time(), t);
                } else {
                    comm.recv(0);
                }
                comm.local_time()
            },
        )
        .unwrap();
        assert!((report.results[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn receivers_account_accepted_bytes() {
        let report = pipeline_run(CommScheme::Overlapped);
        assert_eq!(report.total_bytes_received(), report.total_bytes());
        let faulty = run_cluster(
            3,
            MachineModel::fast_ethernet_p3(),
            EngineOptions {
                fault: Some(FaultPlan::chaos(0xABCD, 0.3)),
                ..EngineOptions::default()
            },
            |comm| {
                let r = comm.rank();
                let n = comm.size();
                let mut acc = r as f64;
                for round in 0..6 {
                    comm.advance_compute(10);
                    comm.send_tagged((r + 1) % n, round, vec![acc], 8);
                    acc += comm.recv_tagged((r + n - 1) % n, round)[0];
                }
                acc
            },
        )
        .unwrap();
        // Duplicate-suppressed envelopes must not double-count bytes.
        assert!(faulty.total_duplicates_suppressed() > 0 || faulty.total_retransmissions() > 0);
        assert_eq!(faulty.total_bytes_received(), faulty.total_bytes());
    }

    #[test]
    fn overlap_preserves_payloads_and_order() {
        let report = run_cluster(
            2,
            model(),
            EngineOptions {
                scheme: CommScheme::Overlapped,
                ..EngineOptions::default()
            },
            |comm| {
                if comm.rank() == 0 {
                    for i in 0..10 {
                        comm.send(1, vec![i as f64], 8);
                    }
                    0.0
                } else {
                    (0..10).map(|_| comm.recv(0)[0]).sum()
                }
            },
        )
        .unwrap();
        assert_eq!(report.results[1], 45.0);
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use crate::{Comm, Counter, Phase, VirtAcc};

    fn model() -> MachineModel {
        MachineModel {
            compute_per_iter: 1.0,
            send_overhead: 2.0,
            recv_overhead: 3.0,
            wire_latency: 4.0,
            per_byte: 0.5,
        }
    }

    #[test]
    fn virtual_accumulators_split_compute_and_wait() {
        let unit = MachineModel {
            compute_per_iter: 1.0,
            send_overhead: 1.0,
            recv_overhead: 1.0,
            wire_latency: 1.0,
            per_byte: 0.0,
        };
        let reg = MetricsRegistry::new();
        run_cluster(
            2,
            unit,
            EngineOptions {
                obs: Some(reg.clone()),
                ..EngineOptions::default()
            },
            |comm| {
                if comm.rank() == 0 {
                    comm.advance_compute(5);
                    comm.send(1, vec![], 0);
                } else {
                    comm.recv(0);
                    comm.advance_compute(3);
                }
            },
        )
        .unwrap();
        let (r0, r1) = (reg.rank_metrics(0), reg.rank_metrics(1));
        assert_eq!(r0.virt_get(VirtAcc::Compute), 5.0);
        assert_eq!(r1.virt_get(VirtAcc::Compute), 3.0);
        // Rank 1 waited for rank 0's message: 5 compute + 1 send + 1 wire = 7.
        assert_eq!(r1.virt_get(VirtAcc::Wait), 7.0);
        assert_eq!(r0.virt_get(VirtAcc::Wait), 0.0);
    }

    #[test]
    fn obs_partitions_every_rank_clock() {
        let reg = MetricsRegistry::new();
        let report = run_cluster(
            3,
            model(),
            EngineOptions {
                obs: Some(reg.clone()),
                ..EngineOptions::default()
            },
            |comm| {
                let r = comm.rank();
                if r > 0 {
                    comm.recv(r - 1);
                }
                comm.advance_compute(10);
                if r + 1 < comm.size() {
                    comm.send(r + 1, vec![1.0; 4], 32);
                }
            },
        )
        .unwrap();
        let obs_report = reg.run_report(&report.local_times);
        for r in &obs_report.ranks {
            assert!(
                (r.compute + r.wait + r.comm - r.local_time).abs() < 1e-9,
                "rank {}: {} + {} + {} != {}",
                r.rank,
                r.compute,
                r.wait,
                r.comm,
                r.local_time
            );
        }
        assert_eq!(obs_report.total(Counter::MessagesSent), 2);
        assert_eq!(obs_report.total(Counter::MessagesReceived), 2);
        assert_eq!(obs_report.total(Counter::BytesSent), 64);
        assert_eq!(obs_report.total(Counter::BytesReceived), 64);
        // Send and Recv spans from the ranks were flushed before collection.
        let spans = reg.spans();
        assert!(spans.iter().any(|s| s.phase == Phase::Send));
        assert!(spans.iter().any(|s| s.phase == Phase::Recv));
    }

    #[test]
    fn obs_accounts_faults_and_suppressions() {
        let reg = MetricsRegistry::new();
        let report = run_cluster(
            3,
            MachineModel::fast_ethernet_p3(),
            EngineOptions {
                fault: Some(FaultPlan::chaos(0xBEEF, 0.3)),
                obs: Some(reg.clone()),
                ..EngineOptions::default()
            },
            |comm| {
                let r = comm.rank();
                let n = comm.size();
                let mut acc = r as f64;
                for round in 0..6 {
                    comm.advance_compute(10);
                    comm.send_tagged((r + 1) % n, round, vec![acc], 8);
                    acc += comm.recv_tagged((r + n - 1) % n, round)[0];
                }
                acc
            },
        )
        .unwrap();
        let obs_report = reg.run_report(&report.local_times);
        // Exactly-once delivery under faults.
        assert_eq!(
            obs_report.total(Counter::MessagesReceived),
            obs_report.total(Counter::MessagesSent)
        );
        assert_eq!(
            obs_report.total(Counter::BytesReceived),
            obs_report.total(Counter::BytesSent)
        );
        // Every injected drop costs exactly one retransmission.
        assert_eq!(
            obs_report.total(Counter::Retransmits),
            obs_report.total(Counter::FaultDrops)
        );
        // A duplicate copy can only be suppressed if it was injected.
        assert!(obs_report.total(Counter::DupsSuppressed) <= obs_report.total(Counter::FaultDups));
        // And the obs counters agree with the engine's own stats.
        assert_eq!(
            obs_report.total(Counter::Retransmits),
            report.total_retransmissions()
        );
        assert_eq!(
            obs_report.total(Counter::DupsSuppressed),
            report.total_duplicates_suppressed()
        );
        for r in &obs_report.ranks {
            assert!(
                (r.compute + r.wait + r.comm - r.local_time).abs() < 1e-9,
                "faulty run must still partition rank {} clock",
                r.rank
            );
        }
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::Comm;

    fn zero() -> MachineModel {
        MachineModel::zero_comm(1.0)
    }

    #[test]
    fn rank_panic_is_contained_and_reported() {
        // Rank 1 panics mid-chain; ranks blocked on it must unwind, and the
        // run must report the panic — not abort the process, not hang.
        let err = run_cluster(3, zero(), EngineOptions::default(), |comm| {
            let r = comm.rank();
            if r == 1 {
                comm.advance_compute(1);
                panic!("intentional failure in rank 1");
            }
            // Both other ranks wait on rank 1 forever.
            comm.recv(1);
        })
        .unwrap_err();
        match err {
            RunError::RankPanicked { rank, payload } => {
                assert_eq!(rank, 1);
                assert!(payload.contains("intentional failure"), "{payload}");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn cyclic_schedule_is_reported_as_deadlock() {
        let err = run_cluster(2, zero(), EngineOptions::default(), |comm| {
            // Both ranks receive first: a 2-cycle, classic deadlock.
            let peer = 1 - comm.rank();
            comm.recv_tagged(peer, 7);
            comm.send(peer, vec![], 0);
        })
        .unwrap_err();
        match err {
            RunError::Deadlock {
                blocked_ranks,
                waiting_on,
            } => {
                assert_eq!(blocked_ranks, vec![0, 1]);
                assert!(waiting_on.contains(&(0, 1, 7)), "{waiting_on:?}");
                assert!(waiting_on.contains(&(1, 0, 7)), "{waiting_on:?}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn wall_timeout_bounds_a_wedged_run() {
        let options = EngineOptions {
            wall_timeout: Some(Duration::from_millis(300)),
            // The wedge below blocks only one of two ranks, so the deadlock
            // detector stays quiet and the cap must fire.
            ..EngineOptions::default()
        };
        let err = run_cluster(2, zero(), options, |comm| {
            if comm.rank() == 0 {
                // Wall-clock wedge the virtual engine knows nothing about.
                std::thread::sleep(Duration::from_secs(600));
            } else {
                comm.recv(0);
            }
        })
        .unwrap_err();
        match err {
            RunError::WallTimeout { unfinished, .. } => {
                assert!(unfinished.contains(&0), "{unfinished:?}");
            }
            other => panic!("expected WallTimeout, got {other:?}"),
        }
    }

    #[test]
    fn injected_crash_is_reported_with_virtual_time() {
        let fault = FaultPlan::default().with_crash(2, 5.0);
        let options = EngineOptions {
            fault: Some(fault),
            ..EngineOptions::default()
        };
        let err = run_cluster(4, zero(), options, |comm| {
            let r = comm.rank();
            // A chain 0 → 1 → 2 → 3; rank 2 dies at t = 5.
            if r > 0 {
                comm.recv(r - 1);
            }
            comm.advance_compute(10);
            if r + 1 < comm.size() {
                comm.send(r + 1, vec![], 0);
            }
        })
        .unwrap_err();
        match err {
            RunError::RankPanicked { rank, payload } => {
                assert_eq!(rank, 2);
                assert!(payload.contains("injected crash"), "{payload}");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn lossy_links_converge_to_fault_free_results() {
        let run = |fault: Option<FaultPlan>| {
            run_cluster(
                4,
                MachineModel::fast_ethernet_p3(),
                EngineOptions {
                    fault,
                    ..EngineOptions::default()
                },
                |comm| {
                    let r = comm.rank();
                    let n = comm.size();
                    let mut acc = (r + 1) as f64;
                    for round in 0..8 {
                        comm.advance_compute(20 + r as u64);
                        comm.send_tagged((r + 1) % n, round, vec![acc, acc * 0.5], 16);
                        let got = comm.recv_tagged((r + n - 1) % n, round);
                        acc += got[0] * 0.25 + got[1];
                    }
                    acc
                },
            )
            .unwrap()
        };
        let clean = run(None);
        let faulty = run(Some(FaultPlan::chaos(0xF00D, 0.3)));
        // Bitwise-identical data; only the clocks may differ (retransmission
        // charges), and the reliability layer's work must be visible.
        for (a, b) in clean.results.iter().zip(&faulty.results) {
            assert_eq!(a.to_bits(), b.to_bits(), "data must survive faults bitwise");
        }
        assert!(
            faulty.total_retransmissions() > 0,
            "drops must cause retransmissions"
        );
        assert!(
            faulty.total_duplicates_suppressed() > 0,
            "duplicates must be suppressed"
        );
        assert!(
            faulty.makespan() >= clean.makespan(),
            "faults cannot speed the run up"
        );
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let run = || {
            run_cluster(
                3,
                MachineModel::fast_ethernet_p3(),
                EngineOptions {
                    fault: Some(FaultPlan::chaos(42, 0.25)),
                    ..EngineOptions::default()
                },
                |comm| {
                    let r = comm.rank();
                    let n = comm.size();
                    let mut acc = r as f64;
                    for round in 0..6 {
                        comm.advance_compute(10);
                        comm.send_tagged((r + 1) % n, round, vec![acc], 8);
                        acc += comm.recv_tagged((r + n - 1) % n, round)[0];
                    }
                    (acc, comm.local_time())
                },
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.local_times, b.local_times);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn total_drop_reports_retransmit_exhausted() {
        let fault = FaultPlan {
            max_retries: 4,
            ..FaultPlan::lossy(1, 1.0)
        };
        let options = EngineOptions {
            fault: Some(fault),
            ..EngineOptions::default()
        };
        let err = run_cluster(2, zero(), options, |comm| {
            if comm.rank() == 0 {
                comm.send_tagged(1, 9, vec![1.0], 8);
            } else {
                comm.recv_tagged(0, 9);
            }
        })
        .unwrap_err();
        match err {
            RunError::Comm {
                rank: 0,
                error:
                    CommError::RetransmitExhausted {
                        rank: 1,
                        tag: 9,
                        attempts,
                    },
            } => {
                assert_eq!(attempts, 5);
            }
            other => panic!("expected Comm/RetransmitExhausted, got {other:?}"),
        }
    }

    #[test]
    fn crash_without_recovery_policy_still_fails() {
        let fault = FaultPlan::default().with_crash(1, 5.0);
        let options = EngineOptions {
            fault: Some(fault),
            ..EngineOptions::default()
        };
        let err = run_cluster(2, zero(), options, |comm| {
            comm.advance_compute(10);
            comm.advance_compute(10);
        })
        .unwrap_err();
        match err {
            RunError::RankPanicked { rank, payload } => {
                assert_eq!(rank, 1);
                assert!(payload.contains("injected crash"), "{payload}");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn stall_shifts_the_victims_clock_only() {
        let model = MachineModel::zero_comm(1.0);
        let clean = run_cluster(2, model, EngineOptions::default(), |comm| {
            comm.advance_compute(10);
            comm.local_time()
        })
        .unwrap();
        let stalled = run_cluster(
            2,
            model,
            EngineOptions {
                fault: Some(FaultPlan::default().with_stall(1, 5.0, 100.0)),
                ..EngineOptions::default()
            },
            |comm| {
                comm.advance_compute(10);
                // A second op so the stall (triggered at t >= 5) fires.
                comm.advance_compute(10);
                comm.local_time()
            },
        )
        .unwrap();
        assert_eq!(clean.results[0] + 10.0, stalled.results[0]);
        assert_eq!(stalled.results[1], stalled.results[0] + 100.0);
    }
}
