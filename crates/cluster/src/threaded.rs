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
//! * The [supervisor](crate::supervise) every engine shares reports a
//!   cyclic schedule as [`RunError::Deadlock`] naming the blocked ranks,
//!   and optionally caps wall time ([`RunError::WallTimeout`]), so a
//!   wedged run can never hang the caller forever.
//!
//! Everything a rank does to its virtual clock lives in the shared
//! [`RankCore`]; this module supplies its in-process [`ChannelLink`], the
//! run options and report, and the rank-thread launcher of both
//! in-process runners.

use crate::comm::{CommAbort, Envelope};
use crate::error::{spawn, CommError, RunError};
use crate::fault::FaultPlan;
use crate::model::MachineModel;
use crate::obs::{Counter, MetricsRegistry, RankObs, StatsSnapshot};
use crate::rank::{run_rank, Link, RankCore, RankEnd, RunShared};
use crate::supervise::{supervise, Feed, Monitor, RankPhase};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Once};
use std::thread;
use std::time::Duration;

/// How often a blocked receiver wakes to check the abort flag.
pub(crate) const RECV_POLL: Duration = Duration::from_millis(25);

/// Outcome of a cluster run.
#[derive(Clone, Debug)]
pub struct RunReport<R> {
    /// Per-rank results returned by the SPMD closure.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks.
    pub local_times: Vec<f64>,
    /// Per-rank final metrics: every counter and virtual accumulator, the
    /// clock split included ([`StatsSnapshot::compute_time`] and its
    /// siblings).
    pub stats: Vec<StatsSnapshot>,
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

    /// One counter summed over every rank.
    pub fn total(&self, c: Counter) -> u64 {
        self.stats.iter().map(|s| s.counter(c)).sum()
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
/// With a policy attached the executor calls [`RankCore::checkpoint`] every
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
/// the wall cap and observability.
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
/// wall cap and observability. Failures come back as [`RunError`]s: one
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
    let mut links: Vec<ChannelLink> = (0..size)
        .map(|_| ChannelLink {
            txs: (0..size).map(|_| None).collect(),
            rxs: (0..size).map(|_| None).collect(),
        })
        .collect();
    for from in 0..size {
        for to in (0..size).filter(|&to| to != from) {
            let (tx, rx) = channel();
            links[from].txs[to] = Some(tx);
            links[to].rxs[from] = Some(rx);
        }
    }
    let links = links.into_iter().map(|link| move |_: &RunShared| Ok(link));
    launch("tilecc-rank", size, model, &options, links, f)
}

/// The rank-thread launcher of both in-process runners: one thread per
/// rank (named `{name}-{rank}`) builds its link with its entry of `links`
/// and runs `f` on the endpoint, while this thread supervises the run. The
/// runners differ only in how a rank gets its link; one that fails to get
/// it reports the error as its outcome. A rank thread the system refuses to
/// start aborts the ranks already running and fails the run as
/// [`RunError::Comm`].
pub(crate) fn launch<L, M, R, F>(
    name: &str,
    size: usize,
    model: MachineModel,
    options: &EngineOptions,
    links: impl IntoIterator<Item = M>,
    f: F,
) -> Result<RunReport<R>, RunError>
where
    L: Link,
    M: FnOnce(&RunShared) -> Result<L, CommError> + Send + 'static,
    R: Send + 'static,
    F: Fn(&mut RankCore<L>) -> R + Send + Sync + 'static,
{
    install_quiet_panic_hook();
    let shared = RunShared::new(size, model, options);
    let f = Arc::new(f);
    let (done_tx, done_rx) = channel();
    for (rank, link) in links.into_iter().enumerate() {
        let (f, done, run) = (f.clone(), done_tx.clone(), shared.clone());
        let builder = thread::Builder::new().name(format!("{name}-{rank}"));
        let started = spawn(builder, "rank", move || {
            let end = link(&run).map_or_else(RankEnd::CommFail, |link| {
                run_rank(run.core(rank, link), |comm| f(comm))
            });
            let _ = done.send((rank, end));
        });
        if let Err(error) = started {
            // Started ranks block on the missing one; the abort ends them.
            shared.monitor.abort();
            return Err(RunError::Comm { rank, error });
        }
    }
    drop(done_tx);
    let mut feed = Threads {
        monitor: &shared.monitor,
        done: done_rx,
    };
    let ranks = supervise(&mut feed, size, options.wall_timeout)?;
    let (results, ends): (Vec<R>, Vec<_>) = ranks.into_iter().map(|(r, t, s)| (r, (t, s))).unzip();
    let (local_times, stats) = ends.into_iter().unzip();
    Ok(RunReport {
        results,
        local_times,
        stats,
    })
}

/// How one rank thread ended, with its final clock and metrics.
pub(crate) type ThreadEnd<R> = RankEnd<(R, f64, StatsSnapshot)>;

/// The in-process runners' [`Feed`]: outcomes off the rank threads' done
/// channel, phases and progress off the shared [`Monitor`], and the
/// monitor's abort flag, which every blocked receive polls.
pub(crate) struct Threads<'a, R> {
    pub(crate) monitor: &'a Monitor,
    pub(crate) done: Receiver<(usize, ThreadEnd<R>)>,
}

impl<R> Feed for Threads<'_, R> {
    type Out = (R, f64, StatsSnapshot);

    fn pump(&mut self, timeout: Duration, ends: &mut [Option<ThreadEnd<R>>]) -> bool {
        // A disconnected channel means every rank thread has exited.
        let first = match self.done.recv_timeout(timeout) {
            Ok(first) => first,
            Err(e) => return e == RecvTimeoutError::Timeout,
        };
        for (rank, end) in std::iter::once(first).chain(self.done.try_iter()) {
            ends[rank] = Some(end);
        }
        true
    }

    fn watch(&self) -> (Vec<RankPhase>, u64) {
        let progress = self.monitor.progress();
        (self.monitor.snapshot(), progress)
    }

    fn abort(&mut self) {
        self.monitor.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(report.total(Counter::BytesSent), 16);
        assert_eq!(report.total(Counter::MessagesSent), 1);
        assert_eq!(report.total(Counter::Retransmits), 0);
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
        assert!((report.stats[1].wait_time() - 100.0).abs() < 1e-12);
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
        assert_eq!(
            report.total(Counter::BytesReceived),
            report.total(Counter::BytesSent)
        );
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
        assert!(
            faulty.total(Counter::DupsSuppressed) > 0 || faulty.total(Counter::Retransmits) > 0
        );
        assert_eq!(
            faulty.total(Counter::BytesReceived),
            faulty.total(Counter::BytesSent)
        );
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
    use crate::{Counter, Phase, VirtAcc};

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
            report.total(Counter::Retransmits)
        );
        assert_eq!(
            obs_report.total(Counter::DupsSuppressed),
            report.total(Counter::DupsSuppressed)
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
            faulty.total(Counter::Retransmits) > 0,
            "drops must cause retransmissions"
        );
        assert!(
            faulty.total(Counter::DupsSuppressed) > 0,
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
    fn a_failure_is_folded_after_the_grace_not_when_every_rank_is_done() {
        // Rank 1 computes far past the grace without communicating, so
        // nothing tells it rank 0 is gone: the run must not wait for it.
        let t0 = std::time::Instant::now();
        let err = run_cluster(2, zero(), EngineOptions::default(), |comm| {
            if comm.rank() == 0 {
                panic!("rank 0 fails first");
            }
            std::thread::sleep(Duration::from_secs(10));
        })
        .unwrap_err();
        let waited = t0.elapsed();
        match err {
            RunError::RankPanicked { rank: 0, payload } => {
                assert!(payload.contains("fails first"), "{payload}");
            }
            other => panic!("expected RankPanicked for rank 0, got {other:?}"),
        }
        let bound = crate::supervise::ABORT_GRACE + Duration::from_secs(2);
        assert!(waited < bound, "folded after {waited:?}");
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
