//! The one supervisor every run goes through, whether its ranks are
//! threads over channels, threads over sockets or worker processes.
//!
//! `supervise` owns the table of rank outcomes, the wall cap, the
//! deadlock rule (every rank still running is blocked in a receive and no
//! progress count moved for `DEADLOCK_WINDOW`, 600 ms of wall time), the
//! grace drain (once a rank failed or the watchdog tripped, the rest get
//! at most `ABORT_GRACE`, 1 s, to report) and the one failure fold. An
//! engine supplies a `Feed`: its events, its view of rank phases and its
//! abort action. The loop wakes as each event lands, and at least every
//! 10 ms to run its timers.

use crate::error::{CommError, RunError};
use crate::rank::RankEnd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest the supervisor sleeps between timer checks when no event lands.
const COLLECT_POLL: Duration = Duration::from_millis(10);
/// Wall time every rank still running must stay blocked, with no progress
/// count moving, before the watchdog declares a deadlock. It must
/// comfortably exceed [`crate::HEARTBEAT_PERIOD`], so a quiet but alive
/// worker process is never misread.
pub(crate) const DEADLOCK_WINDOW: Duration = Duration::from_millis(600);
/// How long the remaining ranks get to report once the run is decided.
pub(crate) const ABORT_GRACE: Duration = Duration::from_secs(1);

/// The `RankPanicked` payload of a rank that vanished without reporting.
const VANISHED: &str = "rank died without reporting a result";
/// `Aborted` fallout's place in the fold: after every primary cause.
const ABORTED: u8 = 3;

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

/// Shared run state of the ranks in one process: per-rank phases, a
/// progress counter bumped on every state change and message hand-off, and
/// the abort flag. The in-process runners' [`Feed`] reads it directly; a
/// worker process streams its own rank's view to the driver in `PROGRESS`
/// heartbeats.
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

/// An engine's side of [`supervise`].
pub(crate) trait Feed {
    /// What a rank that finished successfully reports.
    type Out;

    /// Wait up to `timeout` for the next event, then apply it and every
    /// event already queued behind it, recording each rank outcome in
    /// `ends`. Returns `false` once no event can ever arrive again.
    fn pump(&mut self, timeout: Duration, ends: &mut [Option<RankEnd<Self::Out>>]) -> bool;

    /// Every rank's phase, and a count that moves whenever any rank makes
    /// progress.
    fn watch(&self) -> (Vec<RankPhase>, u64);

    /// Tell every rank still running to give up. Whatever a rank reports
    /// afterwards because of it is [`CommError::Aborted`] fallout.
    fn abort(&mut self);
}

impl<R> RankEnd<R> {
    /// The error this end reports for `rank` with its place in the fold
    /// (lowest wins): a panic, then a communication error, then a vanished
    /// rank, and last `Aborted`, which is watchdog fallout and never the
    /// primary cause. `None` for a success.
    pub(crate) fn failure(&self, rank: usize) -> Option<(u8, RunError)> {
        let panicked = |payload: &str| RunError::RankPanicked {
            rank,
            payload: payload.into(),
        };
        Some(match self {
            RankEnd::Ok(_) => return None,
            RankEnd::Panic(payload) => (0, panicked(payload)),
            RankEnd::CommFail(error) => {
                let order = if *error == CommError::Aborted {
                    ABORTED
                } else {
                    1
                };
                let error = error.clone();
                (order, RunError::Comm { rank, error })
            }
            RankEnd::Vanished => (2, panicked(VANISHED)),
        })
    }
}

/// Supervise one run of `size` ranks fed by `feed` to its per-rank
/// results, in rank order, or its one [`RunError`] (see the
/// [module docs](self)). `wall_cap` bounds the run's wall time.
pub(crate) fn supervise<F: Feed>(
    feed: &mut F,
    size: usize,
    wall_cap: Option<Duration>,
) -> Result<Vec<F::Out>, RunError> {
    let started = Instant::now();
    let mut ends: Vec<Option<RankEnd<F::Out>>> = (0..size).map(|_| None).collect();
    let mut live;
    // The progress count while every running rank is blocked, and since
    // when it has not moved.
    let mut quiet: Option<(u64, Instant)> = None;
    let tripped = loop {
        live = feed.pump(COLLECT_POLL, &mut ends);
        let failed = ends.iter().flatten().any(|e| !matches!(e, RankEnd::Ok(_)));
        if !live || failed || ends.iter().all(Option::is_some) {
            break None;
        }
        if wall_cap.is_some_and(|cap| started.elapsed() >= cap) {
            let unfinished = (0..size).filter(|&r| ends[r].is_none()).collect();
            let elapsed = started.elapsed();
            break Some(RunError::WallTimeout {
                elapsed,
                unfinished,
            });
        }
        let (phases, progress) = feed.watch();
        if let Some(deadlock) = deadlocked(&phases, progress, &ends, &mut quiet) {
            break Some(deadlock);
        }
    };
    if tripped.is_some() {
        feed.abort();
    }
    let deadline = Instant::now() + ABORT_GRACE;
    while live && ends.iter().any(Option::is_none) && Instant::now() < deadline {
        live = feed.pump(
            deadline.saturating_duration_since(Instant::now()),
            &mut ends,
        );
    }
    if !live {
        for end in ends.iter_mut().filter(|e| e.is_none()) {
            *end = Some(RankEnd::Vanished);
        }
    }
    let result = fold(ends, tripped);
    if result.is_err() {
        feed.abort();
    }
    result
}

/// The deadlock rule: every rank without an outcome is blocked in a
/// receive (none running), and `progress` has stood still for
/// [`DEADLOCK_WINDOW`] — tracked in `quiet`.
fn deadlocked<T>(
    phases: &[RankPhase],
    progress: u64,
    ends: &[Option<RankEnd<T>>],
    quiet: &mut Option<(u64, Instant)>,
) -> Option<RunError> {
    let live = phases
        .iter()
        .enumerate()
        .filter(|(r, _)| ends[*r].is_none());
    let waiting_on: Vec<(usize, usize, i64)> = live
        .clone()
        .filter_map(|(rank, phase)| match *phase {
            RankPhase::Blocked { from, tag } => Some((rank, from, tag)),
            _ => None,
        })
        .collect();
    if waiting_on.is_empty() || live.clone().any(|(_, p)| *p == RankPhase::Running) {
        *quiet = None;
        return None;
    }
    match quiet {
        Some((since_progress, since)) if *since_progress == progress => {
            (since.elapsed() >= DEADLOCK_WINDOW).then(|| RunError::Deadlock {
                blocked_ranks: waiting_on.iter().map(|w| w.0).collect(),
                waiting_on,
            })
        }
        _ => {
            *quiet = Some((progress, Instant::now()));
            None
        }
    }
}

/// Fold the outcome table into the run's result: the primary failure
/// (lowest rank on a tie), else the watchdog's verdict, else stray abort
/// fallout, else every rank's result.
fn fold<T>(ends: Vec<Option<RankEnd<T>>>, tripped: Option<RunError>) -> Result<Vec<T>, RunError> {
    let failure = ends
        .iter()
        .enumerate()
        .filter_map(|(rank, end)| end.as_ref()?.failure(rank))
        .min_by_key(|(order, _)| *order);
    match (failure, tripped) {
        (Some((order, error)), _) if order < ABORTED => Err(error),
        (_, Some(verdict)) | (Some((_, verdict)), None) => Err(verdict),
        (None, None) => Ok(ends
            .into_iter()
            .map(|end| match end {
                Some(RankEnd::Ok(out)) => out,
                _ => unreachable!("no failure and no verdict: every rank succeeded"),
            })
            .collect()),
    }
}
