//! The rank core: everything one rank does to its virtual clock, written
//! once for both transports.
//!
//! [`RankCore`] owns the clock, the overlapped scheme's comm lane, the
//! rank's metrics slot (the one account of every comm event and clock
//! charge, read as a [`crate::StatsSnapshot`]), the observability handle,
//! the reliability state (per-link sequence numbers, reorder holdback,
//! MPI-style tag-matching buffers), the injected faults and the
//! crash-recovery control, and is the one communication interface rank
//! bodies program against. A transport only supplies a [`Link`]: push one
//! envelope to a peer, poll the next envelope from a peer with a timeout,
//! and name a closed peer's [`CommError`]. [`crate::ThreadedComm`] and [`crate::TcpComm`] are
//! this core over the channel link and the socket link, so for the same
//! program the two backends produce bitwise-identical data, clocks and
//! counters by construction.

use crate::comm::{CommAbort, Envelope, Restored};
use crate::error::CommError;
use crate::fault::{FaultPlan, RankStall};
use crate::model::MachineModel;
use crate::obs::{
    Counter, GaugeId, HistId, MetricsRegistry, Phase, RankMetrics, RankObs, SpanEdge,
    StatsSnapshot, VirtAcc,
};
use crate::reliability::{retransmit_pauses, Admit, LinkSeq, ReplayLog};
use crate::supervise::{Monitor, RankPhase};
use crate::threaded::{CommScheme, EngineOptions, InjectedCrash, RECV_POLL};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A transport under a [`RankCore`]: moves envelopes between ranks and
/// knows nothing of clocks, faults or sequence numbers.
pub trait Link {
    /// Hand `env` to the transport towards `to`. Returns `false` when the
    /// peer's side of the link is closed.
    fn push(&self, to: usize, env: Envelope, obs: Option<&RankObs>) -> bool;

    /// The next envelope from `from`, waiting at most `timeout`.
    fn poll(&self, from: usize, timeout: Duration) -> Result<Envelope, RecvTimeoutError>;

    /// This transport's error for a closed link to `peer`.
    fn closed(peer: usize) -> CommError;

    /// Persist a checkpoint outside the process and return the bytes
    /// written, or `None` to keep it in memory for an in-place restore (the
    /// default). `logs` is the run's replay-log matrix.
    fn persist(
        &mut self,
        _rank: usize,
        _ckpt: &CkptState,
        _logs: &ReplayLogs,
        _links: &LinkSeq,
    ) -> Option<u64> {
        None
    }
}

/// Shared sender-side replay logs: `logs[from][to]` retains the envelopes
/// `from` pushed to `to` until `to`'s checkpoint acknowledges them.
pub(crate) type ReplayLogs = Arc<Vec<Vec<Mutex<ReplayLog>>>>;

/// A replay-log matrix for a world of `size` ranks (diagonal unused).
pub(crate) fn new_replay_logs(size: usize) -> ReplayLogs {
    Arc::new(
        (0..size)
            .map(|_| (0..size).map(|_| Mutex::new(ReplayLog::new())).collect())
            .collect(),
    )
}

/// One rank's checkpoint: everything needed to rewind the endpoint to a
/// chain position and re-execute deterministically from there.
pub struct CkptState {
    /// Chain position the checkpoint was taken at.
    pub(crate) chain_pos: u64,
    /// Opaque application snapshot (LDS values + logical counters).
    pub(crate) app: Vec<u8>,
    pub(crate) clock: f64,
    pub(crate) comm_lane: f64,
    pub(crate) lane_busy: f64,
    /// The rank's counters and virtual accumulators at the checkpoint.
    pub(crate) metrics: StatsSnapshot,
    /// Outgoing sequence frontier per link.
    pub(crate) next: Vec<u64>,
    /// Incoming expected-sequence frontier per link.
    pub(crate) expect: Vec<u64>,
    /// Arrived-but-unmatched envelopes (MPI tag-matching buffers).
    pub(crate) pending: Vec<Vec<Envelope>>,
}

/// Per-rank recovery state (`Some` only with a recovery policy).
pub(crate) struct RecoveryCtl {
    /// Checkpoint cadence requested from the executor.
    pub(crate) interval: u64,
    /// Run-wide remaining-restores budget, shared across ranks.
    pub(crate) budget: Arc<AtomicU64>,
    /// The run's sender-side replay logs.
    pub(crate) logs: ReplayLogs,
    /// Latest in-memory checkpoint (overwritten each interval; `None` when
    /// the link persists checkpoints itself).
    pub(crate) ckpt: Option<CkptState>,
    /// Re-execution send frontier per outgoing link: sends with
    /// `seq < resend_skip[to]` redo all virtual accounting but skip the
    /// physical push — the receiver already holds those envelopes.
    pub(crate) resend_skip: Vec<u64>,
    /// Virtual seconds rewound over, re-charged once at settle time.
    pub(crate) debt: f64,
    /// Restores performed by this rank.
    pub(crate) used: u64,
    /// Resume state loaded before the rank body started (respawned worker
    /// processes), handed to the executor once.
    pub(crate) resume: Option<Restored>,
}

/// What every rank of one run shares; [`RunShared::core`] builds each
/// rank's endpoint from it.
#[derive(Clone)]
pub(crate) struct RunShared {
    pub(crate) size: usize,
    pub(crate) model: MachineModel,
    pub(crate) scheme: CommScheme,
    pub(crate) fault: Option<Arc<FaultPlan>>,
    pub(crate) monitor: Arc<Monitor>,
    pub(crate) obs: Option<Arc<MetricsRegistry>>,
    /// Checkpoint cadence, run-wide restore budget and replay logs.
    pub(crate) recovery: Option<(u64, Arc<AtomicU64>, ReplayLogs)>,
}

impl RunShared {
    pub(crate) fn new(size: usize, model: MachineModel, options: &EngineOptions) -> RunShared {
        RunShared {
            size,
            model,
            scheme: options.scheme,
            fault: options.fault.clone().map(Arc::new),
            monitor: Arc::new(Monitor::new(size)),
            obs: options.obs.clone(),
            recovery: options.recovery.map(|r| {
                (
                    r.interval.max(1),
                    Arc::new(AtomicU64::new(r.max_recoveries)),
                    new_replay_logs(size),
                )
            }),
        }
    }

    /// Rank `rank`'s endpoint over `link`, at virtual time zero.
    pub(crate) fn core<L>(&self, rank: usize, link: L) -> RankCore<L> {
        let size = self.size;
        let obs = self.obs.as_ref().map(|reg| RankObs::new(reg.clone(), rank));
        RankCore {
            rank,
            size,
            model: self.model,
            scheme: self.scheme,
            clock: 0.0,
            comm_lane: 0.0,
            lane_busy: 0.0,
            metrics: obs
                .as_ref()
                .map_or_else(|| Arc::new(RankMetrics::new()), RankObs::metrics),
            pending: vec![Vec::new(); size],
            monitor: self.monitor.clone(),
            crash_at: self.fault.as_ref().and_then(|fp| fp.crash_time(rank)),
            stall: self.fault.as_ref().and_then(|fp| fp.stall_of(rank)),
            fault: self.fault.clone(),
            links: LinkSeq::new(size),
            holdback: vec![None; size],
            obs,
            recovery: self
                .recovery
                .as_ref()
                .map(|(interval, budget, logs)| RecoveryCtl {
                    interval: *interval,
                    budget: budget.clone(),
                    logs: logs.clone(),
                    ckpt: None,
                    resend_skip: vec![0; size],
                    debt: 0.0,
                    used: 0,
                    resume: None,
                }),
            link,
        }
    }
}

/// One rank's communication endpoint: blocking point-to-point messages
/// with a virtual clock, over a transport link (see the
/// [module docs](self)).
///
/// # Contract
///
/// * **Blocking semantics** — [`RankCore::try_recv_tagged`] blocks until a
///   matching message arrives (or the engine aborts the run); sends may
///   buffer but never reorder. There is no nonblocking probe.
/// * **Tag matching** — receives match on `(from, tag)` like
///   `MPI_Recv`: messages from `from` with a different tag are buffered
///   and do not satisfy the call, in arrival order per tag.
/// * **FIFO per link** — between a fixed (sender, receiver) pair,
///   messages with the same tag are delivered in send order.
/// * **Delivery under faults** — with a [`crate::FaultPlan`] attached,
///   the reliability sublayer restores *exactly-once, in-order* delivery:
///   drops are retransmitted (charged to the sender's virtual clock),
///   duplicates are suppressed at the receiver, reordered arrivals are
///   re-sequenced. Only an unreachable peer (every retry dropped) or a
///   dead peer surfaces as a [`CommError`].
/// * **Virtual time** — every operation advances the caller's clock per
///   the [`MachineModel`]; one run yields both data and simulated time.
///
/// Communication is fallible at the substrate level:
/// [`RankCore::try_send_tagged`] and [`RankCore::try_recv_tagged`] report
/// disconnected or unreachable peers as [`CommError`]s. The infallible
/// [`RankCore::send_tagged`] and [`RankCore::recv_tagged`] used by
/// generated programs panic with a [`CommAbort`] payload instead, which the
/// engine folds into the run-level error rather than treating it as a
/// program bug.
///
/// Backends: [`crate::ThreadedComm`] (in-process channels) and
/// [`crate::TcpComm`] (sockets, in- or multi-process).
pub struct RankCore<L> {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) model: MachineModel,
    pub(crate) scheme: CommScheme,
    pub(crate) clock: f64,
    /// NIC lane for the overlapped scheme: the virtual time the lane
    /// finishes its last queued injection. Sends serialize on the lane
    /// (`max(lane, clock) + send_cost`) instead of charging the CPU clock;
    /// [`RankCore::drain_sends`] max-merges the lane back into the clock.
    pub(crate) comm_lane: f64,
    /// Lane busy time accumulated since the last drain (for the
    /// `overlap_hidden` accounting).
    pub(crate) lane_busy: f64,
    /// The rank's counters and virtual accumulators: the registry's slot
    /// when the run observes, a private one otherwise.
    pub(crate) metrics: Arc<RankMetrics>,
    /// Per-peer buffers of arrived-but-unmatched messages (MPI-style tag
    /// matching).
    pub(crate) pending: Vec<Vec<Envelope>>,
    /// Shared watchdog state.
    pub(crate) monitor: Arc<Monitor>,
    pub(crate) fault: Option<Arc<FaultPlan>>,
    /// This rank's injected crash time, if any (cleared once restored).
    pub(crate) crash_at: Option<f64>,
    /// This rank's injected stall, if any (cleared once fired).
    pub(crate) stall: Option<RankStall>,
    /// Reliability layer: per-link sequence state (duplicate suppression,
    /// re-sequencing).
    pub(crate) links: LinkSeq,
    /// Reorder injection: at most one held-back envelope per outgoing link,
    /// released after the next message on that link (or at the next
    /// blocking receive / rank exit, so a hold can never cause deadlock).
    pub(crate) holdback: Vec<Option<Envelope>>,
    /// Observability handle (`None` unless the run has a registry). Its
    /// buffered spans flush to the registry when the endpoint drops.
    pub(crate) obs: Option<RankObs>,
    pub(crate) recovery: Option<RecoveryCtl>,
    pub(crate) link: L,
}

impl<L: Link> RankCore<L> {
    /// Fire any virtual-time-triggered faults for this rank: a stall jumps
    /// the clock forward once; a crash panics (contained by the engine).
    fn fault_tick(&mut self) {
        if let Some(stall) = self.stall {
            if self.clock >= stall.at {
                self.stall = None;
                self.clock += stall.duration;
                self.metrics.virt_add(VirtAcc::Stall, stall.duration);
            }
        }
        if let Some(at) = self.crash_at {
            if self.clock >= at {
                std::panic::panic_any(InjectedCrash {
                    rank: self.rank,
                    at,
                    clock: self.clock,
                });
            }
        }
    }

    /// Inject one envelope into a link. After a watchdog abort, peers
    /// unwind and close their links; that is fallout, not a cause.
    fn push(&self, to: usize, env: Envelope) -> Result<(), CommError> {
        self.monitor.bump();
        if self.link.push(to, env, self.obs.as_ref()) {
            Ok(())
        } else if self.monitor.aborted() {
            Err(CommError::Aborted)
        } else {
            Err(L::closed(to))
        }
    }

    /// Inject a *redundant* envelope — a duplicate copy or a released
    /// reorder hold whose payload has already been (or will be) delivered by
    /// a primary copy. A receiver that exited in the meantime simply never
    /// sees it: erroring here would make the run outcome depend on the
    /// real-time race between this push and the peer's exit.
    fn push_redundant(&self, to: usize, env: Envelope) -> Result<(), CommError> {
        match self.push(to, env) {
            Err(e) if e == L::closed(to) => Ok(()),
            other => other,
        }
    }

    /// Release every held-back (reorder-injected) envelope. Called before
    /// any blocking receive, before a restore and at rank exit, so a hold
    /// cannot deadlock.
    fn flush_holdbacks(&mut self) -> Result<(), CommError> {
        for to in 0..self.size {
            if let Some(env) = self.holdback[to].take() {
                self.push_redundant(to, env)?;
            }
        }
        Ok(())
    }

    /// The next in-sequence envelope from `from`: suppresses duplicates and
    /// re-sequences out-of-order arrivals by sequence number, waking
    /// periodically to honour a watchdog abort. `tag` is only for the
    /// watchdog's diagnostics.
    fn next_in_order(&mut self, from: usize, tag: i64) -> Result<Envelope, CommError> {
        if let Some(env) = self.links.take_ready(from) {
            return Ok(env);
        }
        self.monitor
            .set(self.rank, RankPhase::Blocked { from, tag });
        let result = loop {
            match self.link.poll(from, RECV_POLL) {
                Ok(env) => {
                    self.monitor.bump();
                    match self.links.admit(from, env) {
                        Admit::Deliver(env) => break Ok(env),
                        Admit::Duplicate => self.metrics.add(Counter::DupsSuppressed, 1),
                        Admit::Buffered => {}
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.monitor.aborted() {
                        break Err(CommError::Aborted);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    break Err(if self.monitor.aborted() {
                        CommError::Aborted
                    } else {
                        L::closed(from)
                    });
                }
            }
        };
        self.monitor.set(self.rank, RankPhase::Running);
        result
    }

    /// Rewind the endpoint onto a checkpoint: clock, lanes, counters and
    /// accumulators, reliability frontiers and tag-matching buffers —
    /// re-execution from here continues bitwise.
    pub(crate) fn rewind(&mut self, ckpt: &CkptState) {
        self.clock = ckpt.clock;
        self.comm_lane = ckpt.comm_lane;
        self.lane_busy = ckpt.lane_busy;
        self.metrics.restore(&ckpt.metrics);
        self.links.rewind(&ckpt.next, &ckpt.expect);
        self.pending = ckpt.pending.clone();
    }

    /// This process's rank in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Fallible send of `payload` to `to` with matching `tag`.
    /// `nominal_bytes` is the modelled message size (the payload may be
    /// elided in timing-only runs). Advances the local clock by the
    /// sender-side cost, including any retransmission charges.
    pub fn try_send_tagged(
        &mut self,
        to: usize,
        tag: i64,
        payload: Vec<f64>,
        nominal_bytes: usize,
    ) -> Result<(), CommError> {
        assert!(to != self.rank, "send to self is not supported");
        self.fault_tick();
        let wall_t0 = self.obs.as_ref().map(|o| o.now_ns());
        let virt_t0 = self.clock;
        let seq = self.links.assign(to);
        // Recovery re-execution: a send the receiver already holds redoes
        // every virtual charge and counter but must not be pushed again —
        // see `RecoveryCtl::resend_skip`.
        let skip_physical = self
            .recovery
            .as_ref()
            .is_some_and(|r| seq < r.resend_skip[to]);

        // Reliability layer: simulate stop-and-wait ARQ over the lossy link.
        // Each dropped attempt charges the injection cost plus an
        // exponential backoff before the retransmission.
        if let Some(fault) = self.fault.clone() {
            for pause in
                retransmit_pauses(&fault, &self.model, self.rank, to, tag, seq, nominal_bytes)?
            {
                match self.scheme {
                    CommScheme::Blocking => {
                        self.clock += pause;
                        self.metrics.virt_add(VirtAcc::Retrans, pause);
                    }
                    // Overlapped: the NIC retries in the background, so the
                    // backoff occupies the comm lane, not the CPU clock —
                    // it surfaces as Drain time if the lane overshoots.
                    CommScheme::Overlapped => {
                        let lane_start = self.comm_lane.max(self.clock);
                        self.comm_lane = lane_start + pause;
                        self.lane_busy += pause;
                    }
                }
                self.metrics.add(Counter::FaultDrops, 1);
                self.metrics.add(Counter::Retransmits, 1);
                if let Some(o) = &self.obs {
                    // Modelled backoff latency, in virtual nanoseconds; a
                    // histogram, so it never perturbs the clock partition.
                    o.observe(HistId::RetransNs, (pause * 1e9) as u64);
                }
            }
        }

        let send_cost = match self.scheme {
            CommScheme::Blocking => self.model.send_cost(nominal_bytes),
            // Background transfer: injection off the CPU.
            CommScheme::Overlapped => 0.0,
        };
        self.clock += send_cost;
        let ready_at = match self.scheme {
            CommScheme::Blocking => self.clock + self.model.wire_latency,
            CommScheme::Overlapped => {
                // Sends serialize on the rank's NIC lane: each injection
                // starts when both the lane and the CPU have reached it.
                let lane_start = self.comm_lane.max(self.clock);
                let lane_end = lane_start + self.model.send_cost(nominal_bytes);
                self.comm_lane = lane_end;
                self.lane_busy += self.model.send_cost(nominal_bytes);
                lane_end + self.model.wire_latency
            }
        };
        let mut env = Envelope {
            payload,
            tag,
            ready_at,
            seq,
            bytes: nominal_bytes,
        };
        self.metrics.add(Counter::MessagesSent, 1);
        self.metrics.add(Counter::BytesSent, nominal_bytes as u64);
        self.metrics.virt_add(VirtAcc::Send, send_cost);

        let (duplicate, reorder) = match &self.fault {
            Some(f) if f.perturbs_links() => {
                if let Some(extra) = f.delayed(self.rank, to, seq) {
                    env.ready_at += extra;
                    self.metrics.add(Counter::FaultDelays, 1);
                }
                let (dup, reord) = (
                    f.duplicated(self.rank, to, seq),
                    f.reordered(self.rank, to, seq),
                );
                self.metrics.add(Counter::FaultDups, u64::from(dup));
                self.metrics.add(Counter::FaultReorders, u64::from(reord));
                (dup, reord)
            }
            _ => (false, false),
        };
        // Retain the primary copy (post delay perturbation, so a replay
        // reproduces the receiver's wait bitwise) until the receiver's
        // checkpoint acknowledges it. Only log-extending sends are
        // recorded: a skipped in-process re-execution send is already
        // retained, while a resumed worker's skipped sends past its own
        // checkpoint frontier extend the row restored from its file and
        // must be logged even though the peer holds them.
        if let Some(rec) = &self.recovery {
            let mut log = rec.logs[self.rank][to].lock().expect("replay log poisoned");
            if env.seq == log.high() {
                log.record(env.clone());
            }
        }
        if !skip_physical {
            if reorder {
                // Hold this envelope so the next message on the link
                // overtakes it. A duplicate copy delivers immediately and
                // doubles as the primary copy; an already-held envelope is
                // released first — at most one hold per link.
                if duplicate {
                    self.push(to, env.clone())?;
                }
                if let Some(prev) = self.holdback[to].take() {
                    self.push_redundant(to, prev)?;
                }
                self.holdback[to] = Some(env);
            } else {
                if duplicate {
                    self.push(to, env.clone())?;
                    self.push_redundant(to, env)?;
                } else {
                    self.push(to, env)?;
                }
                if let Some(prev) = self.holdback[to].take() {
                    self.push_redundant(to, prev)?;
                }
            }
        }
        if let Some(wall_t0) = wall_t0 {
            let virt_t1 = self.clock;
            let outstanding = self.holdback.iter().filter(|h| h.is_some()).count() as u64;
            if let Some(o) = &mut self.obs {
                o.gauge_set(GaugeId::OutstandingSends, outstanding);
                o.edge_span(
                    Phase::Send,
                    wall_t0,
                    (virt_t0, virt_t1),
                    nominal_bytes as u64,
                    SpanEdge {
                        peer: to as u32,
                        tag,
                        seq,
                    },
                );
            }
        }
        Ok(())
    }

    /// Fallible blocking receive of the next message from `from` with
    /// matching `tag` (out-of-order arrivals are buffered, as in MPI).
    /// Advances the local clock to the message arrival if it is later.
    pub fn try_recv_tagged(&mut self, from: usize, tag: i64) -> Result<Vec<f64>, CommError> {
        assert!(from != self.rank, "recv from self is not supported");
        self.fault_tick();
        // Anything we still hold must be released before blocking, or a
        // reorder hold could manufacture a deadlock.
        self.flush_holdbacks()?;
        let wall_t0 = self.obs.as_ref().map(|o| o.now_ns());
        let start = self.clock;
        // Match against already-arrived messages first (MPI tag matching).
        let env = if let Some(pos) = self.pending[from].iter().position(|e| e.tag == tag) {
            self.pending[from].remove(pos)
        } else {
            loop {
                let env = self.next_in_order(from, tag)?;
                if env.tag == tag {
                    break env;
                }
                // Arrived but not the requested message: buffer it. Its
                // arrival does not advance the CPU clock (the NIC holds it).
                self.pending[from].push(env);
            }
        };
        if env.ready_at > self.clock {
            self.metrics
                .virt_add(VirtAcc::Wait, env.ready_at - self.clock);
            self.clock = env.ready_at;
        }
        if self.scheme == CommScheme::Blocking {
            self.clock += self.model.recv_overhead;
            self.metrics
                .virt_add(VirtAcc::RecvOverhead, self.model.recv_overhead);
        }
        self.metrics.add(Counter::MessagesReceived, 1);
        self.metrics.add(Counter::BytesReceived, env.bytes as u64);
        if let Some(wall_t0) = wall_t0 {
            let virt_t1 = self.clock;
            let pending_depth = self.pending.iter().map(|p| p.len()).sum::<usize>() as u64;
            let reseq_depth = self.links.resequence_depth();
            if let Some(o) = &mut self.obs {
                o.observe(HistId::RecvWaitNs, o.now_ns().saturating_sub(wall_t0));
                o.gauge_set(GaugeId::PendingDepth, pending_depth);
                o.gauge_set(GaugeId::ResequenceDepth, reseq_depth);
                o.edge_span(
                    Phase::Recv,
                    wall_t0,
                    (start, virt_t1),
                    env.bytes as u64,
                    SpanEdge {
                        peer: from as u32,
                        tag,
                        seq: env.seq,
                    },
                );
            }
        }
        Ok(env.payload)
    }

    /// Infallible [`RankCore::try_send_tagged`]: panics with a
    /// [`CommAbort`] payload on failure, which the engine converts to a
    /// run-level error.
    pub fn send_tagged(&mut self, to: usize, tag: i64, payload: Vec<f64>, nominal_bytes: usize) {
        if let Err(error) = self.try_send_tagged(to, tag, payload, nominal_bytes) {
            std::panic::panic_any(CommAbort {
                rank: self.rank,
                error,
            });
        }
    }

    /// Infallible [`RankCore::try_recv_tagged`]: panics with a
    /// [`CommAbort`] payload on failure, which the engine converts to a
    /// run-level error.
    pub fn recv_tagged(&mut self, from: usize, tag: i64) -> Vec<f64> {
        match self.try_recv_tagged(from, tag) {
            Ok(payload) => payload,
            Err(error) => std::panic::panic_any(CommAbort {
                rank: self.rank,
                error,
            }),
        }
    }

    /// [`RankCore::send_tagged`] with tag 0.
    pub fn send(&mut self, to: usize, payload: Vec<f64>, nominal_bytes: usize) {
        self.send_tagged(to, 0, payload, nominal_bytes);
    }

    /// [`RankCore::recv_tagged`] with tag 0.
    pub fn recv(&mut self, from: usize) -> Vec<f64> {
        self.recv_tagged(from, 0)
    }

    /// Wait for every outstanding (overlapped) send to leave the NIC —
    /// `MPI_Waitall` semantics. Advances the local clock by the comm-lane
    /// overshoot beyond the current clock and returns that overshoot; under
    /// the blocking scheme there is no outstanding send and it returns 0.
    pub fn drain_sends(&mut self) -> f64 {
        let overshoot = (self.comm_lane - self.clock).max(0.0);
        let hidden = (self.lane_busy - overshoot).max(0.0);
        if overshoot > 0.0 {
            self.metrics.virt_add(VirtAcc::Drain, overshoot);
        }
        if hidden > 0.0 {
            self.metrics.virt_add(VirtAcc::OverlapHidden, hidden);
        }
        self.clock += overshoot;
        self.comm_lane = self.clock;
        self.lane_busy = 0.0;
        overshoot
    }

    /// Account `iters` loop iterations of local computation.
    pub fn advance_compute(&mut self, iters: u64) {
        self.fault_tick();
        let dt = self.model.compute_cost(iters);
        self.clock += dt;
        // The virtual accumulator only; the Compute *span* is recorded by
        // the executor around the whole tile (kernel + this charge), so the
        // two would double-count if both lived here.
        self.metrics.virt_add(VirtAcc::Compute, dt);
    }

    /// Current virtual time of this process.
    pub fn local_time(&self) -> f64 {
        self.clock
    }

    /// Per-rank observability handle, when the engine was run with a
    /// [`MetricsRegistry`] attached. Generated programs use it to record
    /// phase spans and tile-level counters.
    pub fn obs(&mut self) -> Option<&mut RankObs> {
        self.obs.as_mut()
    }

    /// Checkpoint cadence: `Some(K)` when the engine was configured with a
    /// recovery policy, asking the executor to call
    /// [`RankCore::checkpoint`] every `K` chain steps; `None` disables
    /// checkpointing.
    pub fn recovery_interval(&self) -> Option<u64> {
        self.recovery.as_ref().map(|r| r.interval)
    }

    /// Record a recovery checkpoint at chain position `chain_pos` with the
    /// caller's serialized application state (LDS snapshot + logical
    /// counters). Snapshots the clock, metrics and reliability frontiers
    /// alongside, and acknowledges received envelopes so senders can trim
    /// their replay logs. A no-op without a recovery policy.
    pub fn checkpoint(&mut self, chain_pos: u64, app: &[u8]) {
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        // Snapshot the metrics *before* counting the checkpoint, so a
        // restore followed by a re-checkpoint at the same position counts
        // it exactly once — like the fault-free run.
        let ckpt = CkptState {
            chain_pos,
            app: app.to_vec(),
            clock: self.clock,
            comm_lane: self.comm_lane,
            lane_busy: self.lane_busy,
            metrics: StatsSnapshot::capture(&self.metrics),
            next: self.links.next_frontier(),
            expect: self.links.expect_frontier(),
            pending: self.pending.clone(),
        };
        let (rank, links) = (self.rank, &self.links);
        let written = match self.link.persist(rank, &ckpt, &rec.logs, links) {
            Some(bytes) => bytes,
            None => {
                // The checkpoint acknowledges everything this rank has
                // consumed: senders may drop those envelopes from their
                // replay logs. An in-memory snapshot costs exactly the
                // serialized application bytes.
                for from in (0..self.size).filter(|&from| from != rank) {
                    rec.logs[from][rank]
                        .lock()
                        .expect("replay log poisoned")
                        .trim_below(links.expect_of(from));
                }
                rec.ckpt = Some(ckpt);
                app.len() as u64
            }
        };
        self.metrics.add(Counter::Checkpoints, 1);
        self.metrics.add(Counter::CkptWrites, 1);
        self.metrics.add(Counter::CkptBytes, written);
        if let Some(o) = &self.obs {
            let depth: u64 = (0..self.size)
                .filter(|&to| to != rank)
                .map(|to| {
                    rec.logs[rank][to]
                        .lock()
                        .expect("replay log poisoned")
                        .len() as u64
                })
                .sum();
            o.gauge_set(GaugeId::ReplayLogDepth, depth);
        }
    }

    /// After an injected crash unwound the chain walk: restore the latest
    /// checkpoint and return the resume state, or `None` when recovery is
    /// disabled, no restore budget remains, or the link persists its
    /// checkpoints (a worker process recovers by respawn instead).
    pub fn try_restore(&mut self) -> Option<Restored> {
        // Only an in-memory checkpoint restores in place; a worker process
        // recovers by respawn instead.
        let rec = self.recovery.as_ref()?;
        rec.ckpt.as_ref()?;
        // Consume one unit of the run-wide restore budget.
        rec.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .ok()?;
        // Crash-time reorder holds may contain envelopes the receiver still
        // needs; release them before rewinding (their seq numbers lie past
        // the checkpoint frontier, so re-execution will skip re-pushing).
        let _ = self.flush_holdbacks();
        let clock_crash = self.clock;
        let next_crash = self.links.next_frontier();
        let expect_crash = self.links.expect_frontier();
        let ckpt = self.recovery.as_mut()?.ckpt.take()?;
        self.rewind(&ckpt);
        let rec = self.recovery.as_mut()?;
        // Re-inject the lost in-flight window from the peers' replay logs:
        // everything consumed between the checkpoint and the crash.
        for from in (0..self.size).filter(|&from| from != self.rank) {
            let replayed = rec.logs[from][self.rank]
                .lock()
                .expect("replay log poisoned")
                .range(ckpt.expect[from], expect_crash[from]);
            for env in replayed {
                self.links.reinject(from, env);
            }
        }
        rec.resend_skip = next_crash;
        rec.debt += clock_crash - ckpt.clock;
        rec.used += 1;
        self.metrics.set(Counter::Recoveries, rec.used);
        let restored = Restored {
            chain_pos: ckpt.chain_pos,
            app: ckpt.app.clone(),
        };
        rec.ckpt = Some(ckpt);
        // The crash fired; a restored rank does not re-crash.
        self.crash_at = None;
        self.monitor.bump();
        Some(restored)
    }

    /// Resume state loaded *before* the rank body started — a respawned
    /// worker process restores its checkpoint file during transport setup
    /// and hands the chain position + application bytes to the executor
    /// here, exactly once. `None` on a fresh start.
    pub fn resume_state(&mut self) -> Option<Restored> {
        self.recovery.as_mut()?.resume.take()
    }

    /// Settle the accumulated recovery debt at the end of the rank's run:
    /// charge the re-executed virtual time to the clock once, so
    /// `local_time == fault-free time + recovery_time`.
    fn settle_recovery(&mut self) {
        // A respawned worker resumes its checkpointed clock and never
        // rewinds a live one, so it carries no debt.
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        let debt = std::mem::take(&mut rec.debt);
        if debt > 0.0 {
            self.clock += debt;
            self.metrics.virt_add(VirtAcc::Recovery, debt);
        }
    }
}

/// How one rank ended: the one outcome type of every engine, which the
/// supervisor folds into the run's result.
pub(crate) enum RankEnd<R> {
    /// The rank body returned.
    Ok(R),
    /// The rank gave up on a communication error.
    CommFail(CommError),
    /// The rank body panicked; the stringified payload.
    Panic(String),
    /// The rank is gone without saying how it ended: a worker process that
    /// died or fell silent, or a rank thread that never reported.
    Vanished,
}

/// Stringify a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(c) = payload.downcast_ref::<InjectedCrash>() {
        format!(
            "injected crash at virtual time {:.6} (configured at {:.6})",
            c.clock, c.at
        )
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The rank body shared by every engine: run `f` on the endpoint with its
/// panics contained, charge the accumulated recovery debt once at the end
/// (every message timestamp stayed bitwise fault-free, and the final clock
/// is fault-free time + recovery time), mark the rank done, then close the
/// endpoint — releasing reorder holds and dropping the link, so blocked
/// peers unwind instead of hanging. Returns how the rank ended, a success
/// with its final clock and metrics.
pub(crate) fn run_rank<L: Link, R>(
    mut comm: RankCore<L>,
    f: impl FnOnce(&mut RankCore<L>) -> R,
) -> RankEnd<(R, f64, StatsSnapshot)> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let r = f(&mut comm);
        comm.settle_recovery();
        r
    }));
    comm.monitor.set(comm.rank, RankPhase::Done);
    // Failures are moot at this point: the peer is gone.
    let _ = comm.flush_holdbacks();
    match outcome {
        Ok(r) => RankEnd::Ok((r, comm.clock, StatsSnapshot::capture(&comm.metrics))),
        Err(payload) => match payload.downcast::<CommAbort>() {
            Ok(abort) => RankEnd::CommFail(abort.error),
            Err(payload) => RankEnd::Panic(panic_message(payload.as_ref())),
        },
    }
}
