//! The MPI-like point-to-point communication interface.
//!
//! The generated SPMD programs are written against [`Comm`], mirroring the
//! paper's use of `MPI_Send`/`MPI_Recv`: blocking point-to-point messages
//! with FIFO ordering per (sender, receiver) pair. Implementations also
//! maintain a per-process *virtual clock* advanced by the machine model, so
//! one execution yields both the computed data and the simulated parallel
//! time on the modelled cluster.
//!
//! Communication is fallible at the substrate level: the required methods
//! are [`Comm::try_send_tagged`] / [`Comm::try_recv_tagged`], which report
//! disconnected or unreachable peers as [`CommError`]s. The infallible
//! [`Comm::send_tagged`] / [`Comm::recv_tagged`] used by generated programs
//! are thin wrappers that panic with a [`CommAbort`] payload — the engine
//! catches that payload and folds it into the run-level error instead of
//! treating it as a program bug.

use crate::error::CommError;
use crate::model::MachineModel;
use crate::obs::{Counter, RankObs, StatsSnapshot, VirtAcc};

/// A message in flight: payload, matching tag, the virtual time it becomes
/// available at the receiver, and a per-link sequence number.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The message values. May be empty in timing-only runs, where only
    /// [`Envelope::bytes`] carries the modelled size.
    pub payload: Vec<f64>,
    /// MPI-style message tag, matched by [`Comm::recv`]. Needed whenever the
    /// consumption order can differ from the send order — e.g. tile
    /// dependencies whose mapping-dimension components exceed 1 make the
    /// minimum-successor consumption non-monotone in the sender's tiles.
    pub tag: i64,
    /// Virtual time at which the message becomes available at the
    /// receiver (sender clock + modelled injection + wire latency).
    pub ready_at: f64,
    /// Per-(sender, receiver) sequence number assigned by the reliability
    /// layer: receivers suppress duplicates and re-sequence out-of-order
    /// arrivals by it, restoring exact FIFO semantics over faulty links.
    pub seq: u64,
    /// Nominal (modelled) message size, carried so the receiver can account
    /// bytes even in timing-only runs where the payload is elided.
    pub bytes: usize,
}

/// Per-process communication statistics: a view of the rank's metrics
/// ([`CommStats::from_snapshot`]), which count every event once.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Messages handed to the transport (each counted once, regardless of
    /// fault-injected duplicates or retransmissions).
    pub messages_sent: u64,
    /// Nominal bytes of every sent message.
    pub bytes_sent: u64,
    /// Messages accepted by this rank's receive path.
    pub messages_received: u64,
    /// Nominal bytes of every *accepted* envelope — duplicates suppressed by
    /// the reliability layer are excluded, so a fault-free or faulty run
    /// both conserve `bytes_received == bytes_sent`.
    pub bytes_received: u64,
    /// Virtual seconds computing.
    pub compute_time: f64,
    /// Virtual seconds blocked on data dependences, injected stalls
    /// included.
    pub wait_time: f64,
    /// Virtual seconds of communication CPU cost: send injection, receive
    /// overhead, retransmission charges and overlapped-lane drains.
    pub comm_time: f64,
    /// Transmission attempts repeated because the fault plan dropped them.
    pub retransmissions: u64,
    /// Messages discarded by the receiver's duplicate suppression.
    pub duplicates_suppressed: u64,
    /// Times this rank was restored from a checkpoint after a crash.
    pub recoveries: u64,
    /// Virtual seconds of re-execution charged to recovery: the wall the
    /// rank's clock was rewound over, re-charged at the end of the run so
    /// every message timestamp stays bitwise identical to the fault-free
    /// run (`local_time - recovery_time` is the fault-free clock).
    pub recovery_time: f64,
}

impl CommStats {
    /// The statistics view of one rank's metrics, and the one definition
    /// of the clock partition: compute = `Compute`, wait = `Wait + Stall`,
    /// comm = `Send + RecvOverhead + Retrans + Drain`, recovery =
    /// `Recovery`. Together they sum to the rank's clock; `OverlapHidden`
    /// is informational and outside the partition.
    pub fn from_snapshot(s: &StatsSnapshot) -> CommStats {
        CommStats {
            messages_sent: s.counter(Counter::MessagesSent),
            bytes_sent: s.counter(Counter::BytesSent),
            messages_received: s.counter(Counter::MessagesReceived),
            bytes_received: s.counter(Counter::BytesReceived),
            compute_time: s.virt(VirtAcc::Compute),
            wait_time: s.virt(VirtAcc::Wait) + s.virt(VirtAcc::Stall),
            comm_time: s.virt(VirtAcc::Send)
                + s.virt(VirtAcc::RecvOverhead)
                + s.virt(VirtAcc::Retrans)
                + s.virt(VirtAcc::Drain),
            retransmissions: s.counter(Counter::Retransmits),
            duplicates_suppressed: s.counter(Counter::DupsSuppressed),
            recoveries: s.counter(Counter::Recoveries),
            recovery_time: s.virt(VirtAcc::Recovery),
        }
    }
}

/// State handed back by [`Comm::try_restore`]: where to resume the chain
/// walk and the application snapshot taken at that checkpoint.
#[derive(Clone, Debug)]
pub struct Restored {
    /// Chain position the checkpoint was taken at (resume from here).
    pub chain_pos: u64,
    /// Opaque application bytes passed to [`Comm::checkpoint`].
    pub app: Vec<u8>,
}

/// Panic payload used by the infallible [`Comm`] wrappers when the
/// underlying communication fails. The engine downcasts unwind payloads to
/// this type to distinguish substrate failures (peer died, watchdog abort)
/// from genuine bugs in rank closures.
#[derive(Clone, Debug)]
pub struct CommAbort {
    /// Rank that observed the failure.
    pub rank: usize,
    /// The failure itself.
    pub error: CommError,
}

/// Blocking point-to-point communication with a virtual clock.
///
/// # Contract
///
/// * **Blocking semantics** — [`Comm::try_recv_tagged`] blocks until a
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
/// Implementations: [`crate::ThreadedComm`] (in-process channels) and
/// [`crate::TcpComm`] (sockets, in- or multi-process).
pub trait Comm {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of processes.
    fn size(&self) -> usize;

    /// Fallible send of `payload` to `to` with matching `tag`.
    /// `nominal_bytes` is the modelled message size (the payload may be
    /// elided in timing-only runs). Advances the local clock by the
    /// sender-side cost, including any retransmission charges.
    fn try_send_tagged(
        &mut self,
        to: usize,
        tag: i64,
        payload: Vec<f64>,
        nominal_bytes: usize,
    ) -> Result<(), CommError>;

    /// Fallible blocking receive of the next message from `from` with
    /// matching `tag` (out-of-order arrivals are buffered, as in MPI).
    /// Advances the local clock to the message arrival if it is later.
    fn try_recv_tagged(&mut self, from: usize, tag: i64) -> Result<Vec<f64>, CommError>;

    /// Infallible [`Comm::try_send_tagged`]: panics with a [`CommAbort`]
    /// payload on failure, which the engine converts to a run-level error.
    fn send_tagged(&mut self, to: usize, tag: i64, payload: Vec<f64>, nominal_bytes: usize) {
        let rank = self.rank();
        if let Err(error) = self.try_send_tagged(to, tag, payload, nominal_bytes) {
            std::panic::panic_any(CommAbort { rank, error });
        }
    }

    /// Infallible [`Comm::try_recv_tagged`]: panics with a [`CommAbort`]
    /// payload on failure, which the engine converts to a run-level error.
    fn recv_tagged(&mut self, from: usize, tag: i64) -> Vec<f64> {
        let rank = self.rank();
        match self.try_recv_tagged(from, tag) {
            Ok(payload) => payload,
            Err(error) => std::panic::panic_any(CommAbort { rank, error }),
        }
    }

    /// [`Comm::send_tagged`] with tag 0.
    fn send(&mut self, to: usize, payload: Vec<f64>, nominal_bytes: usize) {
        self.send_tagged(to, 0, payload, nominal_bytes);
    }

    /// [`Comm::recv_tagged`] with tag 0.
    fn recv(&mut self, from: usize) -> Vec<f64> {
        self.recv_tagged(from, 0)
    }

    /// [`Comm::try_send_tagged`] with tag 0.
    fn try_send(
        &mut self,
        to: usize,
        payload: Vec<f64>,
        nominal_bytes: usize,
    ) -> Result<(), CommError> {
        self.try_send_tagged(to, 0, payload, nominal_bytes)
    }

    /// [`Comm::try_recv_tagged`] with tag 0.
    fn try_recv(&mut self, from: usize) -> Result<Vec<f64>, CommError> {
        self.try_recv_tagged(from, 0)
    }

    /// Account `iters` loop iterations of local computation.
    fn advance_compute(&mut self, iters: u64);

    /// Wait for every outstanding (overlapped) send to leave the NIC —
    /// `MPI_Waitall` semantics. Advances the local clock by the comm-lane
    /// overshoot beyond the current clock and returns that overshoot.
    /// The default (and any blocking implementation) has no outstanding
    /// sends, so it is a no-op.
    fn drain_sends(&mut self) -> f64 {
        0.0
    }

    /// Current virtual time of this process.
    fn local_time(&self) -> f64;

    /// The machine model in force.
    fn model(&self) -> &MachineModel;

    /// Statistics accumulated so far.
    fn stats(&self) -> CommStats;

    /// Per-rank observability handle, when the engine was run with a
    /// [`crate::obs::MetricsRegistry`] attached. Generated programs use this
    /// to record phase spans and tile-level counters; the default is `None`
    /// so plain implementations stay observability-free.
    fn obs(&mut self) -> Option<&mut RankObs> {
        None
    }

    /// Checkpoint cadence: `Some(K)` when the engine was configured with a
    /// recovery policy, asking the executor to call [`Comm::checkpoint`]
    /// every `K` chain steps. `None` (the default) disables checkpointing.
    fn recovery_interval(&self) -> Option<u64> {
        None
    }

    /// Record a recovery checkpoint at chain position `chain_pos` with the
    /// caller's serialized application state (LDS snapshot + logical
    /// counters). Implementations snapshot their clock, metrics and
    /// reliability frontiers alongside, and acknowledge received envelopes
    /// so senders can trim their replay logs. Default: no-op.
    fn checkpoint(&mut self, _chain_pos: u64, _app: &[u8]) {}

    /// After an injected crash unwound the chain walk: restore the latest
    /// checkpoint and return the resume state, or `None` when recovery is
    /// disabled, no recovery budget remains, or this implementation recovers
    /// at a different level (e.g. process respawn). Default: `None`.
    fn try_restore(&mut self) -> Option<Restored> {
        None
    }

    /// Resume state loaded *before* the rank body started — a respawned
    /// worker process restores its checkpoint file during transport setup
    /// and hands the chain position + application bytes to the executor
    /// here, exactly once. Default: `None` (fresh start).
    fn resume_state(&mut self) -> Option<Restored> {
        None
    }

    /// Settle the accumulated recovery debt at the end of the rank's run:
    /// charge the re-executed virtual time to the clock once, so
    /// `local_time == fault-free time + recovery_time`. Returns the debt.
    /// Default: no-op.
    fn settle_recovery(&mut self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_plain_data() {
        let e = Envelope {
            payload: vec![1.0, 2.0],
            tag: 7,
            ready_at: 3.5,
            seq: 9,
            bytes: 16,
        };
        let f = e.clone();
        assert_eq!(f.payload, vec![1.0, 2.0]);
        assert_eq!(f.tag, 7);
        assert_eq!(f.ready_at, 3.5);
        assert_eq!(f.seq, 9);
        assert_eq!(f.bytes, 16);
    }

    #[test]
    fn stats_default_is_zero() {
        let s = CommStats::default();
        assert_eq!(s.messages_sent, 0);
        assert_eq!(s.wait_time, 0.0);
        assert_eq!(s.retransmissions, 0);
        assert_eq!(s.duplicates_suppressed, 0);
    }
}
