//! The message types of the MPI-like point-to-point layer.
//!
//! The generated SPMD programs talk to one [`crate::rank::RankCore`] per
//! rank, mirroring the paper's use of `MPI_Send`/`MPI_Recv`: blocking
//! point-to-point messages with FIFO ordering per (sender, receiver) pair
//! and a per-process *virtual clock* advanced by the machine model. This
//! module holds what travels through it: the [`Envelope`] on the wire, the
//! [`CommStats`] view of a rank's accounts, the [`Restored`] resume state,
//! and the [`CommAbort`] panic payload of the infallible send and receive.

use crate::error::CommError;
use crate::obs::{Counter, StatsSnapshot, VirtAcc};

/// A message in flight: payload, matching tag, the virtual time it becomes
/// available at the receiver, and a per-link sequence number.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The message values. May be empty in timing-only runs, where only
    /// [`Envelope::bytes`] carries the modelled size.
    pub payload: Vec<f64>,
    /// MPI-style message tag, matched by [`crate::rank::RankCore::recv_tagged`]. Needed whenever the
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

/// State handed back by [`crate::rank::RankCore::try_restore`]: where to resume the chain
/// walk and the application snapshot taken at that checkpoint.
#[derive(Clone, Debug)]
pub struct Restored {
    /// Chain position the checkpoint was taken at (resume from here).
    pub chain_pos: u64,
    /// Opaque application bytes passed to [`crate::rank::RankCore::checkpoint`].
    pub app: Vec<u8>,
}

/// Panic payload used by the infallible [`crate::rank::RankCore::send_tagged`]
/// and [`crate::rank::RankCore::recv_tagged`] when the
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
