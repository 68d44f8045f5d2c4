//! The message types of the MPI-like point-to-point layer.
//!
//! The generated SPMD programs talk to one [`crate::rank::RankCore`] per
//! rank, mirroring the paper's use of `MPI_Send`/`MPI_Recv`: blocking
//! point-to-point messages with FIFO ordering per (sender, receiver) pair
//! and a per-process *virtual clock* advanced by the machine model. This
//! module holds what travels through it: the [`Envelope`] on the wire, the
//! [`Restored`] resume state, and the [`CommAbort`] panic payload of the
//! infallible send and receive.

use crate::error::CommError;

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
}
