//! Typed failures of the cluster substrate.
//!
//! The engine distinguishes three failure families: *communication* errors a
//! single rank observes ([`CommError`]), *run-level* failures the engine
//! reports for the whole SPMD execution ([`RunError`]), and genuine Rust
//! panics inside a rank closure, which the engine catches and converts to
//! [`RunError::RankPanicked`] instead of aborting the process.

use std::thread::{Builder, JoinHandle};
use std::time::Duration;

/// A communication failure observed by one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The peer's channel endpoints are gone: it panicked or returned while
    /// messages were still expected.
    Disconnected {
        /// The vanished peer's rank.
        peer: usize,
    },
    /// The reliability layer gave up on one message: every transmission
    /// attempt (original plus retries, bounded by
    /// [`crate::FaultPlan::max_retries`]) was dropped by the fault plan.
    RetransmitExhausted {
        /// The unreachable peer's rank.
        rank: usize,
        /// Tag of the undeliverable message.
        tag: i64,
        /// Transmission attempts made before giving up.
        attempts: u32,
    },
    /// The engine watchdog aborted the run (deadlock or wall timeout) while
    /// this rank was blocked.
    Aborted,
    /// The TCP transport lost its socket to the named rank mid-run: the
    /// peer's process died, closed the connection, or the connection was
    /// reset. The socket-level analogue of [`CommError::Disconnected`].
    PeerDisconnected {
        /// Rank whose socket went away.
        rank: usize,
    },
    /// The TCP transport failed outside an established link: rendezvous,
    /// mesh handshake, or a malformed wire frame. `detail` carries the
    /// stage and the underlying error text.
    Transport {
        /// Human-readable description of the failing stage.
        detail: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Disconnected { peer } => {
                write!(
                    f,
                    "peer rank {peer} disconnected (panicked or exited early)"
                )
            }
            CommError::RetransmitExhausted {
                rank,
                tag,
                attempts,
            } => {
                write!(
                    f,
                    "message to rank {rank} (tag {tag}) undeliverable after {attempts} attempts"
                )
            }
            CommError::Aborted => write!(f, "run aborted by the engine watchdog"),
            CommError::PeerDisconnected { rank } => {
                write!(f, "peer rank {rank} disconnected (tcp socket closed)")
            }
            CommError::Transport { detail } => write!(f, "transport failure: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

/// A failed cluster run. Every variant names the ranks involved so failures
/// surface with enough context to reproduce and debug them.
#[derive(Clone, Debug)]
pub enum RunError {
    /// A rank closure panicked. The payload is the stringified panic
    /// message; peers that consequently observed disconnected channels are
    /// folded into this primary cause.
    RankPanicked {
        /// The panicked rank.
        rank: usize,
        /// Stringified panic message.
        payload: String,
    },
    /// Every live rank is blocked in a receive and no message is in flight:
    /// the communication schedule is cyclic. `waiting_on` lists
    /// `(rank, from, tag)` for each blocked rank.
    Deadlock {
        /// Every blocked rank.
        blocked_ranks: Vec<usize>,
        /// `(rank, from, tag)` for each blocked receive.
        waiting_on: Vec<(usize, usize, i64)>,
    },
    /// The run exceeded the wall-clock cap ([`crate::EngineOptions::wall_timeout`]).
    WallTimeout {
        /// Wall-clock time elapsed when the cap fired.
        elapsed: Duration,
        /// Ranks that had not finished.
        unfinished: Vec<usize>,
    },
    /// A rank reported a communication error that was not caused by a peer
    /// panic (e.g. the reliability layer exhausted its retries).
    Comm {
        /// The rank that observed the error.
        rank: usize,
        /// The communication error itself.
        error: CommError,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::RankPanicked { rank, payload } => {
                write!(f, "rank {rank} panicked: {payload}")
            }
            RunError::Deadlock {
                blocked_ranks,
                waiting_on,
            } => {
                write!(f, "deadlock: ranks {blocked_ranks:?} are all blocked (")?;
                for (i, (rank, from, tag)) in waiting_on.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "rank {rank} waits on rank {from} tag {tag}")?;
                }
                write!(f, ") with no message in flight")
            }
            RunError::WallTimeout {
                elapsed,
                unfinished,
            } => write!(
                f,
                "run exceeded the wall-clock cap after {:.3} s; unfinished ranks: {unfinished:?}",
                elapsed.as_secs_f64()
            ),
            RunError::Comm { rank, error } => write!(f, "rank {rank}: {error}"),
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// The ranks directly implicated in the failure.
    pub fn ranks(&self) -> Vec<usize> {
        match self {
            RunError::RankPanicked { rank, .. } | RunError::Comm { rank, .. } => vec![*rank],
            RunError::Deadlock { blocked_ranks, .. } => blocked_ranks.clone(),
            RunError::WallTimeout { unfinished, .. } => unfinished.clone(),
        }
    }
}

/// Start `f` on a thread made by `builder`, or return the system's refusal
/// (no thread or memory left for one) as a [`CommError::Transport`] naming
/// `what`. Every thread of the substrate starts here, so a run that
/// outgrows the machine's threads ends in a typed error, not a panic.
pub fn spawn<T: Send + 'static>(
    builder: Builder,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<JoinHandle<T>, CommError> {
    builder.spawn(f).map_err(|e| CommError::Transport {
        detail: format!("cannot start the {what} thread: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stack larger than the address space cannot be mapped, so the spawn
    /// fails without starting anything, and the failure is typed.
    #[test]
    fn a_refused_spawn_is_a_transport_error() {
        let builder = Builder::new().stack_size(1 << 50);
        let Err(CommError::Transport { detail }) = spawn(builder, "probe", || ()) else {
            panic!("a 1 PiB stack must not be mapped");
        };
        assert!(
            detail.starts_with("cannot start the probe thread: "),
            "{detail}"
        );
        let ok = spawn(Builder::new(), "probe", || 7).expect("an ordinary spawn");
        assert_eq!(ok.join().unwrap(), 7);
    }

    #[test]
    fn errors_render_rank_context() {
        let e = RunError::RankPanicked {
            rank: 3,
            payload: "boom".into(),
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("boom"));
        assert_eq!(e.ranks(), vec![3]);

        let d = RunError::Deadlock {
            blocked_ranks: vec![0, 1],
            waiting_on: vec![(0, 1, 7), (1, 0, 2)],
        };
        let s = d.to_string();
        assert!(s.contains("rank 0 waits on rank 1 tag 7"), "{s}");
        assert!(s.contains("rank 1 waits on rank 0 tag 2"), "{s}");
        assert_eq!(d.ranks(), vec![0, 1]);

        let c = RunError::Comm {
            rank: 2,
            error: CommError::RetransmitExhausted {
                rank: 5,
                tag: 7,
                attempts: 33,
            },
        };
        assert!(c.to_string().contains("rank 2"));
        assert!(c.to_string().contains("rank 5"));
        assert!(c.to_string().contains("tag 7"));
        assert!(c.to_string().contains("33 attempts"));
    }

    #[test]
    fn tcp_errors_name_the_rank() {
        let e = RunError::Comm {
            rank: 0,
            error: CommError::PeerDisconnected { rank: 1 },
        };
        let s = e.to_string();
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("peer rank 1 disconnected"), "{s}");

        let t = CommError::Transport {
            detail: "rendezvous: connection refused".into(),
        };
        assert!(t.to_string().contains("rendezvous"), "{t}");
    }
}
