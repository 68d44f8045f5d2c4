//! Deterministic, seeded fault injection for the cluster substrate.
//!
//! A [`FaultPlan`] describes an imperfect interconnect and unreliable nodes:
//! per-link message drops, duplicates, reorders and extra delays, plus
//! per-rank crashes and stalls triggered at virtual times. Every decision is
//! a pure hash of `(seed, link, sequence number, attempt)`, so a faulty run
//! is exactly as deterministic as a fault-free one — two executions with the
//! same plan produce bit-identical data and virtual clocks.
//!
//! Faults are injected *between* [`crate::RankCore::send_tagged`] and the
//! channel. The engine's reliability sublayer (sequence numbers, duplicate
//! suppression, re-sequencing, and virtual-clock-charged retransmission with
//! exponential backoff) guarantees that lossy runs still complete with data
//! bitwise identical to fault-free runs; only the virtual clocks grow by the
//! retransmission costs. The rank's metrics count each repeated attempt
//! (`Counter::Retransmits`) and, under the blocking scheme, the charge it
//! paid (`VirtAcc::Retrans`, part of [`crate::StatsSnapshot::comm_time`]).

/// A rank crash injected at a virtual time: the rank panics the first time
/// its local clock reaches `at`, exercising the engine's panic containment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankCrash {
    /// The rank that crashes.
    pub rank: usize,
    /// Virtual time (seconds) at or after which the rank panics.
    pub at: f64,
}

/// A rank stall injected at a virtual time: the first time the rank's clock
/// reaches `at`, its clock jumps forward by `duration` (a GC pause, an OS
/// hiccup, a slow NIC — anything that delays one node without killing it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankStall {
    /// The rank that stalls.
    pub rank: usize,
    /// Virtual time (seconds) at or after which the stall happens.
    pub at: f64,
    /// Virtual seconds the rank loses.
    pub duration: f64,
}

/// A deterministic fault-injection plan for one cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-message fault decision.
    pub seed: u64,
    /// Probability a transmission attempt is dropped (retried by the
    /// reliability layer, up to `max_retries`).
    pub drop_rate: f64,
    /// Probability a message is delivered twice (the duplicate carries the
    /// same sequence number and is suppressed by the receiver).
    pub duplicate_rate: f64,
    /// Probability a message is held back and overtaken by the next message
    /// on the same link (the receiver re-sequences by sequence number).
    pub reorder_rate: f64,
    /// Probability a message suffers `extra_delay` additional wire time.
    pub delay_rate: f64,
    /// Extra virtual delay (seconds) for delayed messages.
    pub extra_delay: f64,
    /// Base retransmission timeout (virtual seconds); attempt `k` backs off
    /// by `rto · 2^(k-1)`.
    pub rto: f64,
    /// Maximum retransmission attempts before the link is declared
    /// unreachable.
    pub max_retries: u32,
    /// Ranks that crash (panic) at a virtual time.
    pub crashes: Vec<RankCrash>,
    /// Ranks that stall (lose virtual time) at a virtual time.
    pub stalls: Vec<RankStall>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            delay_rate: 0.0,
            extra_delay: 0.0,
            rto: 1e-3,
            max_retries: 64,
            crashes: Vec::new(),
            stalls: Vec::new(),
        }
    }
}

// Distinct decision streams so e.g. the drop and duplicate decisions for the
// same message are independent hashes.
const STREAM_DROP: u64 = 0x01;
const STREAM_DUP: u64 = 0x02;
const STREAM_REORDER: u64 = 0x03;
const STREAM_DELAY: u64 = 0x04;

/// splitmix64 finalizer: a high-quality 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// A lossy-link plan: messages are dropped with `drop_rate`, everything
    /// else is perfect. The reliability layer makes such runs complete with
    /// data identical to fault-free runs.
    pub fn lossy(seed: u64, drop_rate: f64) -> Self {
        FaultPlan {
            seed,
            drop_rate,
            ..FaultPlan::default()
        }
    }

    /// A chaos plan: drops, duplicates, reorders and delays all at `rate`.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            drop_rate: rate,
            duplicate_rate: rate,
            reorder_rate: rate,
            delay_rate: rate,
            extra_delay: 5e-4,
            ..FaultPlan::default()
        }
    }

    /// Add a rank crash at a virtual time.
    pub fn with_crash(mut self, rank: usize, at: f64) -> Self {
        self.crashes.push(RankCrash { rank, at });
        self
    }

    /// Add a rank stall at a virtual time.
    pub fn with_stall(mut self, rank: usize, at: f64, duration: f64) -> Self {
        self.stalls.push(RankStall { rank, at, duration });
        self
    }

    /// Uniform pseudo-random value in `[0, 1)` for one decision.
    fn chance(&self, stream: u64, from: usize, to: usize, seq: u64, attempt: u32) -> f64 {
        let link = (from as u64) << 32 | to as u64;
        let mut h = splitmix64(self.seed ^ splitmix64(stream));
        h = splitmix64(h ^ link);
        h = splitmix64(h ^ seq);
        h = splitmix64(h ^ attempt as u64);
        // 53 high bits → uniform double in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Is transmission `attempt` of message `seq` on `from → to` dropped?
    pub fn dropped(&self, from: usize, to: usize, seq: u64, attempt: u32) -> bool {
        self.drop_rate > 0.0 && self.chance(STREAM_DROP, from, to, seq, attempt) < self.drop_rate
    }

    /// Is message `seq` on `from → to` delivered twice?
    pub fn duplicated(&self, from: usize, to: usize, seq: u64) -> bool {
        self.duplicate_rate > 0.0 && self.chance(STREAM_DUP, from, to, seq, 0) < self.duplicate_rate
    }

    /// Is message `seq` on `from → to` overtaken by its successor?
    pub fn reordered(&self, from: usize, to: usize, seq: u64) -> bool {
        self.reorder_rate > 0.0 && self.chance(STREAM_REORDER, from, to, seq, 0) < self.reorder_rate
    }

    /// Extra wire delay for message `seq` on `from → to`, if any.
    pub fn delayed(&self, from: usize, to: usize, seq: u64) -> Option<f64> {
        (self.delay_rate > 0.0 && self.chance(STREAM_DELAY, from, to, seq, 0) < self.delay_rate)
            .then_some(self.extra_delay)
    }

    /// Backoff charged to the sender's virtual clock before retransmission
    /// attempt `attempt` (1-based): exponential with base [`FaultPlan::rto`].
    pub fn backoff(&self, attempt: u32) -> f64 {
        self.rto * f64::powi(2.0, attempt.min(16) as i32 - 1)
    }

    /// The virtual time at which `rank` crashes, if any.
    pub fn crash_time(&self, rank: usize) -> Option<f64> {
        self.crashes.iter().find(|c| c.rank == rank).map(|c| c.at)
    }

    /// The stall configured for `rank`, if any.
    pub fn stall_of(&self, rank: usize) -> Option<RankStall> {
        self.stalls.iter().find(|s| s.rank == rank).copied()
    }

    /// Whether the plan injects any per-message link fault (drop, duplicate,
    /// reorder or delay).
    pub fn perturbs_links(&self) -> bool {
        self.drop_rate > 0.0
            || self.duplicate_rate > 0.0
            || self.reorder_rate > 0.0
            || self.delay_rate > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::chaos(1234, 0.3);
        for seq in 0..200u64 {
            assert_eq!(p.dropped(0, 1, seq, 0), p.dropped(0, 1, seq, 0));
            assert_eq!(p.duplicated(2, 3, seq), p.duplicated(2, 3, seq));
            assert_eq!(p.reordered(2, 3, seq), p.reordered(2, 3, seq));
        }
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let p = FaultPlan::lossy(99, 0.25);
        let n = 20_000;
        let dropped = (0..n).filter(|&s| p.dropped(0, 1, s, 0)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "empirical drop rate {rate}");
    }

    #[test]
    fn streams_are_independent() {
        // A message dropped on attempt 0 is usually not dropped on attempt 1;
        // with independent streams the double-drop rate is ≈ rate².
        let p = FaultPlan::lossy(7, 0.2);
        let n = 20_000;
        let both = (0..n)
            .filter(|&s| p.dropped(0, 1, s, 0) && p.dropped(0, 1, s, 1))
            .count();
        let rate = both as f64 / n as f64;
        assert!((rate - 0.04).abs() < 0.01, "double-drop rate {rate}");
    }

    #[test]
    fn links_get_different_fault_patterns() {
        let p = FaultPlan::lossy(5, 0.5);
        let a: Vec<bool> = (0..64).map(|s| p.dropped(0, 1, s, 0)).collect();
        let b: Vec<bool> = (0..64).map(|s| p.dropped(1, 0, s, 0)).collect();
        assert_ne!(a, b, "link direction must decorrelate faults");
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = FaultPlan::lossy(1, 0.1);
        assert_eq!(p.backoff(1), p.rto);
        assert_eq!(p.backoff(2), 2.0 * p.rto);
        assert_eq!(p.backoff(3), 4.0 * p.rto);
        assert_eq!(p.backoff(16), p.backoff(17), "backoff is capped");
    }

    #[test]
    fn crash_and_stall_lookup() {
        let p = FaultPlan::default()
            .with_crash(2, 0.5)
            .with_stall(1, 0.25, 3.0);
        assert_eq!(p.crash_time(2), Some(0.5));
        assert_eq!(p.crash_time(0), None);
        let s = p.stall_of(1).unwrap();
        assert_eq!((s.at, s.duration), (0.25, 3.0));
        assert!(!p.perturbs_links());
        assert!(FaultPlan::lossy(0, 0.1).perturbs_links());
    }
}
