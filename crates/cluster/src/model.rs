//! Machine and network cost model for virtual-time simulation.
//!
//! The paper evaluates on 16 Pentium-III/500 nodes connected by
//! FastEthernet, running MPI. We reproduce the *shape* of its results with a
//! linear (LogGP-flavoured) cost model: computation advances a processor's
//! clock per iteration; a message costs a send overhead plus a per-byte
//! bandwidth term on the sender, travels one wire latency, and costs a
//! receive overhead on the receiver.

/// Linear machine/network cost model. All times in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// Seconds per loop iteration (the kernel body).
    pub compute_per_iter: f64,
    /// Sender-side per-message overhead (MPI stack, packing dispatch).
    pub send_overhead: f64,
    /// Receiver-side per-message overhead.
    pub recv_overhead: f64,
    /// Wire latency between any two nodes.
    pub wire_latency: f64,
    /// Seconds per payload byte (inverse bandwidth).
    pub per_byte: f64,
}

impl MachineModel {
    /// Calibrated to the paper's testbed: 500 MHz Pentium III nodes on
    /// switched FastEthernet (100 Mbit/s ≈ 12.5 MB/s, ~100 µs MPI latency),
    /// and a ~10-flop stencil body at roughly 100 ns/iteration.
    pub fn fast_ethernet_p3() -> Self {
        MachineModel {
            compute_per_iter: 100e-9,
            send_overhead: 30e-6,
            recv_overhead: 30e-6,
            wire_latency: 40e-6,
            per_byte: 0.08e-6,
        }
    }

    /// An idealized zero-communication-cost model (useful to isolate the
    /// pure scheduling effect of tile shapes).
    pub fn zero_comm(compute_per_iter: f64) -> Self {
        MachineModel {
            compute_per_iter,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            wire_latency: 0.0,
            per_byte: 0.0,
        }
    }

    /// Sender-side cost of injecting a message of `bytes` payload bytes.
    #[inline]
    pub fn send_cost(&self, bytes: usize) -> f64 {
        self.send_overhead + self.per_byte * bytes as f64
    }

    /// Virtual time of `iters` loop iterations.
    #[inline]
    pub fn compute_cost(&self, iters: u64) -> f64 {
        self.compute_per_iter * iters as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ethernet_magnitudes() {
        let m = MachineModel::fast_ethernet_p3();
        // 8 KB message ≈ 0.75 ms; dominated by bandwidth, not latency.
        let t = m.send_cost(8192) + m.wire_latency + m.recv_overhead;
        assert!(t > 0.5e-3 && t < 1.5e-3, "t = {t}");
        // 10k iterations ≈ 1 ms.
        let c = m.compute_cost(10_000);
        assert!((c - 1.0e-3).abs() < 1e-9);
    }

    #[test]
    fn zero_comm_costs_nothing_to_talk() {
        let m = MachineModel::zero_comm(1e-6);
        assert_eq!(m.send_cost(1 << 20) + m.wire_latency + m.recv_overhead, 0.0);
        assert!((m.compute_cost(5) - 5e-6).abs() < 1e-15);
    }
}
