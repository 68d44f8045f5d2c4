//! MPI-style tag-matching semantics of the threaded engine, exercised
//! through the public crate API:
//!
//! * messages received out of tag order are buffered (the NIC holds them)
//!   and later matched without re-delivery,
//! * wait/compute accounting is exact under a hand-computable machine model,
//! * repeated runs of the same program produce bit-identical clocks.

use tilecc_cluster::{run_cluster, Comm, EngineOptions, FaultPlan, MachineModel};

fn model() -> MachineModel {
    MachineModel {
        compute_per_iter: 1.0,
        send_overhead: 1.0,
        recv_overhead: 2.0,
        wire_latency: 4.0,
        per_byte: 0.5,
    }
}

#[test]
fn out_of_order_tags_are_buffered_and_matched() {
    // Rank 0 sends tags 1..=4 in ascending order; rank 1 receives them in
    // descending order. Every receive must yield the payload matching its
    // tag, which forces the first three arrivals into the pending buffer.
    let report = run_cluster(
        2,
        MachineModel::zero_comm(0.0),
        EngineOptions::default(),
        |comm| {
            if comm.rank() == 0 {
                for tag in 1..=4i64 {
                    comm.send_tagged(1, tag, vec![tag as f64 * 10.0], 8);
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for tag in (1..=4i64).rev() {
                    let v = comm.recv_tagged(0, tag);
                    assert_eq!(v, vec![tag as f64 * 10.0], "payload must match tag {tag}");
                    got.push(v[0]);
                }
                got
            }
        },
    )
    .unwrap();
    assert_eq!(report.results[1], vec![40.0, 30.0, 20.0, 10.0]);
    // All four messages delivered exactly once despite the buffering.
    assert_eq!(report.stats[1].messages_received, 4);
    assert_eq!(report.total_messages(), 4);
}

#[test]
fn interleaved_senders_match_by_source_and_tag() {
    // Ranks 1 and 2 both send tags {5, 6} to rank 0, which drains them in
    // an order that interleaves sources and reverses tags per source.
    let report = run_cluster(
        3,
        MachineModel::zero_comm(0.0),
        EngineOptions::default(),
        |comm| match comm.rank() {
            0 => {
                let mut sum = 0.0;
                for (from, tag) in [(1usize, 6i64), (2, 6), (1, 5), (2, 5)] {
                    let v = comm.recv_tagged(from, tag);
                    assert_eq!(v, vec![(from as i64 * 100 + tag) as f64]);
                    sum += v[0];
                }
                sum
            }
            r => {
                for tag in [5i64, 6] {
                    comm.send_tagged(0, tag, vec![(r as i64 * 100 + tag) as f64], 8);
                }
                0.0
            }
        },
    )
    .unwrap();
    assert_eq!(report.results[0], 105.0 + 106.0 + 205.0 + 206.0);
}

#[test]
fn wait_and_compute_accounting_is_exact() {
    // Hand-computed schedule under `model()`:
    //   rank 0: compute 3 iters            → t = 3   (compute_time = 3)
    //           send tag 10, 8 B: 1 + 8·0.5 → t = 8   (arrives 8 + 4 = 12)
    //           send tag 20, 8 B           → t = 13  (arrives 13 + 4 = 17)
    //   rank 1: recv tag 20: tag-10 message arrives first and is buffered
    //           without advancing the clock; tag 20 is ready at 17, so the
    //           receiver waits 17 − 0 = 17, then pays recv_overhead → t = 19
    //           recv tag 10: already buffered (ready 12 < 19, no wait) → 21
    let report = run_cluster(2, model(), EngineOptions::default(), |comm| {
        if comm.rank() == 0 {
            comm.advance_compute(3);
            comm.send_tagged(1, 10, vec![1.0], 8);
            comm.send_tagged(1, 20, vec![2.0], 8);
            comm.local_time()
        } else {
            assert_eq!(comm.recv_tagged(0, 20), vec![2.0]);
            assert_eq!(comm.recv_tagged(0, 10), vec![1.0]);
            comm.local_time()
        }
    })
    .unwrap();
    assert!((report.results[0] - 13.0).abs() < 1e-12);
    assert!((report.results[1] - 21.0).abs() < 1e-12);
    assert!((report.stats[0].compute_time - 3.0).abs() < 1e-12);
    assert!((report.stats[0].wait_time - 0.0).abs() < 1e-12);
    assert!((report.stats[1].wait_time - 17.0).abs() < 1e-12);
    assert!((report.stats[1].compute_time - 0.0).abs() < 1e-12);
    assert!((report.makespan() - 21.0).abs() < 1e-12);
    assert_eq!(report.total_bytes(), 16);
}

/// A small tag-heavy ring program used by the determinism tests. Returns
/// `(received-data checksum, final virtual clock)`: the checksum must be
/// bitwise stable even under faults, while retransmission backoff is allowed
/// to shift the clock.
fn ring_program(comm: &mut tilecc_cluster::ThreadedComm) -> (f64, f64) {
    let (r, n) = (comm.rank(), comm.size());
    let next = (r + 1) % n;
    let prev = (r + n - 1) % n;
    comm.advance_compute(1 + r as u64);
    for round in 0..3i64 {
        comm.send_tagged(next, round, vec![r as f64 + round as f64], 16);
    }
    let mut acc = 0.0;
    for round in 0..3i64 {
        // Receive rounds out of tag order on odd ranks to stress the buffer.
        let want = if r % 2 == 1 { 2 - round } else { round };
        let v = comm.recv_tagged(prev, want);
        assert_eq!(v, vec![prev as f64 + want as f64]);
        acc += 0.5 * v[0] + acc * 0.25;
        comm.advance_compute(2);
    }
    (acc, comm.local_time())
}

#[test]
fn repeated_runs_have_bit_identical_makespans() {
    let runs: Vec<(u64, Vec<u64>)> = (0..5)
        .map(|_| {
            let r = run_cluster(4, model(), EngineOptions::default(), ring_program).unwrap();
            let data: Vec<u64> = r.results.iter().map(|(acc, _)| acc.to_bits()).collect();
            (r.makespan().to_bits(), data)
        })
        .collect();
    assert!(
        runs.iter().all(|b| *b == runs[0]),
        "makespans and data must be bit-identical across runs: {runs:?}"
    );
}

#[test]
fn faulty_runs_match_clean_tag_semantics() {
    // The reliability layer must preserve tag matching: a lossy, duplicating,
    // reordering substrate still yields the same per-rank results bitwise.
    let clean = run_cluster(4, model(), EngineOptions::default(), ring_program).unwrap();
    let opts = EngineOptions {
        fault: Some(FaultPlan::chaos(0x7A65, 0.25)),
        ..EngineOptions::default()
    };
    let faulty = tilecc_cluster::run_cluster(4, model(), opts, ring_program)
        .expect("reliability layer must mask injected faults");
    for ((c, _), (f, _)) in clean.results.iter().zip(&faulty.results) {
        assert_eq!(c.to_bits(), f.to_bits(), "per-rank data must match bitwise");
    }
    assert!(
        faulty.total_retransmissions() > 0,
        "25% drop must force retransmissions"
    );
}
