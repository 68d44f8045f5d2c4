//! The thread budget of the loopback TCP engine: each rank runs one reader
//! thread per peer and writes its own frames, so no writer thread exists.
//! This is the only test of its binary: a test running in parallel would
//! add threads to the count.

#![cfg(target_os = "linux")]

use std::time::Duration;
use tilecc_cluster::{run_cluster_tcp, EngineOptions, MachineModel, TcpComm};

const RANKS: usize = 4;

/// Names of this process's threads (Linux keeps the first 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// Send a token to every peer and take one from each: once it returns,
/// every peer has built its link and none has dropped it yet.
fn all_to_all(comm: &mut TcpComm, tag: i64) {
    let (rank, size) = (comm.rank(), comm.size());
    for peer in (0..size).filter(|&p| p != rank) {
        comm.send_tagged(peer, tag, vec![rank as f64], 8);
    }
    for peer in (0..size).filter(|&p| p != rank) {
        assert_eq!(comm.recv_tagged(peer, tag), vec![peer as f64]);
    }
}

#[test]
fn a_tcp_rank_runs_one_reader_thread_per_peer_and_no_writer() {
    let options = EngineOptions {
        wall_timeout: Some(Duration::from_secs(60)),
        ..EngineOptions::default()
    };
    let report = run_cluster_tcp(RANKS, MachineModel::fast_ethernet_p3(), options, |comm| {
        let (rank, size) = (comm.rank(), comm.size());
        // One ring exchange.
        comm.send_tagged((rank + 1) % size, 0, vec![rank as f64], 8);
        let from = (rank + size - 1) % size;
        assert_eq!(comm.recv_tagged(from, 0), vec![from as f64]);
        // After a second all-to-all round every rank has received through
        // each of its reader threads, so each runs under its own name.
        all_to_all(comm, 1);
        all_to_all(comm, 2);
        let names = thread_names();
        // The count stays valid until every rank has taken it.
        all_to_all(comm, 3);
        names
    })
    .expect("the 4-rank run completes");
    for (rank, names) in report.results.iter().enumerate() {
        let readers = names
            .iter()
            .filter(|n| {
                n.strip_prefix("tilecc-tcp-r")
                    .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
            })
            .count();
        let writers = names
            .iter()
            .filter(|n| n.starts_with("tilecc-tcp-w"))
            .count();
        assert_eq!(readers, RANKS * (RANKS - 1), "rank {rank} saw {names:?}");
        assert_eq!(writers, 0, "rank {rank} saw {names:?}");
    }
}
