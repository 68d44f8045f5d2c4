//! Integration tests for the loopback TCP engine: smoke runs over real
//! sockets, bitwise threaded-vs-TCP equivalence (clean, faulty and
//! recovering, under both comm schemes, down to every observability counter
//! and virtual accumulator), in-process crash recovery on both backends, and
//! watchdog behaviour through the TCP transport.

use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use tilecc_cluster::obs::RunReport as ObsReport;
use tilecc_cluster::{
    run_cluster, run_cluster_tcp, CommScheme, Counter, EngineOptions, FaultPlan, InjectedCrash,
    Link, MachineModel, MetricsRegistry, RankCore, RecoveryOptions, RunError, RunReport, TcpComm,
    ThreadedComm, VirtAcc,
};

fn test_model() -> MachineModel {
    MachineModel {
        compute_per_iter: 1e-7,
        send_overhead: 3e-5,
        recv_overhead: 3e-5,
        wire_latency: 4e-5,
        per_byte: 8e-8,
    }
}

fn opts_with(fault: Option<FaultPlan>) -> EngineOptions {
    EngineOptions {
        fault,
        wall_timeout: Some(Duration::from_secs(60)),
        ..EngineOptions::default()
    }
}

/// A pipeline body exercising sends, tagged receives, compute, the comm
/// lane drain and stats — generic over the backend so the exact same
/// closure runs on both.
fn wavefront_body<L: Link>(comm: &mut RankCore<L>) -> (f64, Vec<u64>) {
    let rank = comm.rank();
    let size = comm.size();
    let mut acc = vec![rank as u64];
    for step in 0..3i64 {
        if rank > 0 {
            let v = comm.recv_tagged(rank - 1, step);
            acc.push(v[0].to_bits());
        }
        comm.advance_compute(100 + 10 * rank as u64);
        if rank + 1 < size {
            comm.send_tagged(rank + 1, step, vec![(rank * 100) as f64 + step as f64], 64);
        }
    }
    comm.drain_sends();
    (comm.local_time(), acc)
}

/// A ring exchange that checkpoints every `recovery_interval` rounds and
/// restores from injected crashes — the executor's recovery loop in
/// miniature. The app snapshot is the accumulator's bit pattern, and so is
/// the result.
fn resilient_ring<L: Link>(comm: &mut RankCore<L>) -> u64 {
    const ROUNDS: u64 = 9;
    let k = comm.recovery_interval().unwrap_or(u64::MAX);
    let mut pos = 0u64;
    let mut acc = (comm.rank() + 1) as f64;
    loop {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let (r, n) = (comm.rank(), comm.size());
            let mut acc = acc;
            for round in pos..ROUNDS {
                if round % k == 0 {
                    comm.checkpoint(round, &acc.to_bits().to_le_bytes());
                }
                comm.advance_compute(10 + r as u64);
                comm.send_tagged((r + 1) % n, round as i64, vec![acc, acc * 0.5], 16);
                let got = comm.recv_tagged((r + n - 1) % n, round as i64);
                acc += got[0] * 0.25 + got[1];
            }
            acc.to_bits()
        }));
        match attempt {
            Ok(v) => return v,
            Err(payload) => {
                if payload.downcast_ref::<InjectedCrash>().is_some() {
                    if let Some(res) = comm.try_restore() {
                        pos = res.chain_pos;
                        acc = f64::from_bits(u64::from_le_bytes(
                            res.app[..8].try_into().expect("8-byte app snapshot"),
                        ));
                        continue;
                    }
                }
                resume_unwind(payload);
            }
        }
    }
}

/// The two in-process backends.
#[derive(Clone, Copy, Debug)]
enum Backend {
    Threaded,
    Tcp,
}

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Tcp];

/// Run the 3-rank resilient ring on `backend`.
fn run_ring(
    backend: Backend,
    fault: Option<FaultPlan>,
    recovery: Option<RecoveryOptions>,
    obs: Option<Arc<MetricsRegistry>>,
) -> Result<RunReport<u64>, RunError> {
    let options = EngineOptions {
        recovery,
        obs,
        ..opts_with(fault)
    };
    let model = MachineModel::fast_ethernet_p3();
    match backend {
        Backend::Threaded => run_cluster(3, model, options, resilient_ring),
        Backend::Tcp => run_cluster_tcp(3, model, options, resilient_ring),
    }
}

fn ring_policy(max_recoveries: u64) -> Option<RecoveryOptions> {
    Some(RecoveryOptions {
        interval: 3,
        max_recoveries,
    })
}

#[test]
fn tcp_loopback_smoke_run() {
    let report = run_cluster_tcp(4, test_model(), opts_with(None), wavefront_body).unwrap();
    assert_eq!(report.results.len(), 4);
    assert!(report.makespan() > 0.0);
    // 3 steps on each of the 3 forward links.
    assert_eq!(report.total(Counter::MessagesSent), 9);
    assert_eq!(report.total(Counter::BytesSent), 9 * 64);
    // Every rank's returned clock equals its reported clock.
    for (rank, (t, _)) in report.results.iter().enumerate() {
        assert_eq!(t.to_bits(), report.local_times[rank].to_bits());
    }
}

/// The heart of the backend contract: the same program under the same
/// options produces bit-identical clocks, data, statistics, observability
/// counters and virtual accumulators on threads and on sockets — under
/// both comm schemes.
fn assert_backends_agree<R: PartialEq + Debug + Send + 'static>(
    ranks: usize,
    model: MachineModel,
    options: EngineOptions,
    threaded_body: fn(&mut ThreadedComm) -> R,
    tcp_body: fn(&mut TcpComm) -> R,
) {
    for scheme in [CommScheme::Blocking, CommScheme::Overlapped] {
        let (reg_t, reg_c) = (MetricsRegistry::new(), MetricsRegistry::new());
        let with = |reg: &Arc<MetricsRegistry>| EngineOptions {
            scheme,
            obs: Some(reg.clone()),
            ..options.clone()
        };
        let threaded = run_cluster(ranks, model, with(&reg_t), threaded_body).unwrap();
        let tcp = run_cluster_tcp(ranks, model, with(&reg_c), tcp_body).unwrap();
        assert_eq!(threaded.local_times.len(), tcp.local_times.len());
        for rank in 0..ranks {
            let ctx = format!("{scheme:?} rank {rank}");
            assert_eq!(
                threaded.local_times[rank].to_bits(),
                tcp.local_times[rank].to_bits(),
                "{ctx}: clock must match bitwise"
            );
            assert_eq!(
                threaded.results[rank], tcp.results[rank],
                "{ctx}: results must match"
            );
            let (mt, mc) = (reg_t.rank_metrics(rank), reg_c.rank_metrics(rank));
            for c in Counter::ALL {
                assert_eq!(mt.get(c), mc.get(c), "{ctx}: counter {}", c.name());
            }
            for a in VirtAcc::ALL {
                assert_eq!(
                    mt.virt_get(a).to_bits(),
                    mc.virt_get(a).to_bits(),
                    "{ctx}: accumulator {}",
                    a.name()
                );
            }
        }
        assert_eq!(threaded.makespan().to_bits(), tcp.makespan().to_bits());
        // The engines' own reports agree on the whole deterministic subset:
        // makespan, every rank's clock split and every logical counter.
        let report = |r: &RunReport<R>| ObsReport::from_snapshots(&r.stats, &r.local_times);
        let diffs = report(&threaded).deterministic_diff(&report(&tcp));
        assert!(diffs.is_empty(), "{scheme:?}: {diffs:?}");
    }
}

#[test]
fn tcp_matches_threaded_bitwise_clean() {
    assert_backends_agree(
        4,
        test_model(),
        opts_with(None),
        wavefront_body,
        wavefront_body,
    );
}

#[test]
fn tcp_matches_threaded_bitwise_under_chaos() {
    // Heavy chaos: drops, duplicates, reorders and delays all at 30%. The
    // reliability layer must mask everything identically on both backends.
    let plan = FaultPlan::chaos(2026, 0.3);
    let threaded = run_cluster(
        4,
        test_model(),
        opts_with(Some(plan.clone())),
        wavefront_body,
    )
    .unwrap();
    assert!(
        threaded.total(Counter::Retransmits) > 0 || threaded.total(Counter::DupsSuppressed) > 0,
        "chaos plan must actually perturb this schedule"
    );
    assert_backends_agree(
        4,
        test_model(),
        opts_with(Some(plan)),
        wavefront_body,
        wavefront_body,
    );
}

#[test]
fn tcp_matches_threaded_bitwise_through_a_recovery() {
    // In-process recovery: rank 1 crashes mid-run, rewinds to its latest
    // checkpoint and re-executes, over chaotic links.
    let clean = run_ring(Backend::Threaded, None, ring_policy(1), None).unwrap();
    let fault = FaultPlan::chaos(0xC0FFEE, 0.3).with_crash(1, clean.makespan() * 0.5);
    let options = EngineOptions {
        recovery: ring_policy(1),
        ..opts_with(Some(fault))
    };
    let model = MachineModel::fast_ethernet_p3();
    assert_backends_agree(3, model, options, resilient_ring, resilient_ring);
}

#[test]
fn injected_crash_recovers_bitwise() {
    for backend in BACKENDS {
        let clean = run_ring(backend, None, ring_policy(1), None).unwrap();
        let crash = FaultPlan::default().with_crash(1, clean.makespan() * 0.5);
        let rec = run_ring(backend, Some(crash), ring_policy(1), None).unwrap();
        // Data bitwise identical to the fault-free run.
        assert_eq!(clean.results, rec.results, "{backend:?}: data");
        // The victim recovered exactly once; everyone else never rewound.
        assert_eq!(rec.stats[1].counter(Counter::Recoveries), 1);
        assert!(rec.stats[1].recovery_time() > 0.0);
        assert_eq!(rec.stats[0].counter(Counter::Recoveries), 0);
        assert_eq!(rec.stats[2].counter(Counter::Recoveries), 0);
        // The settle step adds the recovery debt once at the end, so the
        // recovered clock is exactly the fault-free clock plus the debt.
        for r in 0..3 {
            let expected = clean.local_times[r] + rec.stats[r].recovery_time();
            assert_eq!(
                expected.to_bits(),
                rec.local_times[r].to_bits(),
                "{backend:?} rank {r}: {} + {} != {}",
                clean.local_times[r],
                rec.stats[r].recovery_time(),
                rec.local_times[r]
            );
        }
        // Logical counters match the fault-free run.
        for (c, f) in clean.stats.iter().zip(&rec.stats) {
            for k in [
                Counter::MessagesSent,
                Counter::BytesSent,
                Counter::MessagesReceived,
                Counter::BytesReceived,
            ] {
                assert_eq!(c.counter(k), f.counter(k), "{backend:?}: {}", k.name());
            }
        }
    }
}

#[test]
fn recovery_preserves_the_partition_identity() {
    for backend in BACKENDS {
        let clean = run_ring(backend, None, ring_policy(1), None).unwrap();
        let reg = MetricsRegistry::new();
        let crash = FaultPlan::default().with_crash(2, clean.makespan() * 0.4);
        let rec = run_ring(backend, Some(crash), ring_policy(1), Some(reg.clone())).unwrap();
        let obs_report = reg.run_report(&rec.local_times);
        assert_eq!(obs_report.total(Counter::Recoveries), 1);
        assert!(obs_report.total(Counter::Checkpoints) > 0);
        for r in &obs_report.ranks {
            assert!(
                (r.compute + r.wait + r.comm + r.recovery - r.local_time).abs() < 1e-9,
                "{backend:?} rank {}: {} + {} + {} + {} != {}",
                r.rank,
                r.compute,
                r.wait,
                r.comm,
                r.recovery,
                r.local_time
            );
        }
        // Obs counters match a fault-free run with the same cadence (the
        // rewind restores them before re-execution re-adds them).
        let clean_reg = MetricsRegistry::new();
        let clean2 = run_ring(backend, None, ring_policy(1), Some(clean_reg.clone())).unwrap();
        let clean_report = clean_reg.run_report(&clean2.local_times);
        for c in [
            Counter::MessagesSent,
            Counter::BytesReceived,
            Counter::Checkpoints,
        ] {
            assert_eq!(clean_report.total(c), obs_report.total(c), "{backend:?}");
        }
    }
}

#[test]
fn exhausted_recovery_budget_fails_the_run() {
    for backend in BACKENDS {
        let clean = run_ring(backend, None, ring_policy(1), None).unwrap();
        let crash = FaultPlan::default().with_crash(1, clean.makespan() * 0.5);
        match run_ring(backend, Some(crash), ring_policy(0), None).unwrap_err() {
            RunError::RankPanicked { rank, payload } => {
                assert_eq!(rank, 1);
                assert!(payload.contains("injected crash"), "{payload}");
            }
            other => panic!("{backend:?}: expected RankPanicked, got {other:?}"),
        }
    }
}

#[test]
fn crash_overlapping_chaos_recovers_the_checksum() {
    // A rank crash overlapping 30% drop/dup/reorder on the same run must
    // still reproduce the fault-free data bitwise, deterministically.
    for backend in BACKENDS {
        let clean = run_ring(backend, None, None, None).unwrap();
        let fault = || FaultPlan::chaos(0xC0FFEE, 0.3).with_crash(1, clean.makespan() * 0.5);
        let rec = run_ring(backend, Some(fault()), ring_policy(1), None).unwrap();
        assert_eq!(clean.results, rec.results, "{backend:?}: data");
        assert_eq!(rec.stats[1].counter(Counter::Recoveries), 1);
        let again = run_ring(backend, Some(fault()), ring_policy(1), None).unwrap();
        assert_eq!(rec.results, again.results);
        assert_eq!(rec.local_times, again.local_times);
    }
}

#[test]
fn two_crashes_consume_the_shared_budget() {
    for backend in BACKENDS {
        let clean = run_ring(backend, None, ring_policy(2), None).unwrap();
        let fault = FaultPlan::default()
            .with_crash(0, clean.makespan() * 0.3)
            .with_crash(2, clean.makespan() * 0.6);
        let rec = run_ring(backend, Some(fault), ring_policy(2), None).unwrap();
        assert_eq!(clean.results, rec.results, "{backend:?}: data");
        assert_eq!(rec.stats[0].counter(Counter::Recoveries), 1);
        assert_eq!(rec.stats[2].counter(Counter::Recoveries), 1);
    }
}

#[test]
fn tcp_deadlock_is_detected() {
    // Both ranks receive first: a cycle with no message in flight. The
    // watchdog must name both ranks and their waits instead of hanging.
    let err = run_cluster_tcp(2, test_model(), opts_with(None), |comm: &mut _| {
        let peer = 1 - comm.rank();
        let _ = comm.recv_tagged(peer, 7);
    })
    .unwrap_err();
    match err {
        RunError::Deadlock {
            blocked_ranks,
            waiting_on,
        } => {
            assert_eq!(blocked_ranks, vec![0, 1]);
            assert!(waiting_on.contains(&(0, 1, 7)), "{waiting_on:?}");
            assert!(waiting_on.contains(&(1, 0, 7)), "{waiting_on:?}");
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

#[test]
fn tcp_rank_panic_is_contained() {
    let err = run_cluster_tcp(3, test_model(), opts_with(None), |comm: &mut _| {
        if comm.rank() == 1 {
            panic!("injected test failure");
        }
        // Ranks 0 and 2 wait on the dead rank and observe the disconnect.
        let _ = comm.try_recv_tagged(1, 0);
    })
    .unwrap_err();
    match err {
        RunError::RankPanicked { rank, payload } => {
            assert_eq!(rank, 1);
            assert!(payload.contains("injected test failure"), "{payload}");
        }
        other => panic!("expected rank panic, got {other}"),
    }
}

#[test]
fn crossing_sends_larger_than_the_socket_buffers_complete() {
    // Both ranks send first, each a frame far past what the loopback
    // socket buffers hold, and only then receive. A send blocks in its
    // socket write until the peer's reader thread drains it, so this
    // finishes only because readers never wait on the rank they serve.
    const VALUES: u64 = 1 << 20;
    let payload =
        |rank: u64| -> Vec<f64> { (0..VALUES).map(|i| (i * 2 + rank) as f64 * 0.1).collect() };
    let t0 = std::time::Instant::now();
    let report = run_cluster_tcp(2, test_model(), opts_with(None), move |comm: &mut _| {
        let rank = comm.rank();
        comm.send_tagged(1 - rank, 5, payload(rank as u64), 8 * VALUES as usize);
        comm.recv_tagged(1 - rank, 5)
    })
    .unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "took {:?}",
        t0.elapsed()
    );
    for (rank, got) in report.results.iter().enumerate() {
        let sent = payload(1 - rank as u64);
        assert_eq!(got.len(), sent.len(), "rank {rank}");
        assert!(
            got.iter()
                .zip(&sent)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "rank {rank} received other values than its peer sent"
        );
    }
}
