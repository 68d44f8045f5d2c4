//! The TCP cluster backend: the [`crate::Comm`] contract over real sockets.
//!
//! Where the threaded engine moves [`Envelope`]s through in-process
//! channels, this backend serializes every message through the TCMP wire
//! format ([`crate::wire`]) and moves it over localhost (or cross-machine)
//! TCP connections. The endpoint is the threaded engine's [`RankCore`] —
//! virtual-clock arithmetic, reliability sublayer, fault injection and
//! in-process recovery written once — over a socket [`TcpLink`], so for the
//! same program the two backends produce **bitwise-identical data,
//! identical virtual clocks, and identical logical counters** — faulty runs
//! included. `ready_at` travels
//! as an `f64` bit pattern and fault decisions are pure hashes of
//! `(seed, link, seq, attempt)`, so nothing depends on real-time races.
//!
//! # Topology
//!
//! Connection establishment is rendezvous-based: every rank binds an
//! ephemeral listener, reports it to the rendezvous ([`Rendezvous`]) with
//! a `HELLO` frame, receives the full address list (`ADDRS`), then builds
//! a full mesh — dialing every lower-ranked peer (announcing itself with a
//! `PEER` frame) and accepting from every higher-ranked one. One
//! bidirectional socket serves each unordered rank pair.
//!
//! Per peer, a *writer thread* drains a bounded queue of pre-encoded
//! frames onto the socket, and a *reader thread* decodes incoming frames
//! into the same tag-matching receive path the threaded engine uses. On
//! clean exit writers flush and send `FIN` (`shutdown(Write)`); readers
//! keep draining to end-of-stream so a socket is never reset while it may
//! still carry undelivered frames.
//!
//! # Process models
//!
//! * [`run_cluster_tcp`] — every rank is a thread of this process, but all
//!   communication crosses real sockets. Drop-in replacement for
//!   [`crate::run_cluster`]; used by tests, the fuzz harness, and
//!   in-process callers.
//! * [`run_worker`] + [`Rendezvous`]/[`collect_workers`] — the
//!   multi-process model: a driver process spawns one worker process per
//!   rank, workers run [`run_worker`] and report results over their
//!   rendezvous (control) connection, and the driver supervises them with
//!   a heartbeat-fed deadlock watchdog mirroring the threaded engine's.

use crate::comm::{CommStats, Envelope, Restored};
use crate::error::{CommError, RunError};
use crate::model::MachineModel;
use crate::obs::{GaugeId, HistId, RankMetrics, RankObs, StatsSnapshot};
use crate::rank::{
    new_replay_logs, run_rank, CkptState, Link, RankCore, RankEnd, ReplayLogs, RunShared,
};
use crate::reliability::{LinkSeq, ReplayLog};
use crate::threaded::{
    collect, install_quiet_panic_hook, EngineOptions, Monitor, RankPhase, RunReport, ABORT_GRACE,
    COLLECT_POLL,
};
use crate::wire::{self, Frame, FrameKind};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Deadline for rendezvous and mesh handshakes.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);
/// Retry budget for dialing a listener that refuses the connection (a
/// respawned worker racing a fresh rendezvous, a peer's mesh listener not
/// yet bound). Deliberately shorter than [`HANDSHAKE_TIMEOUT`]: a plain
/// misconfiguration must fail fast, not after the handshake deadline.
const CONNECT_RETRY_BUDGET: Duration = Duration::from_secs(10);
/// Bounded depth (frames) of each per-peer writer queue.
const SEND_QUEUE_FRAMES: usize = 64;
/// How often a worker ships a heartbeat (`PROGRESS` frame) to the driver.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(50);
/// Consecutive silent driver sweeps with every live worker blocked before
/// the multi-process watchdog declares a deadlock. Sweeps run every
/// [`COLLECT_POLL`]; this must comfortably exceed [`HEARTBEAT_PERIOD`] so
/// a quiet-but-alive worker is never misread (~600 ms of global silence).
const DRIVER_STABLE_SWEEPS: u32 = 60;
/// How long a worker waits for the driver's `BYE` after its result.
const BYE_TIMEOUT: Duration = Duration::from_secs(60);

fn transport_error(stage: &str, e: impl std::fmt::Display) -> CommError {
    CommError::Transport {
        detail: format!("{stage}: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Connection establishment
// ---------------------------------------------------------------------------

/// The rendezvous listener: ranks report their mesh listeners here and
/// receive the full address list back. In the multi-process model the
/// driver owns it and keeps the per-rank control connections for results
/// and heartbeats.
pub struct Rendezvous {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Rendezvous {
    /// Bind an ephemeral rendezvous listener on localhost.
    pub fn bind() -> Result<Rendezvous, CommError> {
        Rendezvous::bind_to("127.0.0.1:0")
    }

    /// Bind the rendezvous listener on an explicit local address
    /// (`host:port`; port 0 picks an ephemeral port) — the driver's
    /// `--bind-addr` knob for multi-machine runs.
    pub fn bind_to(addr: &str) -> Result<Rendezvous, CommError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| transport_error("rendezvous bind", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| transport_error("rendezvous addr", e))?;
        Ok(Rendezvous { listener, addr })
    }

    /// The `host:port` workers should `--connect` to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept `size` `HELLO`s (each announcing a rank's mesh listener and
    /// expected world size), then broadcast the `ADDRS` list. Returns the
    /// control connections in rank order.
    pub fn coordinate(&self, size: usize, deadline: Duration) -> Result<Vec<TcpStream>, CommError> {
        let until = Instant::now() + deadline;
        self.listener
            .set_nonblocking(true)
            .map_err(|e| transport_error("rendezvous nonblocking", e))?;
        let mut controls: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        let mut addrs: Vec<Option<String>> = vec![None; size];
        let mut pending = 0usize;
        while pending < size {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
                        .map_err(|e| transport_error("rendezvous control", e))?;
                    let hello = wire::read_frame(&mut stream)
                        .map_err(|e| transport_error("rendezvous hello", e))?;
                    if hello.kind != FrameKind::Hello {
                        return Err(transport_error(
                            "rendezvous hello",
                            format!("unexpected {:?} frame", hello.kind),
                        ));
                    }
                    let rank = hello.src as usize;
                    if rank >= size {
                        return Err(transport_error(
                            "rendezvous hello",
                            format!("rank {rank} out of range for world size {size}"),
                        ));
                    }
                    if hello.seq != size as u64 {
                        return Err(transport_error(
                            "rendezvous hello",
                            format!(
                                "rank {rank} expects world size {}, driver has {size}",
                                hello.seq
                            ),
                        ));
                    }
                    if controls[rank].is_some() {
                        return Err(transport_error(
                            "rendezvous hello",
                            format!("duplicate hello from rank {rank}"),
                        ));
                    }
                    addrs[rank] = Some(
                        String::from_utf8(hello.payload)
                            .map_err(|e| transport_error("rendezvous hello", e))?,
                    );
                    controls[rank] = Some(stream);
                    pending += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= until {
                        let missing: Vec<usize> =
                            (0..size).filter(|&r| controls[r].is_none()).collect();
                        return Err(transport_error(
                            "rendezvous",
                            format!("timed out waiting for ranks {missing:?}"),
                        ));
                    }
                    thread::sleep(COLLECT_POLL);
                }
                Err(e) => return Err(transport_error("rendezvous accept", e)),
            }
        }
        let list: Vec<String> = addrs
            .into_iter()
            .map(|a| a.expect("all collected"))
            .collect();
        let mut broadcast = Frame::control(FrameKind::Addrs, u32::MAX);
        broadcast.payload = list.join("\n").into_bytes();
        let mut out = Vec::with_capacity(size);
        for (rank, control) in controls.into_iter().enumerate() {
            let mut control = control.expect("all collected");
            wire::write_frame(&mut control, &broadcast)
                .map_err(|e| transport_error(&format!("rendezvous addrs to rank {rank}"), e))?;
            out.push(control);
        }
        Ok(out)
    }
}

/// One rank's established connections: the per-peer mesh sockets and the
/// control connection to the rendezvous.
struct Mesh {
    peers: Vec<Option<TcpStream>>,
    control: TcpStream,
}

/// Dial with bounded exponential backoff. A respawned worker can race the
/// driver's fresh rendezvous listener (or a peer's mesh listener), so a
/// refused connection is retried with doubling pauses until
/// [`CONNECT_RETRY_BUDGET`] is spent instead of failing on the first
/// attempt.
fn connect_backoff(addr: &SocketAddr, stage: &str) -> Result<TcpStream, CommError> {
    let until = Instant::now() + CONNECT_RETRY_BUDGET;
    let mut pause = Duration::from_millis(50);
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(transport_error(stage, "timed out retrying connect"));
        }
        match TcpStream::connect_timeout(addr, left) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() + pause >= until {
                    return Err(transport_error(stage, e));
                }
                thread::sleep(pause);
                pause = (pause * 2).min(Duration::from_secs(2));
            }
        }
    }
}

/// Build this rank's side of the full mesh through the rendezvous at
/// `rendezvous` (`host:port`), binding the mesh listener on `bind_addr`.
fn connect_mesh(
    rank: usize,
    size: usize,
    rendezvous: &str,
    bind_addr: &str,
) -> Result<Mesh, CommError> {
    let listener = TcpListener::bind(bind_addr).map_err(|e| transport_error("mesh bind", e))?;
    let my_addr = listener
        .local_addr()
        .map_err(|e| transport_error("mesh addr", e))?;
    let rdv_addr = rendezvous
        .to_socket_addrs()
        .map_err(|e| transport_error("rendezvous resolve", e))?
        .next()
        .ok_or_else(|| transport_error("rendezvous resolve", "no address"))?;
    let mut control = connect_backoff(&rdv_addr, "rendezvous connect")?;
    control
        .set_nodelay(true)
        .map_err(|e| transport_error("rendezvous connect", e))?;
    control
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| transport_error("rendezvous connect", e))?;
    let mut hello = Frame::control(FrameKind::Hello, rank as u32);
    hello.seq = size as u64;
    hello.payload = my_addr.to_string().into_bytes();
    wire::write_frame(&mut control, &hello).map_err(|e| transport_error("hello", e))?;
    let addrs_frame =
        wire::read_frame(&mut control).map_err(|e| transport_error("awaiting addrs", e))?;
    if addrs_frame.kind != FrameKind::Addrs {
        return Err(transport_error(
            "awaiting addrs",
            format!("unexpected {:?} frame", addrs_frame.kind),
        ));
    }
    let addrs: Vec<String> = String::from_utf8(addrs_frame.payload)
        .map_err(|e| transport_error("addrs payload", e))?
        .lines()
        .map(str::to_string)
        .collect();
    if addrs.len() != size {
        return Err(transport_error(
            "addrs payload",
            format!("{} addresses for world size {size}", addrs.len()),
        ));
    }

    let mut peers: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    // Dial every lower rank, announcing who we are.
    for (peer, addr) in addrs.iter().enumerate().take(rank) {
        let peer_addr = addr
            .to_socket_addrs()
            .map_err(|e| transport_error("peer resolve", e))?
            .next()
            .ok_or_else(|| transport_error("peer resolve", "no address"))?;
        let mut stream = connect_backoff(&peer_addr, &format!("dial rank {peer}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| transport_error("peer setup", e))?;
        wire::write_frame(&mut stream, &Frame::control(FrameKind::Peer, rank as u32))
            .map_err(|e| transport_error(&format!("peer handshake to rank {peer}"), e))?;
        peers[peer] = Some(stream);
    }
    // Accept from every higher rank.
    listener
        .set_nonblocking(true)
        .map_err(|e| transport_error("mesh accept", e))?;
    let until = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut accepted = 0usize;
    while accepted < size - rank - 1 {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_nodelay(true)
                    .map_err(|e| transport_error("peer setup", e))?;
                stream
                    .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
                    .map_err(|e| transport_error("peer setup", e))?;
                let peer_frame = wire::read_frame(&mut stream)
                    .map_err(|e| transport_error("peer handshake", e))?;
                if peer_frame.kind != FrameKind::Peer {
                    return Err(transport_error(
                        "peer handshake",
                        format!("unexpected {:?} frame", peer_frame.kind),
                    ));
                }
                let peer = peer_frame.src as usize;
                if peer <= rank || peer >= size || peers[peer].is_some() {
                    return Err(transport_error(
                        "peer handshake",
                        format!("unexpected peer rank {peer}"),
                    ));
                }
                // Reader threads block indefinitely from here on.
                stream
                    .set_read_timeout(None)
                    .map_err(|e| transport_error("peer setup", e))?;
                peers[peer] = Some(stream);
                accepted += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= until {
                    let missing: Vec<usize> =
                        (rank + 1..size).filter(|&p| peers[p].is_none()).collect();
                    return Err(transport_error(
                        "mesh accept",
                        format!("timed out waiting for ranks {missing:?}"),
                    ));
                }
                thread::sleep(COLLECT_POLL);
            }
            Err(e) => return Err(transport_error("mesh accept", e)),
        }
    }
    Ok(Mesh { peers, control })
}

// ---------------------------------------------------------------------------
// The endpoint
// ---------------------------------------------------------------------------

/// Worker-process checkpointing (see [`run_worker`]): the checkpoint file,
/// `CKPT_ACK` frames, the `RESUME` barrier and the kill hook. A worker
/// recovers by respawn: the driver restarts the world, the respawned
/// processes restore their files and re-synchronize over `RESUME` frames.
struct WorkerCkpt {
    /// Checkpoint file, atomically replaced each interval.
    path: PathBuf,
    /// Whether this process was respawned into an existing run (`--resume`):
    /// gates the resume barrier and disarms the kill hook.
    resume_run: bool,
    /// Receives `(peer, frontier)` from reader threads when peers announce
    /// `RESUME`; the resume barrier drains one entry per peer.
    resume_rx: Receiver<(usize, u64)>,
    /// Checkpoints taken by this process (drives the kill hook).
    ckpts_taken: u64,
    /// Test hook: SIGKILL this process at its N-th checkpoint.
    kill_at: Option<u64>,
}

/// Recovery handles given to a worker's reader thread: the replay-log row
/// it trims and replays, the writer queue it injects replays into, and the
/// resume channel it signals the barrier through.
struct ReaderCtl {
    logs: ReplayLogs,
    resume_tx: Sender<(usize, u64)>,
    out_tx: SyncSender<Vec<u8>>,
    /// Writer-queue depth of the peer's link, bumped for injected replays
    /// so the gauge stays balanced with the writer thread's decrements.
    out_depth: Arc<AtomicU64>,
    rank: usize,
    peer: usize,
}

/// The socket [`Link`]: outgoing envelopes are encoded to TCMP frames on
/// the calling thread (measured as `serialize_ns`) and queued to per-peer
/// writer threads, while per-peer reader threads decode arrivals (measured
/// as `deserialize_ns`) into the receive path.
pub struct TcpLink {
    rank: usize,
    /// Pre-encoded frames to each peer's writer thread.
    writers: Vec<Option<SyncSender<Vec<u8>>>>,
    /// Per-peer writer-queue depth (frames queued, not yet written): bumped
    /// on every enqueue, decremented by the writer thread per frame drained.
    /// Feeds the `writer_queue_depth` gauge (current value + high-water).
    writer_depth: Vec<Arc<AtomicU64>>,
    writer_handles: Vec<JoinHandle<()>>,
    /// Decoded envelopes from each peer's reader thread.
    rxs: Vec<Option<Receiver<Envelope>>>,
    /// Worker-process checkpointing (`None` for in-process ranks).
    worker: Option<WorkerCkpt>,
}

/// The socket-backed [`Comm`] endpoint: the shared [`RankCore`] over a
/// [`TcpLink`], so its clocks and counters are the threaded engine's by
/// construction. Constructed by [`run_cluster_tcp`] (in-process ranks) and
/// [`run_worker`] (one rank of a multi-process run).
pub type TcpComm = RankCore<TcpLink>;

impl TcpLink {
    /// Spawn a writer and a reader thread per connected peer. `worker`
    /// arms worker-mode checkpointing over the run's replay logs.
    fn new(
        rank: usize,
        peers: Vec<Option<TcpStream>>,
        metrics: Option<Arc<RankMetrics>>,
        connect_ns: u64,
        worker: Option<(&WorkerCkptConfig, ReplayLogs)>,
    ) -> TcpLink {
        let size = peers.len();
        // Worker-mode readers signal each peer's `RESUME` frontier through
        // this channel to the resume barrier.
        let (resume_tx, resume_rx) = channel();
        let logs = worker.as_ref().map(|(_, logs)| logs.clone());
        let mut link = TcpLink {
            rank,
            writers: (0..size).map(|_| None).collect(),
            writer_depth: (0..size).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            writer_handles: Vec::new(),
            rxs: (0..size).map(|_| None).collect(),
            worker: worker.map(|(ck, _)| WorkerCkpt {
                path: ck.path.clone(),
                resume_run: ck.resume,
                resume_rx,
                ckpts_taken: 0,
                kill_at: kill_at_from_env(rank),
            }),
        };
        for (peer, stream) in peers.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            let read_half = stream.try_clone().expect("socket clone");
            let (out_tx, out_rx) = sync_channel::<Vec<u8>>(SEND_QUEUE_FRAMES);
            let (in_tx, in_rx) = channel::<Envelope>();
            let depth = link.writer_depth[peer].clone();
            let writer = thread::Builder::new()
                .name(format!("tilecc-tcp-w{rank}-{peer}"))
                .spawn(move || {
                    let mut stream = stream;
                    // An empty buffer is the close sentinel from the link's
                    // `Drop`: reader threads also hold a sender (replay
                    // injection), so channel closure alone cannot signal
                    // the flush. The sentinel is never counted in the depth
                    // gauge, so only real frames decrement it.
                    while let Ok(buf) = out_rx.recv() {
                        if buf.is_empty() {
                            break;
                        }
                        depth.fetch_sub(1, Ordering::Relaxed);
                        if std::io::Write::write_all(&mut stream, &buf).is_err() {
                            break;
                        }
                    }
                    // Flush done (or socket dead): announce end-of-stream but
                    // keep our read side open — the peer may still be
                    // flushing frames to us, and resetting the socket could
                    // destroy them in flight.
                    let _ = stream.shutdown(Shutdown::Write);
                })
                .expect("failed to spawn tcp writer thread");
            let reader_metrics = metrics.clone();
            // Worker-mode readers also service recovery frames: `CKPT_ACK`
            // trims our replay log, `RESUME` injects replays into the
            // peer's writer queue ahead of any fresh sends.
            let ctl = logs.clone().map(|logs| ReaderCtl {
                logs,
                resume_tx: resume_tx.clone(),
                out_tx: out_tx.clone(),
                out_depth: link.writer_depth[peer].clone(),
                rank,
                peer,
            });
            thread::Builder::new()
                .name(format!("tilecc-tcp-r{rank}-{peer}"))
                .spawn(move || reader_loop(read_half, in_tx, reader_metrics, ctl))
                .expect("failed to spawn tcp reader thread");
            link.writers[peer] = Some(out_tx);
            link.rxs[peer] = Some(in_rx);
            link.writer_handles.push(writer);
        }
        if let Some(m) = &metrics {
            m.gauge(GaugeId::ConnectNs).set(connect_ns);
        }
        link
    }

    /// Queue one encoded frame to `to`'s writer thread. Returns `false`
    /// when the writer is gone.
    fn queue(&self, to: usize, buf: Vec<u8>) -> bool {
        let writer = self.writers[to].as_ref().expect("no link to peer");
        // Count the frame before enqueueing so the writer thread can never
        // decrement below zero, then roll back on a failed enqueue.
        self.writer_depth[to].fetch_add(1, Ordering::Relaxed);
        let queued = writer.send(buf).is_ok();
        if !queued {
            self.writer_depth[to].fetch_sub(1, Ordering::Relaxed);
        }
        queued
    }
}

impl Link for TcpLink {
    fn push(&self, to: usize, env: Envelope, obs: Option<&RankObs>) -> bool {
        let t0 = obs.map(|o| o.now_ns());
        let buf = wire::encode_envelope(self.rank as u32, &env);
        if let (Some(o), Some(t0)) = (obs, t0) {
            o.observe(HistId::SerializeNs, o.now_ns().saturating_sub(t0));
        }
        let queued = self.queue(to, buf);
        if let (true, Some(o)) = (queued, obs) {
            let depth = self.writer_depth[to].load(Ordering::Relaxed);
            o.gauge_set(GaugeId::WriterQueueDepth, depth);
        }
        queued
    }

    fn poll(&self, from: usize, timeout: Duration) -> Result<Envelope, RecvTimeoutError> {
        let rx = self.rxs[from].as_ref().expect("no link from peer");
        rx.recv_timeout(timeout)
    }

    fn closed(peer: usize) -> CommError {
        CommError::PeerDisconnected { rank: peer }
    }

    /// A worker persists the checkpoint — endpoint snapshot plus its own
    /// outgoing replay-log row — then acknowledges the consumed envelopes
    /// with a `CKPT_ACK` per peer.
    fn persist(
        &mut self,
        rank: usize,
        ckpt: &CkptState,
        logs: &ReplayLogs,
        links: &LinkSeq,
    ) -> Option<u64> {
        let w = self.worker.as_mut()?;
        let row: Vec<(u64, Vec<Envelope>)> = (0..logs.len())
            .map(|to| {
                let log = logs[rank][to].lock().expect("replay log poisoned");
                (log.base(), log.items().cloned().collect())
            })
            .collect();
        let bytes = encode_ckpt(ckpt, &row);
        if let Err(e) = write_ckpt_file(&w.path, &bytes) {
            // A failed write must not kill the run: the previous
            // checkpoint (or a fresh start) still recovers it.
            eprintln!("tilecc worker {rank}: checkpoint write failed: {e}");
        }
        w.ckpts_taken += 1;
        // Test hook: hard-kill this process at its N-th checkpoint (first
        // life only — a respawn must not re-fire the kill).
        let kill = !w.resume_run && w.kill_at == Some(w.ckpts_taken);
        for peer in (0..self.writers.len()).filter(|&p| p != rank) {
            let mut frame = Frame::control(FrameKind::CkptAck, rank as u32);
            frame.seq = links.expect_of(peer);
            self.queue(peer, frame.encode());
        }
        if kill {
            kill_self();
        }
        Some(bytes.len() as u64)
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        // Release the writer threads: they flush what is queued, then send
        // FIN; readers drain to end-of-stream. With recovery active the
        // reader threads hold queue senders too (replay injection), so
        // dropping this link's senders does not close the channels — hand
        // every writer the explicit flush-and-exit sentinel instead.
        for tx in self.writers.iter().flatten() {
            let _ = tx.send(Vec::new());
        }
        for h in self.writer_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Restart-the-world synchronization for a resumed worker: announce this
/// rank's restored receive frontier to every peer (`RESUME`), then wait
/// for every peer's announcement, which sets the re-execution send
/// frontier. Reader threads queue the logged replays *before* signalling,
/// and the writer queue is FIFO, so every replayed envelope reaches a peer
/// ahead of any fresh send.
fn worker_resume_barrier(comm: &mut TcpComm) -> Result<(), CommError> {
    let rank = comm.rank;
    let (Some(w), Some(rec)) = (&comm.link.worker, &mut comm.recovery) else {
        return Ok(());
    };
    if !w.resume_run {
        return Ok(());
    }
    for peer in (0..comm.size).filter(|&p| p != rank) {
        let mut frame = Frame::control(FrameKind::Resume, rank as u32);
        frame.seq = comm.links.expect_of(peer);
        if !comm.link.queue(peer, frame.encode()) {
            return Err(CommError::PeerDisconnected { rank: peer });
        }
    }
    for _ in 0..comm.size.saturating_sub(1) {
        let (peer, frontier) = w.resume_rx.recv_timeout(HANDSHAKE_TIMEOUT).map_err(|_| {
            transport_error("resume barrier", "timed out waiting for peer RESUME frames")
        })?;
        rec.resend_skip[peer] = frontier;
    }
    Ok(())
}

/// Reader-thread body: decode frames off one peer socket into the receive
/// channel. Runs until end-of-stream so the socket is fully drained even
/// after the local rank finished (a reset could otherwise destroy frames
/// a *third* rank still needs — TCP resets discard receive buffers).
fn reader_loop(
    mut stream: TcpStream,
    in_tx: std::sync::mpsc::Sender<Envelope>,
    metrics: Option<Arc<RankMetrics>>,
    ctl: Option<ReaderCtl>,
) {
    loop {
        match wire::read_frame(&mut stream) {
            Ok(frame) if frame.kind == FrameKind::Data || frame.kind == FrameKind::Replay => {
                let t0 = Instant::now();
                match wire::decode_envelope(&frame) {
                    Ok(env) => {
                        if let Some(m) = &metrics {
                            m.hist(HistId::DeserializeNs)
                                .observe(t0.elapsed().as_nanos() as u64);
                        }
                        // A closed receiver means the local rank finished;
                        // keep draining the socket regardless.
                        let _ = in_tx.send(env);
                    }
                    Err(_) => break,
                }
            }
            // The peer's checkpoint acknowledges every envelope below `seq`
            // on this link: drop them from our replay log.
            Ok(frame) if frame.kind == FrameKind::CkptAck => {
                if let Some(ctl) = &ctl {
                    ctl.logs[ctl.rank][ctl.peer]
                        .lock()
                        .expect("replay log poisoned")
                        .trim_below(frame.seq);
                }
            }
            // A respawned peer announces its restored receive frontier:
            // queue the retained envelopes from there on — ahead of any
            // fresh send, since the writer queue is FIFO — then signal the
            // resume barrier.
            Ok(frame) if frame.kind == FrameKind::Resume => {
                if let Some(ctl) = &ctl {
                    let replays = ctl.logs[ctl.rank][ctl.peer]
                        .lock()
                        .expect("replay log poisoned")
                        .replay_from(frame.seq);
                    for env in replays {
                        ctl.out_depth.fetch_add(1, Ordering::Relaxed);
                        if ctl
                            .out_tx
                            .send(wire::encode_replay(ctl.rank as u32, &env))
                            .is_err()
                        {
                            ctl.out_depth.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                    let _ = ctl.resume_tx.send((ctl.peer, frame.seq));
                }
            }
            // Stray control frames on a mesh socket: ignore.
            Ok(_) => {}
            // Closed, truncated, or reset: the peer is gone.
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// In-process runner
// ---------------------------------------------------------------------------

/// Run an SPMD program over `size` ranks communicating through real
/// localhost sockets, all within this process — the TCP twin of
/// [`crate::run_cluster`], sharing its watchdog (deadlock detection,
/// wall cap) and failure reporting.
pub fn run_cluster_tcp<R, F>(
    size: usize,
    model: MachineModel,
    options: EngineOptions,
    f: F,
) -> Result<RunReport<R>, RunError>
where
    R: Send + 'static,
    F: Fn(&mut TcpComm) -> R + Send + Sync + 'static,
{
    assert!(size > 0, "cluster needs at least one process");
    install_quiet_panic_hook();
    let rendezvous = Rendezvous::bind().map_err(|error| RunError::Comm { rank: 0, error })?;
    let rdv_addr = rendezvous.addr().to_string();
    // The coordinator keeps the control sockets alive until the run ends.
    let coordinator = thread::spawn(move || rendezvous.coordinate(size, HANDSHAKE_TIMEOUT));

    let shared = RunShared::new(size, model, &options);
    let f = Arc::new(f);
    let (done_tx, done_rx) = channel();
    for rank in 0..size {
        let (f, done, shared) = (f.clone(), done_tx.clone(), shared.clone());
        let rdv_addr = rdv_addr.clone();
        thread::Builder::new()
            .name(format!("tilecc-tcp-rank-{rank}"))
            .spawn(move || {
                let connect_t0 = Instant::now();
                let (end, clock, stats) = match connect_mesh(rank, size, &rdv_addr, "127.0.0.1:0") {
                    Ok(mesh) => {
                        // Keep the control socket open for the run's duration
                        // so the coordinator's accept bookkeeping stays simple.
                        let _control = mesh.control;
                        let metrics = shared.obs.as_ref().map(|reg| reg.rank_metrics(rank));
                        let connect_ns = connect_t0.elapsed().as_nanos() as u64;
                        let link = TcpLink::new(rank, mesh.peers, metrics, connect_ns, None);
                        run_rank(shared.core(rank, link), |comm| f(comm))
                    }
                    Err(error) => {
                        shared.monitor.set(rank, RankPhase::Done);
                        (RankEnd::CommFail(error), 0.0, CommStats::default())
                    }
                };
                let _ = done.send((rank, end, clock, stats));
            })
            .expect("failed to spawn tcp rank thread");
    }
    drop(done_tx);

    let result = collect(size, &shared.monitor, done_rx, &options);
    let _ = coordinator.join();
    result
}

// ---------------------------------------------------------------------------
// Multi-process workers
// ---------------------------------------------------------------------------

/// Configuration of one worker process's rank ([`run_worker`]).
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// This worker's rank.
    pub rank: usize,
    /// World size (number of worker processes).
    pub size: usize,
    /// The driver's rendezvous address (`host:port`).
    pub rendezvous: String,
    /// Machine model, which must match the driver's.
    pub model: MachineModel,
    /// Engine options; `scheme`, `fault` and `obs` apply (watchdog fields
    /// are the driver's job in the multi-process model, and `ckpt` replaces
    /// `recovery`).
    pub options: EngineOptions,
    /// Local address (`host:port`, usually port 0) to bind the mesh
    /// listener on; loopback by default.
    pub bind_addr: String,
    /// Heartbeat cadence to the driver (pair it with the driver's
    /// dead-peer timeout: the timeout must comfortably exceed this).
    pub heartbeat: Duration,
    /// Checkpoint/recovery policy (`None` disables checkpointing).
    pub ckpt: Option<WorkerCkptConfig>,
}

impl WorkerConfig {
    /// A worker with default transport knobs: loopback bind, the default
    /// heartbeat cadence, no checkpointing.
    pub fn new(
        rank: usize,
        size: usize,
        rendezvous: String,
        model: MachineModel,
        options: EngineOptions,
    ) -> WorkerConfig {
        WorkerConfig {
            rank,
            size,
            rendezvous,
            model,
            options,
            bind_addr: "127.0.0.1:0".into(),
            heartbeat: HEARTBEAT_PERIOD,
            ckpt: None,
        }
    }
}

/// Checkpoint/recovery policy for one worker process.
#[derive(Clone, Debug)]
pub struct WorkerCkptConfig {
    /// Checkpoint file, atomically replaced at each checkpoint.
    pub path: PathBuf,
    /// Chain steps between checkpoints (min 1).
    pub interval: u64,
    /// Resume from `path` instead of starting fresh — set by the driver on
    /// every worker of a restarted (restart-the-world) run. A missing file
    /// resumes from position zero, which is only possible when the process
    /// died before its first checkpoint.
    pub resume: bool,
    /// Restores this rank has undergone (the driver's respawn count),
    /// surfaced as `CommStats::recoveries`.
    pub recovered: u64,
}

/// A worker's channel back to the driver after a successful run: used to
/// ship the result payload and wait for the driver's `BYE` barrier.
pub struct WorkerHandle {
    rank: usize,
    control: Arc<Mutex<TcpStream>>,
}

impl WorkerHandle {
    /// Send the `RESULT` frame: final virtual clock plus a caller-defined
    /// payload (serialized stats and gathered data).
    pub fn send_result(&self, local_time: f64, payload: Vec<u8>) -> Result<(), CommError> {
        let mut frame = Frame::control(FrameKind::Result, self.rank as u32);
        frame.ready_at = local_time;
        frame.payload = payload;
        let mut control = self.control.lock().expect("control poisoned");
        wire::write_frame(&mut *control, &frame).map_err(|e| transport_error("send result", e))
    }

    /// Ship the rank's *final* metrics snapshot as an absolute `STATS`
    /// frame (`seq = u64::MAX`, so it outranks every heartbeat delta).
    /// Call it before [`WorkerHandle::send_result`]: the control socket is
    /// ordered, so the driver holds the complete final snapshot by the
    /// time the result lands — that is what makes the driver-merged report
    /// bitwise-identical to an in-process run's.
    pub fn send_stats(&self, snap: &StatsSnapshot) -> Result<(), CommError> {
        let mut frame = Frame::control(FrameKind::Stats, self.rank as u32);
        frame.seq = u64::MAX;
        frame.nominal = 1;
        frame.payload = snap.encode_delta(&StatsSnapshot::zero());
        let mut control = self.control.lock().expect("control poisoned");
        wire::write_frame(&mut *control, &frame).map_err(|e| transport_error("send stats", e))
    }

    /// Block until the driver's `BYE` arrives — the signal that every
    /// rank's result is safely at the driver, so this process may exit
    /// without resetting sockets that still carry undelivered frames.
    pub fn wait_bye(&self) -> Result<(), CommError> {
        let mut control = self.control.lock().expect("control poisoned");
        control
            .set_read_timeout(Some(BYE_TIMEOUT))
            .map_err(|e| transport_error("await bye", e))?;
        loop {
            match wire::read_frame(&mut *control) {
                Ok(frame) if frame.kind == FrameKind::Bye => return Ok(()),
                Ok(_) => {}
                Err(e) => return Err(transport_error("await bye", e)),
            }
        }
    }
}

/// Encode a typed [`CommError`] into `ERROR`-frame scalars `(tag, nominal,
/// aux)` — `aux` rides in the frame's otherwise-unused `ready_at` slot and
/// carries [`CommError::RetransmitExhausted`]'s tag as a bit pattern; the
/// inverse of [`decode_comm_error`].
fn encode_comm_error(e: &CommError) -> (i64, u64, f64) {
    match e {
        CommError::Disconnected { peer } => (1, *peer as u64, 0.0),
        CommError::RetransmitExhausted {
            rank,
            tag,
            attempts,
        } => (
            2,
            (*rank as u64) | ((*attempts as u64) << 32),
            f64::from_bits(*tag as u64),
        ),
        CommError::Aborted => (3, 0, 0.0),
        CommError::PeerDisconnected { rank } => (4, *rank as u64, 0.0),
        CommError::Transport { .. } => (5, 0, 0.0),
    }
}

/// Reconstruct a typed [`CommError`] from `ERROR`-frame scalars; the
/// payload text supplies [`CommError::Transport`]'s detail.
fn decode_comm_error(tag: i64, nominal: u64, aux: f64, text: &str) -> CommError {
    match tag {
        1 => CommError::Disconnected {
            peer: (nominal & 0xFFFF_FFFF) as usize,
        },
        2 => CommError::RetransmitExhausted {
            rank: (nominal & 0xFFFF_FFFF) as usize,
            tag: aux.to_bits() as i64,
            attempts: (nominal >> 32) as u32,
        },
        3 => CommError::Aborted,
        4 => CommError::PeerDisconnected {
            rank: (nominal & 0xFFFF_FFFF) as usize,
        },
        _ => CommError::Transport {
            detail: text.to_string(),
        },
    }
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

/// Magic prefix of a worker checkpoint file.
const CKPT_MAGIC: [u8; 4] = *b"TCKP";
/// Checkpoint file format version.
const CKPT_VERSION: u16 = 1;

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    push_u64(buf, v.to_bits());
}

fn push_env(buf: &mut Vec<u8>, env: &Envelope) {
    push_u64(buf, env.tag as u64);
    push_u64(buf, env.seq);
    push_f64(buf, env.ready_at);
    push_u64(buf, env.bytes as u64);
    push_u64(buf, env.payload.len() as u64);
    for v in &env.payload {
        push_f64(buf, *v);
    }
}

/// Serialize a worker checkpoint: the endpoint snapshot plus this rank's
/// outgoing replay-log row, all little-endian with `f64`s as bit patterns,
/// so a resumed run is bitwise identical to an uninterrupted one.
fn encode_ckpt(ckpt: &CkptState, row: &[(u64, Vec<Envelope>)]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&CKPT_MAGIC);
    b.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    push_u64(&mut b, ckpt.chain_pos);
    push_u64(&mut b, ckpt.app.len() as u64);
    b.extend_from_slice(&ckpt.app);
    push_f64(&mut b, ckpt.clock);
    push_f64(&mut b, ckpt.comm_lane);
    push_f64(&mut b, ckpt.lane_busy);
    let st = &ckpt.stats;
    push_u64(&mut b, st.messages_sent);
    push_u64(&mut b, st.bytes_sent);
    push_u64(&mut b, st.messages_received);
    push_u64(&mut b, st.bytes_received);
    push_f64(&mut b, st.wait_time);
    push_f64(&mut b, st.compute_time);
    push_u64(&mut b, st.retransmissions);
    push_f64(&mut b, st.retrans_time);
    push_u64(&mut b, st.duplicates_suppressed);
    push_u64(&mut b, st.recoveries);
    push_f64(&mut b, st.recovery_time);
    push_u64(&mut b, ckpt.next.len() as u64);
    for &v in &ckpt.next {
        push_u64(&mut b, v);
    }
    for &v in &ckpt.expect {
        push_u64(&mut b, v);
    }
    for peer in &ckpt.pending {
        push_u64(&mut b, peer.len() as u64);
        for env in peer {
            push_env(&mut b, env);
        }
    }
    match &ckpt.counters {
        Some(cs) => {
            push_u64(&mut b, 1);
            push_u64(&mut b, cs.len() as u64);
            for &c in cs {
                push_u64(&mut b, c);
            }
        }
        None => push_u64(&mut b, 0),
    }
    match &ckpt.virts {
        Some(vs) => {
            push_u64(&mut b, 1);
            push_u64(&mut b, vs.len() as u64);
            for &v in vs {
                push_f64(&mut b, v);
            }
        }
        None => push_u64(&mut b, 0),
    }
    for (base, items) in row {
        push_u64(&mut b, *base);
        push_u64(&mut b, items.len() as u64);
        for env in items {
            push_env(&mut b, env);
        }
    }
    b
}

/// Bounds-checked little-endian reader over a checkpoint file.
struct CkptCursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> CkptCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.at + n > self.buf.len() {
            return Err("truncated checkpoint file".into());
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("slice size"),
        ))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn env(&mut self) -> Result<Envelope, String> {
        let tag = self.u64()? as i64;
        let seq = self.u64()?;
        let ready_at = self.f64()?;
        let bytes = self.u64()? as usize;
        let n = self.u64()? as usize;
        let mut payload = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            payload.push(self.f64()?);
        }
        Ok(Envelope {
            payload,
            tag,
            ready_at,
            seq,
            bytes,
        })
    }
}

/// Deserialize a worker checkpoint; the inverse of [`encode_ckpt`].
#[allow(clippy::type_complexity)]
fn decode_ckpt(bytes: &[u8]) -> Result<(CkptState, Vec<(u64, Vec<Envelope>)>), String> {
    let mut c = CkptCursor { buf: bytes, at: 0 };
    if c.take(4)? != CKPT_MAGIC {
        return Err("bad checkpoint magic".into());
    }
    let version = u16::from_le_bytes(c.take(2)?.try_into().expect("slice size"));
    if version != CKPT_VERSION {
        return Err(format!(
            "checkpoint version {version} (this build reads {CKPT_VERSION})"
        ));
    }
    let chain_pos = c.u64()?;
    let app_len = c.u64()? as usize;
    let app = c.take(app_len)?.to_vec();
    let clock = c.f64()?;
    let comm_lane = c.f64()?;
    let lane_busy = c.f64()?;
    let stats = CommStats {
        messages_sent: c.u64()?,
        bytes_sent: c.u64()?,
        messages_received: c.u64()?,
        bytes_received: c.u64()?,
        wait_time: c.f64()?,
        compute_time: c.f64()?,
        retransmissions: c.u64()?,
        retrans_time: c.f64()?,
        duplicates_suppressed: c.u64()?,
        recoveries: c.u64()?,
        recovery_time: c.f64()?,
    };
    let size = c.u64()? as usize;
    let mut next = Vec::with_capacity(size);
    for _ in 0..size {
        next.push(c.u64()?);
    }
    let mut expect = Vec::with_capacity(size);
    for _ in 0..size {
        expect.push(c.u64()?);
    }
    let mut pending = Vec::with_capacity(size);
    for _ in 0..size {
        let n = c.u64()? as usize;
        let mut envs = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            envs.push(c.env()?);
        }
        pending.push(envs);
    }
    let counters = if c.u64()? == 1 {
        let n = c.u64()? as usize;
        let mut cs = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            cs.push(c.u64()?);
        }
        Some(cs)
    } else {
        None
    };
    let virts = if c.u64()? == 1 {
        let n = c.u64()? as usize;
        let mut vs = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            vs.push(c.f64()?);
        }
        Some(vs)
    } else {
        None
    };
    let mut row = Vec::with_capacity(size);
    for _ in 0..size {
        let base = c.u64()?;
        let n = c.u64()? as usize;
        let mut items = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            items.push(c.env()?);
        }
        row.push((base, items));
    }
    Ok((
        CkptState {
            chain_pos,
            app,
            clock,
            comm_lane,
            lane_busy,
            stats,
            next,
            expect,
            pending,
            counters,
            virts,
        },
        row,
    ))
}

/// Atomically replace the checkpoint file (sibling tmp + rename), so a
/// crash mid-write can never leave a torn checkpoint behind.
fn write_ckpt_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Test hook: `TILECC_CRASH_KILL="<rank>:<n>"` hard-kills worker `rank`
/// at its `n`-th checkpoint, so integration tests (and the CI recovery
/// smoke job) can exercise real process death and respawn.
fn kill_at_from_env(rank: usize) -> Option<u64> {
    let spec = std::env::var("TILECC_CRASH_KILL").ok()?;
    let (r, n) = spec.split_once(':')?;
    if r.trim().parse::<usize>().ok()? != rank {
        return None;
    }
    n.trim().parse::<u64>().ok()
}

/// SIGKILL this process — no unwinding, no flushing: the hardest death a
/// worker can die short of pulling the plug.
fn kill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .arg("-9")
        .arg(&pid)
        .status();
    // SIGKILL cannot be handled, so reaching this line means the `kill`
    // binary was unavailable; abort is the closest stand-in.
    std::process::abort();
}

/// Heartbeat thread: ship this rank's phase and progress counter to the
/// driver every `period` (default [`HEARTBEAT_PERIOD`]) so the
/// multi-process watchdog can see blocked/running states exactly like the
/// threaded engine's monitor — and so the driver's dead-peer timeout can
/// tell a slow worker from a dead one.
///
/// With observability enabled, every heartbeat also piggybacks a `STATS`
/// frame: a delta-encoded [`StatsSnapshot`] of this rank's metrics (the
/// first one absolute, `nominal = 1`). The control socket is ordered and
/// reliable, so the driver can fold the deltas back losslessly.
fn spawn_heartbeat(
    rank: usize,
    control: Arc<Mutex<TcpStream>>,
    monitor: Arc<Monitor>,
    stop: Arc<AtomicBool>,
    period: Duration,
    metrics: Option<Arc<RankMetrics>>,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name(format!("tilecc-tcp-hb-{rank}"))
        .spawn(move || {
            let mut prev = StatsSnapshot::zero();
            let mut snap_seq: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                let mut frame = Frame::control(FrameKind::Progress, rank as u32);
                frame.seq = monitor.progress();
                match monitor.phase_of(rank) {
                    RankPhase::Running => frame.nominal = 0,
                    RankPhase::Blocked { from, tag } => {
                        frame.nominal = from as u64 + 1;
                        frame.tag = tag;
                    }
                    RankPhase::Done => frame.nominal = u64::MAX,
                }
                let stats = metrics.as_ref().map(|m| {
                    let cur = StatsSnapshot::capture(m);
                    snap_seq += 1;
                    let mut sf = Frame::control(FrameKind::Stats, rank as u32);
                    sf.seq = snap_seq;
                    // `prev` starts at zero, so the first delta is the
                    // absolute snapshot; flag it so a decoder can sync.
                    sf.nominal = u64::from(snap_seq == 1);
                    sf.payload = cur.encode_delta(&prev);
                    (cur, sf)
                });
                {
                    let mut control = control.lock().expect("control poisoned");
                    if wire::write_frame(&mut *control, &frame).is_err() {
                        return; // Driver gone; the run is over either way.
                    }
                    if let Some((cur, sf)) = stats {
                        if wire::write_frame(&mut *control, &sf).is_err() {
                            return;
                        }
                        prev = cur;
                    }
                }
                thread::sleep(period);
            }
        })
        .expect("failed to spawn heartbeat thread")
}

/// Run one rank of a multi-process TCP cluster inside this process:
/// connect the mesh through the driver's rendezvous, execute `f`, and
/// return its result plus the final clock and statistics together with
/// the [`WorkerHandle`] for shipping the result payload.
///
/// Failures are *typed and terminal*: a panic inside `f` becomes
/// [`RunError::RankPanicked`], a substrate failure (notably
/// [`CommError::PeerDisconnected`] when a peer process dies mid-run)
/// becomes [`RunError::Comm`] — in both cases a best-effort `ERROR` frame
/// is shipped to the driver first, and the caller is expected to exit
/// nonzero. A worker never hangs on a dead peer: the peer's socket
/// reaching end-of-stream unblocks any receive on it.
pub fn run_worker<R, F>(
    cfg: &WorkerConfig,
    f: F,
) -> Result<(R, f64, CommStats, WorkerHandle), RunError>
where
    F: FnOnce(&mut TcpComm) -> R,
{
    install_quiet_panic_hook();
    let rank = cfg.rank;
    let connect_t0 = Instant::now();
    let mesh = connect_mesh(rank, cfg.size, &cfg.rendezvous, &cfg.bind_addr)
        .map_err(|error| RunError::Comm { rank, error })?;
    let connect_ns = connect_t0.elapsed().as_nanos() as u64;
    let control = Arc::new(Mutex::new(mesh.control.try_clone().map_err(|e| {
        RunError::Comm {
            rank,
            error: transport_error("control clone", e),
        }
    })?));
    // Keep the original control handle alive too (dropping a clone does not
    // close the socket, but be explicit about ownership).
    let _control_keepalive = mesh.control;
    // Worker checkpoints replace the in-process recovery policy: no restore
    // happens in place (the budget is zero), the driver respawns instead.
    let shared = RunShared {
        recovery: cfg.ckpt.as_ref().map(|ck| {
            let logs = new_replay_logs(cfg.size);
            (ck.interval.max(1), Arc::new(AtomicU64::new(0)), logs)
        }),
        ..RunShared::new(cfg.size, cfg.model, &cfg.options)
    };
    let metrics = shared.obs.as_ref().map(|reg| {
        // Force the registry to the full world size so per-rank exports
        // index consistently even though only our slot is written.
        let _ = reg.rank_metrics(cfg.size.saturating_sub(1));
        reg.rank_metrics(rank)
    });
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = spawn_heartbeat(
        rank,
        control.clone(),
        shared.monitor.clone(),
        stop.clone(),
        cfg.heartbeat,
        metrics.clone(),
    );
    // A respawned worker loads its previous checkpoint file up front and
    // seeds this rank's replay-log row from it before any reader thread can
    // serve a peer's `RESUME`. A missing file is fine: the process died
    // before its first checkpoint and resumes from position zero.
    let mut resume = None;
    if let (Some(ck), Some((_, _, logs))) = (&cfg.ckpt, &shared.recovery) {
        if let Some(bytes) = ck.resume.then(|| std::fs::read(&ck.path).ok()).flatten() {
            let (ckpt, row) = decode_ckpt(&bytes).map_err(|detail| RunError::Comm {
                rank,
                error: transport_error("checkpoint restore", detail),
            })?;
            for (to, (base, items)) in row.into_iter().enumerate() {
                if to != rank {
                    *logs[rank][to].lock().expect("replay log poisoned") =
                        ReplayLog::restore(base, items);
                }
            }
            resume = Some(ckpt);
        }
    }
    let worker = cfg.ckpt.as_ref().zip(shared.recovery.as_ref());
    let worker = worker.map(|(ck, (_, _, logs))| (ck, logs.clone()));
    let link = TcpLink::new(rank, mesh.peers, metrics, connect_ns, worker);
    let mut comm = shared.core(rank, link);
    if let (Some(ckpt), Some(rec)) = (resume, comm.recovery.as_mut()) {
        // Hand the resume state to the executor and rewind the fresh
        // endpoint onto the checkpoint — the resumed run continues bitwise.
        rec.resume = Some(Restored {
            chain_pos: ckpt.chain_pos,
            app: ckpt.app.clone(),
        });
        comm.rewind(&ckpt);
    }
    if let Some(ck) = &cfg.ckpt {
        comm.stats.recoveries = ck.recovered;
        if ck.recovered > 0 {
            // This rank's injected crash already fired in a previous life;
            // a respawned process must not re-fire it after the rewind.
            comm.crash_at = None;
        }
    }
    worker_resume_barrier(&mut comm).map_err(|error| RunError::Comm { rank, error })?;
    let (end, clock, stats) = run_rank(comm, f);
    stop.store(true, Ordering::Relaxed);
    let _ = heartbeat.join();
    let mut frame = Frame::control(FrameKind::Error, rank as u32);
    let error = match end {
        RankEnd::Ok(r) => return Ok((r, clock, stats, WorkerHandle { rank, control })),
        RankEnd::CommFail(error) => {
            frame.seq = 2;
            let (tag, nominal, aux) = encode_comm_error(&error);
            frame.tag = tag;
            frame.nominal = nominal;
            frame.ready_at = aux;
            frame.payload = error.to_string().into_bytes();
            RunError::Comm { rank, error }
        }
        RankEnd::Panic(payload) => {
            // The bare panic payload: the driver re-wraps it in a
            // `RankPanicked` carrying the rank, so sending the rendered
            // error would double the prefix.
            frame.seq = 1;
            frame.payload = payload.clone().into_bytes();
            RunError::RankPanicked { rank, payload }
        }
    };
    if let Ok(mut control) = control.lock() {
        let _ = wire::write_frame(&mut *control, &frame);
    }
    Err(error)
}

/// One worker's successful outcome as seen by the driver.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// The worker's rank.
    pub rank: usize,
    /// Its final virtual clock.
    pub local_time: f64,
    /// The caller-defined result payload from its `RESULT` frame.
    pub payload: Vec<u8>,
    /// The newest metrics snapshot received before the `RESULT` frame
    /// (`None` when the worker ran without observability). A worker that
    /// calls [`WorkerHandle::send_stats`] before its result makes this the
    /// complete final state, which
    /// [`crate::threaded::RunReport::from_snapshots`] merges into one
    /// driver-side report.
    pub stats: Option<StatsSnapshot>,
}

/// Per-rank driver-side state while collecting workers.
struct WorkerSlot {
    stream: TcpStream,
    buf: Vec<u8>,
    report: Option<WorkerReport>,
    /// `(class, error)` from an `ERROR` frame: class 1 = panic, 2 = comm.
    failure: Option<(u64, RunError)>,
    dead: bool,
    progress: u64,
    phase: RankPhase,
    /// Wall time of the last byte read off the control socket; heartbeats
    /// keep it fresh, so a slow-but-alive worker is never declared dead.
    last_seen: Instant,
    /// Decoder baseline for incoming `STATS` deltas.
    stats_prev: StatsSnapshot,
    /// Newest decoded snapshot (`None` until the first `STATS` frame).
    stats: Option<StatsSnapshot>,
    /// `seq` of the newest decoded snapshot.
    stats_seq: u64,
}

impl WorkerSlot {
    /// Pull everything currently readable off the control socket into the
    /// frame buffer, then process complete frames.
    fn poll(&mut self) {
        if self.dead && self.report.is_none() {
            return;
        }
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.last_seen = Instant::now();
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        loop {
            match Frame::decode(&self.buf) {
                Ok((frame, used)) => {
                    self.buf.drain(..used);
                    self.ingest(frame);
                }
                Err(wire::WireError::Truncated { .. }) => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }

    fn ingest(&mut self, frame: Frame) {
        let rank = frame.src as usize;
        match frame.kind {
            FrameKind::Progress => {
                self.progress = frame.seq;
                self.phase = if frame.nominal == 0 {
                    RankPhase::Running
                } else if frame.nominal == u64::MAX {
                    RankPhase::Done
                } else {
                    RankPhase::Blocked {
                        from: (frame.nominal - 1) as usize,
                        tag: frame.tag,
                    }
                };
            }
            FrameKind::Result => {
                self.phase = RankPhase::Done;
                self.report = Some(WorkerReport {
                    rank,
                    local_time: frame.ready_at,
                    payload: frame.payload,
                    stats: self.stats.clone(),
                });
            }
            FrameKind::Stats => {
                // `nominal = 1` marks an absolute snapshot: reset the delta
                // baseline to zero. A payload that fails to decode only
                // leaves the telemetry stale — it must never fail the run.
                let base = if frame.nominal == 1 {
                    StatsSnapshot::zero()
                } else {
                    self.stats_prev.clone()
                };
                if let Ok(snap) = StatsSnapshot::apply_delta(&base, &frame.payload) {
                    self.stats_prev = snap.clone();
                    self.stats = Some(snap);
                    self.stats_seq = frame.seq;
                }
            }
            FrameKind::Error => {
                self.phase = RankPhase::Done;
                let text = String::from_utf8_lossy(&frame.payload).into_owned();
                let error = if frame.seq == 2 {
                    RunError::Comm {
                        rank,
                        error: decode_comm_error(frame.tag, frame.nominal, frame.ready_at, &text),
                    }
                } else {
                    RunError::RankPanicked {
                        rank,
                        payload: text,
                    }
                };
                self.failure = Some((frame.seq, error));
            }
            _ => {}
        }
    }
}

/// The primary failure among worker outcomes, mirroring the threaded
/// engine's ordering: panics beat communication errors beat silent deaths.
fn worker_primary_failure(slots: &[WorkerSlot]) -> Option<RunError> {
    for slot in slots {
        if let Some((1, e)) = &slot.failure {
            return Some(e.clone());
        }
    }
    for slot in slots {
        if let Some((_, e)) = &slot.failure {
            return Some(e.clone());
        }
    }
    for (rank, slot) in slots.iter().enumerate() {
        if slot.dead && slot.report.is_none() {
            return Some(RunError::RankPanicked {
                rank,
                payload: "worker process died without reporting a result".into(),
            });
        }
    }
    None
}

/// One rank's live telemetry as seen by the driver's supervision loop:
/// the watchdog state (phase + progress) plus the newest decoded `STATS`
/// snapshot. Handed to the [`collect_workers`] observer on every
/// supervision sweep.
#[derive(Clone, Debug)]
pub struct RankTelemetry {
    /// The worker's rank.
    pub rank: usize,
    /// Last reported phase (running / blocked / done).
    pub phase: RankPhase,
    /// Last reported progress counter.
    pub progress: u64,
    /// Whether the worker's `RESULT` frame has arrived.
    pub done: bool,
    /// Newest metrics snapshot (`None` until the first `STATS` frame).
    pub stats: Option<StatsSnapshot>,
    /// `seq` of the newest snapshot — compare against the previous sweep
    /// to tell fresh telemetry from a re-render of stale state.
    pub stats_seq: u64,
}

/// A driver-side telemetry hook: called with the current per-rank
/// telemetry on every supervision sweep. See [`collect_workers`].
pub type TelemetryObserver<'a> = Option<&'a mut dyn FnMut(&[RankTelemetry])>;

/// Driver-side supervision of multi-process workers: collect `RESULT`
/// frames off the control connections while running the same watchdog the
/// threaded engine has — heartbeat-fed deadlock detection (every live
/// worker blocked with no progress), an optional wall cap, and typed
/// failure propagation. On success every worker receives `BYE` and the
/// reports are returned in rank order.
///
/// When `observer` is `Some`, it is invoked with the current
/// [`RankTelemetry`] of every rank on each supervision sweep (every
/// [`COLLECT_POLL`]) and once more after the last result lands — the hook
/// behind `--live` and `--stats-out`.
pub fn collect_workers(
    controls: Vec<TcpStream>,
    wall_timeout: Option<Duration>,
    deadlock_detection: bool,
    peer_timeout: Option<Duration>,
    mut observer: TelemetryObserver<'_>,
) -> Result<Vec<WorkerReport>, RunError> {
    let size = controls.len();
    let started = Instant::now();
    let mut slots: Vec<WorkerSlot> = Vec::with_capacity(size);
    for stream in controls {
        stream.set_nonblocking(true).map_err(|e| RunError::Comm {
            rank: 0,
            error: transport_error("control nonblocking", e),
        })?;
        slots.push(WorkerSlot {
            stream,
            buf: Vec::new(),
            report: None,
            failure: None,
            dead: false,
            progress: 0,
            phase: RankPhase::Running,
            last_seen: Instant::now(),
            stats_prev: StatsSnapshot::zero(),
            stats: None,
            stats_seq: 0,
        });
    }
    let observe = |slots: &[WorkerSlot], observer: &mut TelemetryObserver<'_>| {
        if let Some(hook) = observer {
            let telemetry: Vec<RankTelemetry> = slots
                .iter()
                .enumerate()
                .map(|(rank, s)| RankTelemetry {
                    rank,
                    phase: s.phase,
                    progress: s.progress,
                    done: s.report.is_some(),
                    stats: s.stats.clone(),
                    stats_seq: s.stats_seq,
                })
                .collect();
            hook(&telemetry);
        }
    };

    let mut stable: u32 = 0;
    let mut last_progress: Option<Vec<u64>> = None;
    loop {
        for slot in &mut slots {
            slot.poll();
        }
        observe(&slots, &mut observer);
        // Heartbeat watchdog: a control socket silent past the dead-peer
        // timeout means the worker process is gone (heartbeats flow every
        // [`HEARTBEAT_PERIOD`] while it lives, even when blocked).
        if let Some(timeout) = peer_timeout {
            for slot in &mut slots {
                if !slot.dead
                    && slot.report.is_none()
                    && slot.failure.is_none()
                    && slot.last_seen.elapsed() >= timeout
                {
                    slot.dead = true;
                }
            }
        }
        if slots.iter().all(|s| s.report.is_some()) {
            break;
        }
        if slots
            .iter()
            .any(|s| s.failure.is_some() || (s.dead && s.report.is_none()))
        {
            // Give the remaining workers a grace period to report context,
            // then fold to the primary cause.
            let deadline = Instant::now() + ABORT_GRACE;
            while Instant::now() < deadline {
                for slot in &mut slots {
                    slot.poll();
                }
                if slots
                    .iter()
                    .all(|s| s.report.is_some() || s.failure.is_some() || s.dead)
                {
                    break;
                }
                thread::sleep(COLLECT_POLL);
            }
            return Err(worker_primary_failure(&slots).expect("failure observed"));
        }
        if let Some(cap) = wall_timeout {
            if started.elapsed() >= cap {
                let unfinished: Vec<usize> =
                    (0..size).filter(|&r| slots[r].report.is_none()).collect();
                return Err(RunError::WallTimeout {
                    elapsed: started.elapsed(),
                    unfinished,
                });
            }
        }
        if deadlock_detection {
            let progress: Vec<u64> = slots.iter().map(|s| s.progress).collect();
            let waiting_on: Vec<(usize, usize, i64)> = slots
                .iter()
                .enumerate()
                .filter_map(|(rank, s)| match s.phase {
                    RankPhase::Blocked { from, tag } => Some((rank, from, tag)),
                    _ => None,
                })
                .collect();
            let any_running = slots
                .iter()
                .any(|s| s.report.is_none() && s.phase == RankPhase::Running);
            let moved = last_progress.as_ref() != Some(&progress);
            last_progress = Some(progress);
            if moved || any_running || waiting_on.is_empty() {
                stable = 0;
            } else {
                stable += 1;
                if stable >= DRIVER_STABLE_SWEEPS {
                    return Err(RunError::Deadlock {
                        blocked_ranks: waiting_on.iter().map(|w| w.0).collect(),
                        waiting_on,
                    });
                }
            }
        }
        thread::sleep(COLLECT_POLL);
    }

    // All results are in: one final observation (the pre-result absolute
    // snapshots are decoded by now), then release the workers.
    observe(&slots, &mut observer);
    let bye = Frame::control(FrameKind::Bye, u32::MAX);
    for slot in &mut slots {
        let _ = wire::write_frame(&mut slot.stream, &bye);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.report.expect("all reports collected"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Comm, Counter, VirtAcc};

    #[test]
    fn comm_error_codes_round_trip() {
        let cases = [
            CommError::Disconnected { peer: 3 },
            CommError::RetransmitExhausted {
                rank: 2,
                tag: -7,
                attempts: 65,
            },
            CommError::Aborted,
            CommError::PeerDisconnected { rank: 7 },
            CommError::Transport {
                detail: "boom".into(),
            },
        ];
        for e in cases {
            let (tag, nominal, aux) = encode_comm_error(&e);
            let text = match &e {
                CommError::Transport { detail } => detail.clone(),
                other => other.to_string(),
            };
            assert_eq!(decode_comm_error(tag, nominal, aux, &text), e);
        }
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let env = |seq| Envelope {
            payload: vec![1.5, -0.0],
            tag: 3,
            ready_at: 2.5,
            seq,
            bytes: 16,
        };
        let ckpt = CkptState {
            chain_pos: 4,
            app: vec![1, 2, 3],
            clock: 1.25,
            comm_lane: 2.5,
            lane_busy: 0.5,
            stats: CommStats {
                messages_sent: 7,
                bytes_sent: 112,
                messages_received: 6,
                bytes_received: 96,
                wait_time: 0.25,
                compute_time: 3.5,
                retransmissions: 2,
                retrans_time: 0.125,
                duplicates_suppressed: 1,
                recoveries: 1,
                recovery_time: 0.0,
            },
            next: vec![0, 9],
            expect: vec![0, 8],
            pending: vec![Vec::new(), vec![env(5)]],
            counters: Some(vec![11; Counter::ALL.len()]),
            virts: Some(vec![0.5; VirtAcc::ALL.len()]),
        };
        let row = vec![(0u64, Vec::new()), (7u64, vec![env(7), env(8)])];
        let bytes = encode_ckpt(&ckpt, &row);
        let (back, back_row) = decode_ckpt(&bytes).unwrap();
        assert_eq!(back.chain_pos, 4);
        assert_eq!(back.app, vec![1, 2, 3]);
        assert_eq!(back.clock.to_bits(), ckpt.clock.to_bits());
        assert_eq!(back.stats, ckpt.stats);
        assert_eq!(back.next, ckpt.next);
        assert_eq!(back.expect, ckpt.expect);
        assert_eq!(back.pending[1][0].seq, 5);
        assert_eq!(back.pending[1][0].payload[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.counters, ckpt.counters);
        assert_eq!(back.virts, ckpt.virts);
        assert_eq!(back_row[1].0, 7);
        assert_eq!(back_row[1].1.len(), 2);
        assert_eq!(back_row[1].1[1].seq, 8);
        // Truncation is an error, never a panic.
        assert!(decode_ckpt(&bytes[..bytes.len() - 3]).is_err());
        assert!(decode_ckpt(b"TCKQ").is_err());
    }

    #[test]
    fn slow_but_alive_worker_is_not_declared_dead() {
        let rdv = Rendezvous::bind().unwrap();
        let addr = rdv.addr().to_string();
        let worker = thread::spawn(move || {
            let mut cfg = WorkerConfig::new(
                0,
                1,
                addr,
                MachineModel::fast_ethernet_p3(),
                EngineOptions::default(),
            );
            cfg.heartbeat = Duration::from_millis(10);
            let (out, t, _stats, handle) = run_worker(&cfg, |comm| {
                // Wall-slow but heartbeating: far past the driver's
                // dead-peer timeout below.
                thread::sleep(Duration::from_millis(800));
                comm.advance_compute(10);
                42u64
            })
            .unwrap();
            handle.send_result(t, out.to_le_bytes().to_vec()).unwrap();
            handle.wait_bye().unwrap();
            out
        });
        let controls = rdv.coordinate(1, HANDSHAKE_TIMEOUT).unwrap();
        let reports = collect_workers(
            controls,
            Some(Duration::from_secs(30)),
            true,
            Some(Duration::from_millis(200)),
            None,
        )
        .unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(worker.join().unwrap(), 42);
    }

    #[test]
    fn silent_worker_is_declared_dead_after_the_peer_timeout() {
        let rdv = Rendezvous::bind().unwrap();
        let addr = rdv.addr();
        // A fake worker that completes the rendezvous and then falls
        // silent — no heartbeats, no result, socket held open.
        let (ghost_done_tx, ghost_done_rx) = channel::<()>();
        let ghost = thread::spawn(move || {
            let mut control = TcpStream::connect(addr).unwrap();
            let mut hello = Frame::control(FrameKind::Hello, 0);
            hello.seq = 1;
            hello.payload = b"127.0.0.1:1".to_vec();
            wire::write_frame(&mut control, &hello).unwrap();
            let addrs = wire::read_frame(&mut control).unwrap();
            assert_eq!(addrs.kind, FrameKind::Addrs);
            // Hold the socket open until the driver has given up on us.
            let _ = ghost_done_rx.recv_timeout(Duration::from_secs(30));
        });
        let controls = rdv.coordinate(1, HANDSHAKE_TIMEOUT).unwrap();
        let err = collect_workers(
            controls,
            Some(Duration::from_secs(30)),
            false,
            Some(Duration::from_millis(150)),
            None,
        )
        .unwrap_err();
        match err {
            RunError::RankPanicked { rank, payload } => {
                assert_eq!(rank, 0);
                assert!(payload.contains("without reporting"), "{payload}");
            }
            other => panic!("expected silent-death failure, got {other}"),
        }
        drop(ghost_done_tx);
        ghost.join().unwrap();
    }

    #[test]
    fn tcp_ping_pong_matches_threaded_virtual_times() {
        let model = MachineModel {
            compute_per_iter: 0.0,
            send_overhead: 1.0,
            recv_overhead: 2.0,
            wire_latency: 4.0,
            per_byte: 0.5,
        };
        let report = run_cluster_tcp(2, model, EngineOptions::default(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, vec![7.0, 8.0], 16);
                comm.local_time()
            } else {
                let v = comm.recv(0);
                assert_eq!(v, vec![7.0, 8.0]);
                comm.local_time()
            }
        })
        .unwrap();
        // Identical arithmetic to the threaded engine's ping_pong test.
        assert!((report.results[0] - 9.0).abs() < 1e-12);
        assert!((report.results[1] - 15.0).abs() < 1e-12);
        assert_eq!(report.total_bytes(), 16);
        assert_eq!(report.total_messages(), 1);
    }
}
