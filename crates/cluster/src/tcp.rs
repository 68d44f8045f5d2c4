//! The TCP cluster backend: the [`RankCore`] contract over real sockets.
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
//! Each rank thread writes its own frames: a send encodes the envelope and
//! writes it to the peer's socket with a blocking `write_all`, as the
//! paper's generated code sends its halo with a blocking `MPI_Send`. Per
//! peer, one *reader thread* decodes incoming frames into the same
//! tag-matching receive path the threaded engine uses. Readers never write
//! and always drain their socket into an unbounded channel, so a write
//! completes while the peer lives. On clean exit the link sends `FIN`
//! (`shutdown(Write)`); readers keep draining to end-of-stream so a socket
//! is never reset while it may still carry undelivered frames.
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
//!   rendezvous (control) connection, and the driver feeds those frames
//!   to the [supervisor](crate::supervise) the in-process runners use, as
//!   the same rank phases and outcomes a rank thread reports.

use crate::comm::{Envelope, Restored};
use crate::error::{spawn, CommError, RunError};
use crate::model::MachineModel;
use crate::obs::{Counter, GaugeId, HistId, Phase, RankMetrics, RankObs, StatsSnapshot};
use crate::rank::{
    new_replay_logs, run_rank, CkptState, Link, RankCore, RankEnd, ReplayLogs, RunShared,
};
use crate::reliability::{LinkSeq, ReplayLog};
use crate::supervise::{supervise, Feed, Monitor, RankPhase};
use crate::threaded::{install_quiet_panic_hook, launch, EngineOptions, RunReport};
use crate::wire::{self, ByteReader, Frame, FrameKind};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
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
/// How often a worker ships a heartbeat (`PROGRESS` frame) to the driver
/// unless [`WorkerConfig::heartbeat`] says otherwise.
pub const HEARTBEAT_PERIOD: Duration = Duration::from_millis(50);
/// How long a worker waits for the driver's `BYE` after its result.
const BYE_TIMEOUT: Duration = Duration::from_secs(60);
/// `seq` of a worker's final `STATS` frame, sent just before its `RESULT`;
/// heartbeat snapshots count up from 1.
const FINAL_STATS_SEQ: u64 = u64::MAX;

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
        let mut controls: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        let mut addrs: Vec<Option<String>> = vec![None; size];
        let all_in = accept_until(
            &self.listener,
            size,
            deadline,
            "rendezvous",
            |mut stream| {
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
                Ok(())
            },
        )?;
        if !all_in {
            let missing: Vec<usize> = (0..size).filter(|&r| controls[r].is_none()).collect();
            return Err(transport_error(
                "rendezvous",
                format!("timed out waiting for ranks {missing:?}"),
            ));
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

/// Accept `count` connections on `listener`, handing each to `take`, in
/// blocking mode so no wait polls. The deadline still
/// holds: a waker thread dials the listener's own address once `deadline`
/// has passed, which unblocks the pending `accept`, or exits as soon as
/// this function returns and drops its cancel channel. Returns `false`
/// when the deadline passed first; the caller names the missing ranks.
fn accept_until(
    listener: &TcpListener,
    count: usize,
    deadline: Duration,
    stage: &str,
    mut take: impl FnMut(TcpStream) -> Result<(), CommError>,
) -> Result<bool, CommError> {
    if count == 0 {
        return Ok(true);
    }
    let until = Instant::now() + deadline;
    let mut wake_addr = listener
        .local_addr()
        .map_err(|e| transport_error(stage, e))?;
    if wake_addr.ip().is_unspecified() {
        // A wildcard listener is reachable on loopback of its family.
        wake_addr.set_ip(match wake_addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let (cancel, cancelled) = channel::<()>();
    let builder = thread::Builder::new().name("tilecc-tcp-accept-waker".into());
    let waker = spawn(builder, &format!("{stage} accept waker"), move || {
        // Only a timeout fires the wake-up dial; the cancel channel
        // disconnecting means the accept loop is already done.
        while let Err(RecvTimeoutError::Timeout) =
            cancelled.recv_timeout(until.saturating_duration_since(Instant::now()))
        {
            if Instant::now() >= until {
                let _ = TcpStream::connect_timeout(&wake_addr, HANDSHAKE_TIMEOUT);
                return;
            }
        }
    })?;
    let mut result = Ok(true);
    for _ in 0..count {
        let accepted = listener.accept();
        // Anything accepted after the deadline, the waker's own dial
        // included, is a timeout.
        if Instant::now() >= until {
            result = Ok(false);
            break;
        }
        result = accepted
            .map_err(|e| transport_error(&format!("{stage} accept"), e))
            .and_then(|(stream, _)| take(stream))
            .map(|()| true);
        if result.is_err() {
            break;
        }
    }
    drop(cancel);
    let _ = waker.join();
    result
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
    accept_peers(&listener, rank, &mut peers, HANDSHAKE_TIMEOUT)?;
    Ok(Mesh { peers, control })
}

/// Accept the mesh connection of every rank above `rank`, each announcing
/// itself with a `PEER` frame, into `peers`.
fn accept_peers(
    listener: &TcpListener,
    rank: usize,
    peers: &mut [Option<TcpStream>],
    deadline: Duration,
) -> Result<(), CommError> {
    let size = peers.len();
    let all_in = accept_until(listener, size - rank - 1, deadline, "mesh", |mut stream| {
        stream
            .set_nodelay(true)
            .map_err(|e| transport_error("peer setup", e))?;
        stream
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(|e| transport_error("peer setup", e))?;
        let peer_frame =
            wire::read_frame(&mut stream).map_err(|e| transport_error("peer handshake", e))?;
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
        Ok(())
    })?;
    if !all_in {
        let missing: Vec<usize> = (rank + 1..size).filter(|&p| peers[p].is_none()).collect();
        return Err(transport_error(
            "mesh accept",
            format!("timed out waiting for ranks {missing:?}"),
        ));
    }
    Ok(())
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
/// it trims and the resume channel it signals the barrier through.
struct ReaderCtl {
    logs: ReplayLogs,
    resume_tx: Sender<(usize, u64)>,
    rank: usize,
    peer: usize,
}

/// The socket [`Link`]: the calling rank thread encodes each outgoing
/// envelope to a TCMP frame (measured as `serialize_ns`) and writes it to
/// the peer's socket itself, while per-peer reader threads decode arrivals
/// (measured as `deserialize_ns`) into the receive path.
pub struct TcpLink {
    rank: usize,
    /// Each peer's socket; the rank thread is its only writer.
    streams: Vec<Option<TcpStream>>,
    /// Decoded envelopes from each peer's reader thread.
    rxs: Vec<Option<Receiver<Envelope>>>,
    /// Worker-process checkpointing (`None` for in-process ranks).
    worker: Option<WorkerCkpt>,
}

/// The socket-backed endpoint: the shared [`RankCore`] over a
/// [`TcpLink`], so its clocks and counters are the threaded engine's by
/// construction. Constructed by [`run_cluster_tcp`] (in-process ranks) and
/// [`run_worker`] (one rank of a multi-process run).
pub type TcpComm = RankCore<TcpLink>;

impl TcpLink {
    /// Spawn a reader thread per connected peer. `worker` arms worker-mode
    /// checkpointing over the run's replay logs. A thread the system
    /// refuses to start is a [`CommError::Transport`]; the threads already
    /// started end as the partial link drops.
    fn new(
        rank: usize,
        peers: Vec<Option<TcpStream>>,
        metrics: Option<Arc<RankMetrics>>,
        connect_ns: u64,
        worker: Option<(&WorkerCkptConfig, ReplayLogs)>,
    ) -> Result<TcpLink, CommError> {
        let size = peers.len();
        // Worker-mode readers signal each peer's `RESUME` frontier through
        // this channel to the resume barrier.
        let (resume_tx, resume_rx) = channel();
        let logs = worker.as_ref().map(|(_, logs)| logs.clone());
        let mut link = TcpLink {
            rank,
            streams: (0..size).map(|_| None).collect(),
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
            let read_half = stream
                .try_clone()
                .map_err(|e| transport_error("socket clone", e))?;
            let (in_tx, in_rx) = channel::<Envelope>();
            let reader_metrics = metrics.clone();
            // Worker-mode readers also service recovery frames: `CKPT_ACK`
            // trims our replay log, `RESUME` signals the resume barrier.
            let ctl = logs.clone().map(|logs| ReaderCtl {
                logs,
                resume_tx: resume_tx.clone(),
                rank,
                peer,
            });
            let builder = thread::Builder::new().name(format!("tilecc-tcp-r{rank}-{peer}"));
            spawn(builder, "tcp reader", move || {
                reader_loop(read_half, in_tx, reader_metrics, ctl)
            })?;
            link.streams[peer] = Some(stream);
            link.rxs[peer] = Some(in_rx);
        }
        if let Some(m) = &metrics {
            m.gauge(GaugeId::ConnectNs).set(connect_ns);
        }
        Ok(link)
    }

    /// Write one encoded frame to `to`'s socket. Returns `false` when the
    /// write fails: the peer is gone.
    fn write(&self, to: usize, buf: &[u8]) -> bool {
        let mut stream = self.streams[to].as_ref().expect("no link to peer");
        std::io::Write::write_all(&mut stream, buf).is_ok()
    }
}

impl Link for TcpLink {
    fn push(&self, to: usize, env: Envelope, obs: Option<&RankObs>) -> bool {
        let t0 = obs.map(|o| o.now_ns());
        let buf = wire::encode_envelope(self.rank as u32, &env);
        if let (Some(o), Some(t0)) = (obs, t0) {
            o.observe(HistId::SerializeNs, o.now_ns().saturating_sub(t0));
        }
        self.write(to, &buf)
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
        for peer in (0..self.streams.len()).filter(|&p| p != rank) {
            let mut frame = Frame::control(FrameKind::CkptAck, rank as u32);
            frame.seq = links.expect_of(peer);
            self.write(peer, &frame.encode());
        }
        if kill {
            kill_self();
        }
        Some(bytes.len() as u64)
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        // Announce end-of-stream but keep the read side open: the peer may
        // still be sending to us, and resetting the socket could destroy
        // those frames in flight. The readers drain to end-of-stream.
        for stream in self.streams.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }
}

/// Restart-the-world synchronization for a resumed worker: announce this
/// rank's restored receive frontier to every peer (`RESUME`), then, for
/// each peer's announcement, replay the logged envelopes from its frontier
/// on and set the re-execution send frontier. The rank thread is the only
/// writer of each socket and the barrier ends before the rank body starts,
/// so every replayed envelope reaches a peer ahead of any fresh send. Until
/// the replays arrive, a peer's `CKPT_ACK` cannot pass its announced
/// frontier, so no trim drops a replay.
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
        if !comm.link.write(peer, &frame.encode()) {
            return Err(TcpLink::closed(peer));
        }
    }
    for _ in 0..comm.size.saturating_sub(1) {
        let (peer, frontier) = w.resume_rx.recv_timeout(HANDSHAKE_TIMEOUT).map_err(|_| {
            transport_error("resume barrier", "timed out waiting for peer RESUME frames")
        })?;
        let replays = rec.logs[rank][peer]
            .lock()
            .expect("replay log poisoned")
            .replay_from(frontier);
        for env in &replays {
            let frame = wire::encode_replay(rank as u32, env);
            if !comm.link.write(peer, &frame) {
                return Err(TcpLink::closed(peer));
            }
        }
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
            // hand it to the resume barrier, which replays from there on.
            Ok(frame) if frame.kind == FrameKind::Resume => {
                if let Some(ctl) = &ctl {
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
/// [`crate::run_cluster`], sharing its rank-thread launcher and so its
/// supervisor (deadlock detection, wall cap, failure fold).
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
    let rendezvous = Rendezvous::bind().map_err(|error| RunError::Comm { rank: 0, error })?;
    let rdv_addr = rendezvous.addr().to_string();
    let builder = thread::Builder::new().name("tilecc-tcp-coordinator".into());
    let coordinator = spawn(builder, "rendezvous coordinator", move || {
        rendezvous.coordinate(size, HANDSHAKE_TIMEOUT)
    })
    .map_err(|error| RunError::Comm { rank: 0, error })?;
    // Each rank thread builds its side of the mesh; its control socket has
    // no further use once the address list is in.
    let links = (0..size).map(|rank| {
        let rdv_addr = rdv_addr.clone();
        move |shared: &RunShared| {
            let connect_t0 = Instant::now();
            let mesh = connect_mesh(rank, size, &rdv_addr, "127.0.0.1:0")?;
            let metrics = shared.obs.as_ref().map(|reg| reg.rank_metrics(rank));
            let connect_ns = connect_t0.elapsed().as_nanos() as u64;
            TcpLink::new(rank, mesh.peers, metrics, connect_ns, None)
        }
    });
    let result = launch("tilecc-tcp-rank", size, model, &options, links, f);
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
    /// Engine options; `scheme`, `fault` and `obs` apply (`wall_timeout`
    /// is the driver's job in the multi-process model, and `ckpt` replaces
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
    /// surfaced as the rank's `Counter::Recoveries`.
    pub recovered: u64,
}

/// A worker's channel back to the driver after a successful run: used to
/// ship the result payload and wait for the driver's `BYE` barrier.
pub struct WorkerHandle {
    rank: usize,
    control: Arc<Mutex<TcpStream>>,
}

impl WorkerHandle {
    /// Report the rank's outcome: its *final* metrics snapshot as a
    /// `STATS` frame (`seq = u64::MAX`, so it outranks every heartbeat
    /// snapshot), then the `RESULT` frame — final virtual clock plus
    /// a caller-defined payload. The control socket is ordered, so the
    /// driver holds the complete final snapshot by the time the result
    /// lands: that is what makes the driver-merged report
    /// bitwise-identical to an in-process run's.
    pub fn send_result(
        &self,
        local_time: f64,
        stats: &StatsSnapshot,
        payload: Vec<u8>,
    ) -> Result<(), CommError> {
        let mut snap = Frame::control(FrameKind::Stats, self.rank as u32);
        snap.seq = FINAL_STATS_SEQ;
        snap.payload = stats.encode();
        let mut frame = Frame::control(FrameKind::Result, self.rank as u32);
        frame.ready_at = local_time;
        frame.payload = payload;
        let mut control = self.control.lock().expect("control poisoned");
        wire::write_frame(&mut *control, &snap)
            .and_then(|()| wire::write_frame(&mut *control, &frame))
            .map_err(|e| transport_error("send result", e))
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
const CKPT_VERSION: u16 = 5;

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
/// so a resumed run is bitwise identical to an uninterrupted one. The
/// metrics travel as a `STATS` payload.
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
    let metrics = ckpt.metrics.encode();
    push_u64(&mut b, metrics.len() as u64);
    b.extend_from_slice(&metrics);
    for (base, items) in row {
        push_u64(&mut b, *base);
        push_u64(&mut b, items.len() as u64);
        for env in items {
            push_env(&mut b, env);
        }
    }
    b
}

/// Read one [`push_env`] record.
fn read_env(c: &mut ByteReader) -> Result<Envelope, String> {
    let tag = c.i64()?;
    let seq = c.u64()?;
    let ready_at = c.f64()?;
    let bytes = c.u64()? as usize;
    let n = c.u64()? as usize;
    let mut payload = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        payload.push(c.f64()?);
    }
    Ok(Envelope {
        payload,
        tag,
        ready_at,
        seq,
        bytes,
    })
}

/// Read `n` envelopes, where `n` comes first.
fn read_envs(c: &mut ByteReader) -> Result<Vec<Envelope>, String> {
    let n = c.u64()? as usize;
    let mut envs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        envs.push(read_env(c)?);
    }
    Ok(envs)
}

/// Deserialize a worker checkpoint; the inverse of [`encode_ckpt`].
#[allow(clippy::type_complexity)]
fn decode_ckpt(bytes: &[u8]) -> Result<(CkptState, Vec<(u64, Vec<Envelope>)>), String> {
    let mut c = ByteReader::new(bytes, "checkpoint file");
    if c.take(4)? != CKPT_MAGIC {
        return Err("bad checkpoint magic".into());
    }
    let version = c.u16()?;
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
    let size = c.u64()? as usize;
    let frontier = |c: &mut ByteReader| -> Result<Vec<u64>, String> {
        let mut v = Vec::with_capacity(size.min(1 << 16));
        for _ in 0..size {
            v.push(c.u64()?);
        }
        Ok(v)
    };
    let next = frontier(&mut c)?;
    let expect = frontier(&mut c)?;
    let mut pending = Vec::with_capacity(size.min(1 << 16));
    for _ in 0..size {
        pending.push(read_envs(&mut c)?);
    }
    let metrics_len = c.u64()? as usize;
    let metrics = StatsSnapshot::decode(c.take(metrics_len)?)?;
    let mut row = Vec::with_capacity(size.min(1 << 16));
    for _ in 0..size {
        let base = c.u64()?;
        row.push((base, read_envs(&mut c)?));
    }
    c.finish()?;
    Ok((
        CkptState {
            chain_pos,
            app,
            clock,
            comm_lane,
            lane_busy,
            metrics,
            next,
            expect,
            pending,
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
/// frame: an encoded [`StatsSnapshot`] of this rank's metrics.
///
/// The thread waits out each period on `stop`: a message or the sender's
/// drop ends it at once, so joining it never waits for the next beat.
fn spawn_heartbeat(
    rank: usize,
    control: Arc<Mutex<TcpStream>>,
    monitor: Arc<Monitor>,
    stop: Receiver<()>,
    period: Duration,
    metrics: Option<Arc<RankMetrics>>,
) -> Result<JoinHandle<()>, CommError> {
    let builder = thread::Builder::new().name(format!("tilecc-tcp-hb-{rank}"));
    spawn(builder, "heartbeat", move || {
        let mut snap_seq: u64 = 0;
        loop {
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
                snap_seq += 1;
                let mut sf = Frame::control(FrameKind::Stats, rank as u32);
                sf.seq = snap_seq;
                sf.payload = StatsSnapshot::capture(m).encode();
                sf
            });
            {
                let mut control = control.lock().expect("control poisoned");
                if wire::write_frame(&mut *control, &frame).is_err() {
                    return; // Driver gone; the run is over either way.
                }
                if let Some(sf) = stats {
                    if wire::write_frame(&mut *control, &sf).is_err() {
                        return;
                    }
                }
            }
            if stop.recv_timeout(period) != Err(RecvTimeoutError::Timeout) {
                return;
            }
        }
    })
}

/// Run one rank of a multi-process TCP cluster inside this process:
/// connect the mesh through the driver's rendezvous, execute `f`, and
/// return its result plus the final clock and metrics snapshot together
/// with the [`WorkerHandle`] for reporting them.
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
) -> Result<(R, f64, StatsSnapshot, WorkerHandle), RunError>
where
    F: FnOnce(&mut TcpComm) -> R,
{
    install_quiet_panic_hook();
    let rank = cfg.rank;
    // The `mesh` span covers bring-up, from the connect call to the
    // finished `TcpLink`, on the worker's driver lane.
    let mesh_t0 = cfg.options.obs.as_ref().map(|reg| reg.now_ns());
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
    // Dropping `stop` (here, or on any early return) ends the heartbeat.
    let (stop, stopped) = channel::<()>();
    let heartbeat = spawn_heartbeat(
        rank,
        control.clone(),
        shared.monitor.clone(),
        stopped,
        cfg.heartbeat,
        metrics.clone(),
    )
    .map_err(|error| RunError::Comm { rank, error })?;
    // A respawned worker loads its previous checkpoint file up front and
    // seeds this rank's replay-log row from it before any reader thread
    // can trim it; the resume barrier replays from it. A missing file is
    // fine: the process died before its first checkpoint and resumes from
    // position zero.
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
    let link = TcpLink::new(rank, mesh.peers, metrics, connect_ns, worker)
        .map_err(|error| RunError::Comm { rank, error })?;
    if let (Some(reg), Some(t0)) = (&cfg.options.obs, mesh_t0) {
        reg.driver_span(Phase::Launch, "mesh", t0, cfg.size as u64 - 1);
    }
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
        comm.metrics.set(Counter::Recoveries, ck.recovered);
        if ck.recovered > 0 {
            // This rank's injected crash already fired in a previous life;
            // a respawned process must not re-fire it after the rewind.
            comm.crash_at = None;
        }
    }
    worker_resume_barrier(&mut comm).map_err(|error| RunError::Comm { rank, error })?;
    let end = run_rank(comm, f);
    drop(stop);
    let _ = heartbeat.join();
    let failed = match end {
        RankEnd::Ok((r, clock, stats)) => {
            return Ok((r, clock, stats, WorkerHandle { rank, control }))
        }
        failed => failed,
    };
    if let Ok(mut control) = control.lock() {
        let _ = wire::write_frame(&mut *control, &error_frame(rank, &failed));
    }
    Err(failed.failure(rank).expect("a failed rank end").1)
}

/// The `ERROR` frame that reports a failed rank end to the driver, where
/// [`WorkerSlot`] turns it back into the same [`RankEnd`]: `seq` 1 is a
/// panic with its bare payload as text (the driver re-wraps it with the
/// rank), `seq` 2 a communication error in [`encode_comm_error`]'s scalars.
fn error_frame<R>(rank: usize, end: &RankEnd<R>) -> Frame {
    let mut frame = Frame::control(FrameKind::Error, rank as u32);
    match end {
        RankEnd::Panic(payload) => {
            frame.seq = 1;
            frame.payload = payload.clone().into_bytes();
        }
        RankEnd::CommFail(error) => {
            frame.seq = 2;
            (frame.tag, frame.nominal, frame.ready_at) = encode_comm_error(error);
            frame.payload = error.to_string().into_bytes();
        }
        RankEnd::Ok(_) | RankEnd::Vanished => unreachable!("not a failure a worker reports"),
    }
    frame
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
    /// The final absolute metrics snapshot [`WorkerHandle::send_result`]
    /// ships ahead of the result — `None` when that frame was missing or
    /// did not decode, which makes the result malformed. The driver merges
    /// these with [`crate::obs::RunReport::from_snapshots`].
    pub stats: Option<StatsSnapshot>,
}

/// Per-rank driver-side state while collecting workers: the rank's phase
/// and progress count for the watchdog, and its telemetry.
struct WorkerSlot {
    progress: u64,
    phase: RankPhase,
    /// Wall time of the last frame off the control socket; heartbeats
    /// keep it fresh, so a slow-but-alive worker is never declared dead.
    last_seen: Instant,
    /// Newest decoded snapshot (`None` until the first `STATS` frame).
    stats: Option<StatsSnapshot>,
    /// `seq` of the newest decoded snapshot.
    stats_seq: u64,
    /// The decoded final snapshot (`seq == FINAL_STATS_SEQ`), if it came.
    final_stats: Option<StatsSnapshot>,
}

impl WorkerSlot {
    fn new(now: Instant) -> WorkerSlot {
        WorkerSlot {
            progress: 0,
            phase: RankPhase::Running,
            last_seen: now,
            stats: None,
            stats_seq: 0,
            final_stats: None,
        }
    }

    /// Apply one event off rank `rank`'s control socket — a frame, or
    /// `None` for end-of-stream (closed, reset or undecodable) — recording
    /// the rank's outcome in `end`: a `RESULT` is a success, an `ERROR` the
    /// failure it encodes, and end-of-stream before either a vanished rank,
    /// or `Aborted` fallout once the driver `aborted`. A rank with an
    /// outcome is not listened to again.
    fn on_event(
        &mut self,
        rank: usize,
        event: Option<Frame>,
        end: &mut Option<RankEnd<WorkerReport>>,
        aborted: bool,
    ) {
        if end.is_some() {
            return;
        }
        let Some(frame) = event else {
            *end = Some(if aborted {
                RankEnd::CommFail(CommError::Aborted)
            } else {
                RankEnd::Vanished
            });
            return;
        };
        self.last_seen = Instant::now();
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
                *end = Some(RankEnd::Ok(WorkerReport {
                    rank,
                    local_time: frame.ready_at,
                    payload: frame.payload,
                    stats: self.final_stats.take(),
                }));
            }
            FrameKind::Stats => {
                // A heartbeat payload that fails to decode only leaves the
                // telemetry stale; a final one that fails leaves
                // `final_stats` empty, so the result is malformed.
                if let Ok(snap) = StatsSnapshot::decode(&frame.payload) {
                    if frame.seq == FINAL_STATS_SEQ {
                        self.final_stats = Some(snap.clone());
                    }
                    self.stats = Some(snap);
                    self.stats_seq = frame.seq;
                }
            }
            FrameKind::Error => {
                self.phase = RankPhase::Done;
                let text = String::from_utf8_lossy(&frame.payload).into_owned();
                *end = Some(if frame.seq == 2 {
                    RankEnd::CommFail(decode_comm_error(
                        frame.tag,
                        frame.nominal,
                        frame.ready_at,
                        &text,
                    ))
                } else {
                    RankEnd::Panic(text)
                });
            }
            _ => {}
        }
    }
}

/// One rank's live telemetry as seen by the driver's supervision loop:
/// the watchdog state (phase + progress) plus the newest decoded `STATS`
/// snapshot. Handed to the [`collect_workers`] observer each time the
/// supervision loop wakes.
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
    /// `seq` of the newest snapshot — compare against the previous call
    /// to tell fresh telemetry from a re-render of stale state.
    pub stats_seq: u64,
}

/// A driver-side telemetry hook: called with the current per-rank
/// telemetry each time the supervision loop wakes. See
/// [`collect_workers`].
pub type TelemetryObserver<'a> = Option<&'a mut dyn FnMut(&[RankTelemetry])>;

/// Spawn one reader thread per worker control socket, decoding frames
/// into a single channel so supervision wakes on each frame as it lands;
/// a `None` marks a socket's end-of-stream (closed, reset or undecodable).
fn control_readers(streams: &[TcpStream]) -> Result<Receiver<(usize, Option<Frame>)>, RunError> {
    let (tx, events) = channel();
    for (rank, stream) in streams.iter().enumerate() {
        let setup = |e| RunError::Comm {
            rank,
            error: transport_error("control reader", e),
        };
        let mut read_half = stream.try_clone().map_err(setup)?;
        // The rendezvous read timeout would cut a long heartbeat period
        // short; silence is the peer-timeout watchdog's call.
        read_half.set_read_timeout(None).map_err(setup)?;
        let tx = tx.clone();
        let builder = thread::Builder::new().name(format!("tilecc-tcp-ctl-{rank}"));
        spawn(builder, "control reader", move || {
            while let Ok(frame) = wire::read_frame(&mut read_half) {
                if tx.send((rank, Some(frame))).is_err() {
                    return;
                }
            }
            let _ = tx.send((rank, None));
        })
        .map_err(|error| RunError::Comm { rank, error })?;
    }
    Ok(events)
}

/// The driver's [`Feed`]: frames off the workers' control sockets, reduced
/// by each rank's [`WorkerSlot`] to a phase, a progress count and an
/// outcome; a worker silent past `peer_timeout` has vanished. Aborting, or
/// dropping the feed, shuts the sockets down, which ends the reader threads
/// and tells live workers the driver is gone.
struct Workers<'a> {
    streams: Vec<TcpStream>,
    events: Receiver<(usize, Option<Frame>)>,
    slots: Vec<WorkerSlot>,
    peer_timeout: Option<Duration>,
    observer: TelemetryObserver<'a>,
    aborted: bool,
}

impl Feed for Workers<'_> {
    type Out = WorkerReport;

    fn pump(&mut self, timeout: Duration, ends: &mut [Option<RankEnd<WorkerReport>>]) -> bool {
        // A disconnected channel means every reader has exited, each after
        // reporting its end-of-stream.
        let live = match self.events.recv_timeout(timeout) {
            Ok(first) => {
                for (rank, event) in std::iter::once(first).chain(self.events.try_iter()) {
                    self.slots[rank].on_event(rank, event, &mut ends[rank], self.aborted);
                }
                true
            }
            Err(e) => e == RecvTimeoutError::Timeout,
        };
        // Heartbeats flow every [`HEARTBEAT_PERIOD`] while a worker lives,
        // even when it is blocked: a control socket silent past the
        // dead-peer timeout means the process is gone.
        if let Some(timeout) = self.peer_timeout.filter(|_| !self.aborted) {
            for (slot, end) in self.slots.iter().zip(ends.iter_mut()) {
                if end.is_none() && slot.last_seen.elapsed() >= timeout {
                    *end = Some(RankEnd::Vanished);
                }
            }
        }
        if let Some(hook) = &mut self.observer {
            let telemetry: Vec<RankTelemetry> = self
                .slots
                .iter()
                .zip(ends.iter())
                .enumerate()
                .map(|(rank, (s, end))| RankTelemetry {
                    rank,
                    phase: s.phase,
                    progress: s.progress,
                    done: matches!(end, Some(RankEnd::Ok(_))),
                    stats: s.stats.clone(),
                    stats_seq: s.stats_seq,
                })
                .collect();
            hook(&telemetry);
        }
        live
    }

    fn watch(&self) -> (Vec<RankPhase>, u64) {
        let phases = self.slots.iter().map(|s| s.phase).collect();
        // Each worker's count only grows, so their sum moves iff one does.
        let progress = self
            .slots
            .iter()
            .fold(0u64, |p, s| p.wrapping_add(s.progress));
        (phases, progress)
    }

    fn abort(&mut self) {
        self.aborted = true;
        for stream in &self.streams {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Workers<'_> {
    fn drop(&mut self) {
        self.abort();
    }
}

/// Driver-side supervision of multi-process workers: feed their control
/// frames to the one supervisor every engine shares — heartbeat-fed
/// deadlock detection, an optional wall cap, and the failure fold — plus
/// the dead-peer timeout. On success every worker receives `BYE` and the
/// reports are returned in rank order.
///
/// When `observer` is `Some`, it is invoked with the current
/// [`RankTelemetry`] of every rank each time the supervisor wakes — on
/// each control frame, the last result's included — the hook behind
/// `--live` and `--stats-out`.
pub fn collect_workers(
    controls: Vec<TcpStream>,
    wall_timeout: Option<Duration>,
    peer_timeout: Option<Duration>,
    observer: TelemetryObserver<'_>,
) -> Result<Vec<WorkerReport>, RunError> {
    let size = controls.len();
    let now = Instant::now();
    let mut workers = Workers {
        events: control_readers(&controls)?,
        streams: controls,
        slots: (0..size).map(|_| WorkerSlot::new(now)).collect(),
        peer_timeout,
        observer,
        aborted: false,
    };
    let reports = supervise(&mut workers, size, wall_timeout)?;
    let bye = Frame::control(FrameKind::Bye, u32::MAX);
    for stream in &mut workers.streams {
        let _ = wire::write_frame(stream, &bye);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::DEADLOCK_WINDOW;
    use crate::{Counter, VirtAcc};

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
    fn thread_outcomes_and_worker_frames_fold_to_the_same_error() {
        use crate::supervise::Monitor;
        use crate::threaded::Threads;
        let panic = || RankEnd::Panic("boom".into());
        let comm = |error| RankEnd::CommFail(error);
        let exhausted = CommError::RetransmitExhausted {
            rank: 0,
            tag: -3,
            attempts: 5,
        };
        let lost = CommError::Disconnected { peer: 1 };
        // Per rank: `Some(end)` is reported, `None` vanishes (a rank thread
        // that never reports / a worker's control socket at end-of-stream).
        let ok = || RankEnd::Ok(((), 0.0, StatsSnapshot::zero()));
        let cases: Vec<(Vec<Option<RankEnd<_>>>, RunError)> = vec![
            // A panic beats a communication error and a vanished rank.
            (
                vec![Some(comm(lost.clone())), None, Some(panic())],
                RunError::RankPanicked {
                    rank: 2,
                    payload: "boom".into(),
                },
            ),
            // A communication error beats a vanished rank; `Aborted` on
            // a lower rank is never the primary cause.
            (
                vec![
                    Some(comm(CommError::Aborted)),
                    None,
                    Some(comm(exhausted.clone())),
                ],
                RunError::Comm {
                    rank: 2,
                    error: exhausted,
                },
            ),
            // A vanished rank beats `Aborted` fallout and successes.
            (
                vec![Some(comm(CommError::Aborted)), Some(ok()), None],
                RunError::RankPanicked {
                    rank: 2,
                    payload: "rank died without reporting a result".into(),
                },
            ),
            // Equal failures: the lowest rank is primary.
            (
                vec![Some(comm(lost.clone())), Some(comm(lost.clone())), None],
                RunError::Comm {
                    rank: 0,
                    error: lost,
                },
            ),
        ];
        for (ranks, want) in cases {
            let size = ranks.len();
            let (done_tx, done) = channel();
            let (frame_tx, events) = channel();
            for (rank, end) in ranks.into_iter().enumerate() {
                let Some(end) = end else {
                    frame_tx.send((rank, None)).unwrap();
                    continue;
                };
                let frame = match &end {
                    RankEnd::Ok(_) => Frame::control(FrameKind::Result, rank as u32),
                    failed => error_frame(rank, failed),
                };
                frame_tx.send((rank, Some(frame))).unwrap();
                done_tx.send((rank, end)).unwrap();
            }
            drop((done_tx, frame_tx));
            let monitor = Monitor::new(size);
            let mut threads = Threads {
                monitor: &monitor,
                done,
            };
            let thread_err = supervise(&mut threads, size, None).unwrap_err();
            let mut workers = Workers {
                streams: Vec::new(),
                events,
                slots: (0..size).map(|_| WorkerSlot::new(Instant::now())).collect(),
                peer_timeout: None,
                observer: None,
                aborted: false,
            };
            let worker_err = supervise(&mut workers, size, None).unwrap_err();
            assert_eq!(format!("{thread_err:?}"), format!("{want:?}"));
            assert_eq!(format!("{worker_err:?}"), format!("{want:?}"));
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
        let metrics = RankMetrics::new();
        for (k, &c) in Counter::ALL.iter().enumerate() {
            metrics.add(c, 11 + k as u64);
        }
        metrics.add(Counter::BytesSent, u64::MAX - 11);
        for &a in &VirtAcc::ALL {
            metrics.virt_add(a, 0.1 + 0.2);
        }
        metrics.hist(HistId::RecvWaitNs).observe(1 << 40);
        let ckpt = CkptState {
            chain_pos: 4,
            app: vec![1, 2, 3],
            clock: 1.25,
            comm_lane: 2.5,
            lane_busy: 0.5,
            metrics: StatsSnapshot::capture(&metrics),
            next: vec![0, 9],
            expect: vec![0, 8],
            pending: vec![Vec::new(), vec![env(5)]],
        };
        let row = vec![(0u64, Vec::new()), (7u64, vec![env(7), env(8)])];
        let bytes = encode_ckpt(&ckpt, &row);
        let (back, back_row) = decode_ckpt(&bytes).unwrap();
        assert_eq!(back.chain_pos, 4);
        assert_eq!(back.app, vec![1, 2, 3]);
        assert_eq!(back.clock.to_bits(), ckpt.clock.to_bits());
        assert_eq!(back.metrics, ckpt.metrics);
        assert_eq!(back.next, ckpt.next);
        assert_eq!(back.expect, ckpt.expect);
        assert_eq!(back.pending[1][0].seq, 5);
        assert_eq!(back.pending[1][0].payload[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back_row[1].0, 7);
        assert_eq!(back_row[1].1.len(), 2);
        assert_eq!(back_row[1].1[1].seq, 8);
        // Truncation is an error, never a panic.
        assert!(decode_ckpt(&bytes[..bytes.len() - 3]).is_err());
        assert!(decode_ckpt(b"TCKQ").is_err());
        // Files of older versions are refused by their version: 2 encoded
        // the metrics as deltas, 3 carried a sixth gauge, and 4's rank
        // state held the rank's whole-chain LDS.
        for version in [2u16, 3, 4] {
            let mut old = bytes.clone();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            let e = decode_ckpt(&old)
                .err()
                .expect("an older file must be refused");
            assert!(
                e.contains(&format!(
                    "checkpoint version {version} (this build reads 5)"
                )),
                "{e}"
            );
        }
        // So is a length field past the end of the address space.
        let mut huge = bytes[..14].to_vec();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        huge.extend_from_slice(&[0; 8]);
        let e = decode_ckpt(&huge)
            .err()
            .expect("oversized app_len must fail");
        assert!(e.contains("truncated checkpoint file"), "{e}");
    }

    #[test]
    fn worker_telemetry_is_each_stats_snapshot_as_sent() {
        // Two heartbeat snapshots, the second rewound below the first as a
        // checkpoint restore leaves it, then the final one: every frame
        // stands alone, so the telemetry is each snapshot bit for bit.
        let m = RankMetrics::new();
        m.add(Counter::MessagesSent, 40);
        m.virt_add(VirtAcc::Compute, 0.1 + 0.2);
        m.hist(HistId::RecvWaitNs).observe(1 << 20);
        let first = StatsSnapshot::capture(&m);
        let mut rewound = first.clone();
        rewound.counters[Counter::MessagesSent as usize] = 5;
        rewound.virts[VirtAcc::Compute as usize] = 0.125f64.to_bits();
        m.restore(&rewound);
        m.add(Counter::Recoveries, 1);
        let second = StatsSnapshot::capture(&m);
        assert!(second.counter(Counter::MessagesSent) < first.counter(Counter::MessagesSent));
        assert!(second.virt(VirtAcc::Compute) < first.virt(VirtAcc::Compute));
        m.add(Counter::MessagesSent, 2);
        m.virt_add(VirtAcc::Compute, 1.0 / 3.0);
        let last = StatsSnapshot::capture(&m);
        let mut slot = WorkerSlot::new(Instant::now());
        let mut end = None;
        for (seq, snap) in [(1, &first), (2, &second), (FINAL_STATS_SEQ, &last)] {
            let mut frame = Frame::control(FrameKind::Stats, 0);
            frame.seq = seq;
            frame.payload = snap.encode();
            slot.on_event(0, Some(frame), &mut end, false);
            assert_eq!(slot.stats.as_ref(), Some(snap), "snapshot {seq}");
            assert_eq!(slot.stats_seq, seq);
        }
        let mut result = Frame::control(FrameKind::Result, 0);
        result.ready_at = last.local_clock();
        slot.on_event(0, Some(result), &mut end, false);
        let Some(RankEnd::Ok(report)) = end else {
            panic!("the RESULT frame must end the rank");
        };
        assert_eq!(report.stats, Some(last));
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
            let (out, t, stats, handle) = run_worker(&cfg, |comm| {
                // Wall-slow but heartbeating: far past the driver's
                // dead-peer timeout below.
                thread::sleep(Duration::from_millis(800));
                comm.advance_compute(10);
                42u64
            })
            .unwrap();
            handle
                .send_result(t, &stats, out.to_le_bytes().to_vec())
                .unwrap();
            handle.wait_bye().unwrap();
            out
        });
        let controls = rdv.coordinate(1, HANDSHAKE_TIMEOUT).unwrap();
        let reports = collect_workers(
            controls,
            Some(Duration::from_secs(30)),
            Some(Duration::from_millis(200)),
            None,
        )
        .unwrap();
        assert_eq!(reports.len(), 1);
        // The final snapshot rides ahead of the result.
        let stats = reports[0].stats.as_ref().expect("final STATS frame");
        assert_eq!(stats.virt(VirtAcc::Compute), reports[0].local_time);
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
    fn worker_returns_without_waiting_out_the_heartbeat_period() {
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
            cfg.heartbeat = Duration::from_secs(5);
            let mut finished = None;
            run_worker(&cfg, |comm| {
                comm.advance_compute(10);
                finished = Some(Instant::now());
            })
            .unwrap();
            finished.expect("closure ran").elapsed()
        });
        // Hold the control socket open while the worker winds down.
        let _controls = rdv.coordinate(1, HANDSHAKE_TIMEOUT).unwrap();
        let tail = worker.join().unwrap();
        assert!(
            tail < Duration::from_secs(1),
            "heartbeat join took {tail:?}"
        );
    }

    /// A scripted worker for driver-side tests: completes the rendezvous as
    /// `rank` of `size`, then heartbeats `phase` with a fixed progress
    /// counter every 10 ms for `beat_for` (or until the driver closes the
    /// socket), then sends a `RESULT` if `report`.
    fn fake_worker(
        addr: SocketAddr,
        rank: u32,
        size: u64,
        phase: RankPhase,
        beat_for: Duration,
        report: bool,
    ) -> JoinHandle<()> {
        thread::spawn(move || {
            let mut control = TcpStream::connect(addr).unwrap();
            let mut hello = Frame::control(FrameKind::Hello, rank);
            hello.seq = size;
            hello.payload = b"127.0.0.1:1".to_vec();
            wire::write_frame(&mut control, &hello).unwrap();
            assert_eq!(
                wire::read_frame(&mut control).unwrap().kind,
                FrameKind::Addrs
            );
            let until = Instant::now() + beat_for;
            while Instant::now() < until {
                let mut beat = Frame::control(FrameKind::Progress, rank);
                beat.seq = 1;
                if let RankPhase::Blocked { from, tag } = phase {
                    beat.nominal = from as u64 + 1;
                    beat.tag = tag;
                }
                if wire::write_frame(&mut control, &beat).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(10));
            }
            if report {
                let mut result = Frame::control(FrameKind::Result, rank);
                result.ready_at = 1.0;
                wire::write_frame(&mut control, &result).unwrap();
                let _ = wire::read_frame(&mut control);
            }
        })
    }

    #[test]
    fn driver_watchdog_reports_workers_blocked_on_each_other() {
        let rdv = Rendezvous::bind().unwrap();
        let addr = rdv.addr();
        let beat = Duration::from_secs(30);
        let blocked = |from, tag| RankPhase::Blocked { from, tag };
        let fakes = [
            fake_worker(addr, 0, 2, blocked(1, 7), beat, false),
            fake_worker(addr, 1, 2, blocked(0, 9), beat, false),
        ];
        let controls = rdv.coordinate(2, HANDSHAKE_TIMEOUT).unwrap();
        let t0 = Instant::now();
        let err = collect_workers(
            controls,
            Some(Duration::from_secs(30)),
            Some(Duration::from_secs(10)),
            None,
        )
        .unwrap_err();
        let waited = t0.elapsed();
        match err {
            RunError::Deadlock {
                blocked_ranks,
                waiting_on,
            } => {
                assert_eq!(blocked_ranks, vec![0, 1]);
                assert_eq!(waiting_on, vec![(0, 1, 7), (1, 0, 9)]);
            }
            other => panic!("expected a deadlock, got {other}"),
        }
        assert!(waited >= DEADLOCK_WINDOW, "declared after {waited:?}");
        assert!(waited < Duration::from_secs(5), "declared after {waited:?}");
        // The driver shut the control sockets down, which ends the fakes.
        for fake in fakes {
            fake.join().unwrap();
        }
    }

    #[test]
    fn a_running_worker_is_not_read_as_deadlocked() {
        let rdv = Rendezvous::bind().unwrap();
        let addr = rdv.addr();
        // No progress counter ever moves, and rank 0 stays blocked on rank
        // 1 past the deadlock window; only rank 1's `Running` heartbeats
        // show the run is alive.
        let beat = Duration::from_millis(800);
        let blocked = RankPhase::Blocked { from: 1, tag: 3 };
        let fakes = [
            fake_worker(addr, 0, 2, blocked, beat, true),
            fake_worker(addr, 1, 2, RankPhase::Running, beat, true),
        ];
        let controls = rdv.coordinate(2, HANDSHAKE_TIMEOUT).unwrap();
        let reports = collect_workers(
            controls,
            Some(Duration::from_secs(30)),
            Some(Duration::from_secs(10)),
            None,
        )
        .unwrap();
        assert_eq!(reports.len(), 2);
        for fake in fakes {
            fake.join().unwrap();
        }
    }

    /// Run `f` on a thread and wait at most 2 s for its result.
    fn within_2s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = channel();
        let t = thread::spawn(move || {
            let _ = tx.send(f());
        });
        let out = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("did not return within 2 s");
        t.join().unwrap();
        out
    }

    #[test]
    fn rendezvous_times_out_naming_the_missing_rank() {
        let rdv = Rendezvous::bind().unwrap();
        let mut control = TcpStream::connect(rdv.addr()).unwrap();
        let mut hello = Frame::control(FrameKind::Hello, 0);
        hello.seq = 2;
        hello.payload = b"127.0.0.1:1".to_vec();
        wire::write_frame(&mut control, &hello).unwrap();
        let err = within_2s(move || rdv.coordinate(2, Duration::from_millis(200))).unwrap_err();
        assert!(
            err.to_string().contains("timed out waiting for ranks [1]"),
            "{err}"
        );
    }

    #[test]
    fn mesh_accept_times_out_naming_the_peer_that_never_dials() {
        // A wildcard listener: the deadline's wake-up dial goes to loopback.
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let mut dialer = TcpStream::connect(("127.0.0.1", port)).unwrap();
        wire::write_frame(&mut dialer, &Frame::control(FrameKind::Peer, 1)).unwrap();
        let err = within_2s(move || {
            let mut peers: Vec<Option<TcpStream>> = (0..3).map(|_| None).collect();
            let res = accept_peers(&listener, 0, &mut peers, Duration::from_millis(200));
            assert!(peers[1].is_some(), "rank 1 dialed in time");
            res
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("timed out waiting for ranks [2]"),
            "{err}"
        );
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
        assert_eq!(report.total(Counter::BytesSent), 16);
        assert_eq!(report.total(Counter::MessagesSent), 1);
    }
}
