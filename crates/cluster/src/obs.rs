//! Cluster-wide observability: structured span tracing, a per-rank metrics
//! registry, and Chrome-trace/Perfetto export.
//!
//! Every span carries both clocks, so this one recorder answers *"what
//! does the modelled machine do?"* and *"where do the ranks actually spend
//! their time?"* — and makes both inspectable outside the process:
//!
//! * [`MetricsRegistry`] — one lock-free slot of atomic counters, gauges and
//!   fixed-bucket histograms per rank, shared by `Arc` between the engine,
//!   the executor and the driver. Ranks never contend: each rank thread is
//!   the only writer of its own slot.
//! * [`Span`]s — structured phase intervals (lower, plan, compile-chain,
//!   compute, pack, send, recv, unpack, gather) carrying **both** wall-clock
//!   nanoseconds (from a shared epoch) and the engine's virtual-clock
//!   timestamps. Rank threads buffer spans locally and flush once at exit.
//! * [`MetricsRegistry::chrome_trace`] — trace-event JSON loadable in
//!   `chrome://tracing` / Perfetto: one pid per rank (rank *r* is pid
//!   `r + 1`; pid 0 is the driver/compiler), one tid lane per phase kind.
//! * [`RunReport`] — the per-rank compute/wait/comm split (which sums to
//!   each rank's virtual makespan exactly), utilization, traffic and tile
//!   counters, plus a human-readable text rendering.
//! * [`json`] — the one JSON value every artifact (metrics report, trace,
//!   `--stats-out` record, tuner outcome, figure and bench records) is
//!   built as, with its one printer and its one linear-time reader.
//!
//! Spans, gauges and histograms are opt-in: with `EngineOptions::obs ==
//! None` the engine and executor only ever test an `Option` that is
//! `None` for them (see `perf --obs-overhead`). The engine's counters and
//! virtual accumulators are the run's one account and are always kept —
//! in the registry's slot when the run observes, in a private
//! [`RankMetrics`] otherwise; a [`StatsSnapshot`] is their one read-side
//! form.

use json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The pid used for driver/compiler-side spans in the Chrome trace; rank
/// `r`'s spans live on pid `r + 1`.
pub const DRIVER_PID: u32 = 0;

/// Span taxonomy: one variant per pipeline phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Frontend: source text → loop-nest model.
    Lower,
    /// Plan construction: validation, HNF/FM tiled space, distribution,
    /// communication plan, LDS geometry.
    Plan,
    /// `CompiledChain` lowering (flat-index execution tables).
    CompileChain,
    /// A tile's kernel loop on a rank.
    Compute,
    /// Packing a communication region into a message payload.
    Pack,
    /// Message injection (engine-side).
    Send,
    /// Blocking receive (engine-side).
    Recv,
    /// Unpacking a received payload into the LDS.
    Unpack,
    /// A rank's output on its way to the global data space (driver-side):
    /// the driver's per-rank `gather` pass, and a TCP worker's `result`
    /// (encoding and sending its owned values).
    Gather,
    /// The sequential reference scan, on its own thread alongside the
    /// parallel run (driver-side, `--verify`).
    Verify,
    /// Waiting for the reference scan and diffing it bitwise against the
    /// gathered data (driver-side, `--verify`): the part of the scan the
    /// run did not hide, plus the diff.
    VerifyDiff,
    /// Draining the rank's comm lane under the overlapped strategy: the
    /// residual send/transit time not hidden behind interior compute.
    Overlap,
    /// Bringing up a multi-process run (driver-side, `--backend tcp`):
    /// spawning the worker processes (`spawn`) and waiting for all of them
    /// at the rendezvous (`rendezvous`).
    Launch,
}

impl Phase {
    /// Every phase, in declaration order.
    pub const ALL: [Phase; 13] = [
        Phase::Lower,
        Phase::Plan,
        Phase::CompileChain,
        Phase::Compute,
        Phase::Pack,
        Phase::Send,
        Phase::Recv,
        Phase::Unpack,
        Phase::Gather,
        Phase::Verify,
        Phase::VerifyDiff,
        Phase::Overlap,
        Phase::Launch,
    ];

    /// Stable snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Lower => "lower",
            Phase::Plan => "plan",
            Phase::CompileChain => "compile-chain",
            Phase::Compute => "compute",
            Phase::Pack => "pack",
            Phase::Send => "send",
            Phase::Recv => "recv",
            Phase::Unpack => "unpack",
            Phase::Gather => "gather",
            Phase::Verify => "verify",
            Phase::VerifyDiff => "verify-diff",
            Phase::Overlap => "overlap",
            Phase::Launch => "launch",
        }
    }

    /// The tid lane this phase renders on within its pid.
    pub fn lane(self) -> u32 {
        match self {
            Phase::Compute => 0,
            Phase::Recv => 1,
            Phase::Send => 2,
            Phase::Pack => 3,
            Phase::Unpack => 4,
            Phase::Overlap => 5,
            // Driver-side lanes (pid 0).
            Phase::Lower => 0,
            Phase::Plan => 1,
            Phase::CompileChain => 2,
            Phase::Gather => 3,
            Phase::Verify => 4,
            Phase::Launch => 5,
            Phase::VerifyDiff => 6,
        }
    }
}

/// The cross-rank dependence a send/recv span participates in: the peer
/// rank plus the envelope's `(tag, seq)` identity. A send span on rank *s*
/// with `peer = r` matches the recv span on rank *r* with `peer = s` and
/// the same `(tag, seq)` — together they form one edge of the run's
/// dependence graph, which the critical-path walker follows backward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEdge {
    /// The other endpoint's rank (receiver for send spans, sender for recv
    /// spans).
    pub peer: u32,
    /// The envelope's message tag.
    pub tag: i64,
    /// The envelope's per-link sequence number.
    pub seq: u64,
}

/// One traced interval. `virt` is the engine's virtual-clock interval in
/// seconds (absent for driver-side spans, which have no virtual clock).
#[derive(Clone, Debug)]
pub struct Span {
    /// The phase the span belongs to.
    pub phase: Phase,
    /// Event name (defaults to the phase name; driver spans may refine it,
    /// e.g. `"fourier-motzkin"` under [`Phase::Plan`]).
    pub name: &'static str,
    /// Chrome-trace pid: [`DRIVER_PID`] or `rank + 1`.
    pub pid: u32,
    /// Wall-clock start in nanoseconds since the registry epoch.
    pub wall_start_ns: u64,
    /// Wall-clock end in nanoseconds since the registry epoch.
    pub wall_end_ns: u64,
    /// Virtual-clock interval in seconds, when the span ran under the
    /// engine's virtual clock.
    pub virt: Option<(f64, f64)>,
    /// Phase-specific magnitude: iterations for compute, bytes for
    /// pack/send/recv/unpack, rank for gather, 0 otherwise.
    pub detail: u64,
    /// The cross-rank dependence for send/recv spans (`None` elsewhere).
    pub edge: Option<SpanEdge>,
}

/// Monotonically named counters, one cell per rank. Plain `u64` adds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Messages handed to the transport.
    MessagesSent,
    /// Nominal bytes of every sent message.
    BytesSent,
    /// Messages accepted by the receive path.
    MessagesReceived,
    /// Nominal bytes of every accepted message.
    BytesReceived,
    /// Transmission attempts repeated by the reliability layer.
    Retransmits,
    /// Envelopes discarded by receiver-side duplicate suppression.
    DupsSuppressed,
    /// Fault-plan drop decisions that fired.
    FaultDrops,
    /// Fault-plan duplicate decisions that fired.
    FaultDups,
    /// Fault-plan reorder decisions that fired.
    FaultReorders,
    /// Fault-plan delay decisions that fired.
    FaultDelays,
    /// Tiles executed.
    Tiles,
    /// Dense-interior tiles (compiled fast path, no bounds clamping).
    InteriorTiles,
    /// Boundary tiles (clamped against the iteration-space box).
    BoundaryTiles,
    /// Loop iterations executed.
    Iterations,
    /// Tiles dispatched through the compiled flat-index path.
    CompiledDispatches,
    /// Tiles dispatched through the per-point reference path.
    ReferenceDispatches,
    /// Iterations computed through batched affine-run kernel dispatches
    /// (the vectorized interior path) rather than per-point calls. A
    /// dispatch-shape counter like the two above: bitwise-identical
    /// strategies may legitimately differ on it.
    VectorizedPoints,
    /// Recovery checkpoints taken.
    Checkpoints,
    /// Crash recoveries performed (checkpoint restores / respawns).
    Recoveries,
    /// Checkpoint persistence operations (file writes on the TCP backend,
    /// in-memory snapshots on the threaded engine). Transport-level: not
    /// expected to agree bitwise across backends.
    CkptWrites,
    /// Bytes written by checkpoint persistence. Transport-level.
    CkptBytes,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 21;
    /// Every counter, in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::MessagesSent,
        Counter::BytesSent,
        Counter::MessagesReceived,
        Counter::BytesReceived,
        Counter::Retransmits,
        Counter::DupsSuppressed,
        Counter::FaultDrops,
        Counter::FaultDups,
        Counter::FaultReorders,
        Counter::FaultDelays,
        Counter::Tiles,
        Counter::InteriorTiles,
        Counter::BoundaryTiles,
        Counter::Iterations,
        Counter::CompiledDispatches,
        Counter::ReferenceDispatches,
        Counter::VectorizedPoints,
        Counter::Checkpoints,
        Counter::Recoveries,
        Counter::CkptWrites,
        Counter::CkptBytes,
    ];

    /// Stable snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MessagesSent => "messages_sent",
            Counter::BytesSent => "bytes_sent",
            Counter::MessagesReceived => "messages_received",
            Counter::BytesReceived => "bytes_received",
            Counter::Retransmits => "retransmits",
            Counter::DupsSuppressed => "dups_suppressed",
            Counter::FaultDrops => "fault_drops",
            Counter::FaultDups => "fault_dups",
            Counter::FaultReorders => "fault_reorders",
            Counter::FaultDelays => "fault_delays",
            Counter::Tiles => "tiles",
            Counter::InteriorTiles => "interior_tiles",
            Counter::BoundaryTiles => "boundary_tiles",
            Counter::Iterations => "iterations",
            Counter::CompiledDispatches => "compiled_dispatches",
            Counter::ReferenceDispatches => "reference_dispatches",
            Counter::VectorizedPoints => "vectorized_points",
            Counter::Checkpoints => "checkpoints",
            Counter::Recoveries => "recoveries",
            Counter::CkptWrites => "ckpt_writes",
            Counter::CkptBytes => "ckpt_write_bytes",
        }
    }
}

/// Level gauges: current value plus high-water mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GaugeId {
    /// Arrived-but-unmatched envelopes buffered by MPI-style tag matching.
    PendingDepth,
    /// Out-of-order arrivals awaiting re-sequencing.
    ResequenceDepth,
    /// Accepted sends not yet on the wire (reorder holdbacks).
    OutstandingSends,
    /// Wall nanoseconds the TCP backend spent establishing its full mesh
    /// (rendezvous + peer handshakes). Set once per run.
    ConnectNs,
    /// Envelopes retained in this rank's outgoing replay logs awaiting a
    /// receiver checkpoint ack (max over links; the high-water mark bounds
    /// the recovery replay window).
    ReplayLogDepth,
}

impl GaugeId {
    /// Number of gauge ids (update together with [`GaugeId::ALL`]).
    pub const COUNT: usize = 5;
    /// All gauge ids, in storage order.
    pub const ALL: [GaugeId; GaugeId::COUNT] = [
        GaugeId::PendingDepth,
        GaugeId::ResequenceDepth,
        GaugeId::OutstandingSends,
        GaugeId::ConnectNs,
        GaugeId::ReplayLogDepth,
    ];

    /// Stable export name of this gauge.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::PendingDepth => "pending_depth",
            GaugeId::ResequenceDepth => "resequence_depth",
            GaugeId::OutstandingSends => "outstanding_sends",
            GaugeId::ConnectNs => "connect_ns",
            GaugeId::ReplayLogDepth => "replay_log_depth",
        }
    }
}

/// Fixed-bucket wall-clock histograms (power-of-two nanosecond buckets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistId {
    /// Wall nanoseconds per tile's kernel loop.
    ComputeTileNs,
    /// Wall nanoseconds blocked in a receive (including tag-mismatch
    /// buffering of unrelated arrivals).
    RecvWaitNs,
    /// Wall nanoseconds packing one communication region.
    PackNs,
    /// Wall nanoseconds unpacking one payload.
    UnpackNs,
    /// Wall nanoseconds gathering one tile into the global data space.
    GatherNs,
    /// Wall nanoseconds encoding one envelope to wire bytes (TCP backend).
    SerializeNs,
    /// Wall nanoseconds decoding one wire frame back into an envelope
    /// (TCP backend; recorded by the reader thread).
    DeserializeNs,
    /// Wall nanoseconds per retransmission attempt (the reliability layer's
    /// re-injection latency, both backends).
    RetransNs,
}

impl HistId {
    /// Number of histogram ids (update together with [`HistId::ALL`]).
    pub const COUNT: usize = 8;
    /// All histogram ids, in storage order.
    pub const ALL: [HistId; HistId::COUNT] = [
        HistId::ComputeTileNs,
        HistId::RecvWaitNs,
        HistId::PackNs,
        HistId::UnpackNs,
        HistId::GatherNs,
        HistId::SerializeNs,
        HistId::DeserializeNs,
        HistId::RetransNs,
    ];

    /// Stable export name of this histogram.
    pub fn name(self) -> &'static str {
        match self {
            HistId::ComputeTileNs => "compute_tile_ns",
            HistId::RecvWaitNs => "recv_wait_ns",
            HistId::PackNs => "pack_ns",
            HistId::UnpackNs => "unpack_ns",
            HistId::GatherNs => "gather_ns",
            HistId::SerializeNs => "serialize_ns",
            HistId::DeserializeNs => "deserialize_ns",
            HistId::RetransNs => "retrans_ns",
        }
    }
}

/// Virtual-time accumulators; together they partition a rank's final
/// virtual clock exactly (see [`RunReport`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VirtAcc {
    /// `advance_compute` charges.
    Compute,
    /// True data-dependence waiting in receives.
    Wait,
    /// Sender-side injection cost (zero under the overlapped scheme).
    Send,
    /// Receiver-side per-message overhead (zero under overlapped).
    RecvOverhead,
    /// Retransmission backoff + repeated injections.
    Retrans,
    /// Injected stalls.
    Stall,
    /// Comm-lane overshoot paid when draining outstanding overlapped sends
    /// (the part of the lane that was *not* hidden behind compute).
    Drain,
    /// Comm-lane busy time hidden behind compute under the overlapped
    /// strategy. Informational: NOT part of the clock partition.
    OverlapHidden,
    /// Virtual time re-executed after a crash recovery, charged once when
    /// the rank settles its recovery debt at the end of the run.
    Recovery,
}

impl VirtAcc {
    /// Number of accumulators.
    pub const COUNT: usize = 9;
    /// Every accumulator, in index order.
    pub const ALL: [VirtAcc; VirtAcc::COUNT] = [
        VirtAcc::Compute,
        VirtAcc::Wait,
        VirtAcc::Send,
        VirtAcc::RecvOverhead,
        VirtAcc::Retrans,
        VirtAcc::Stall,
        VirtAcc::Drain,
        VirtAcc::OverlapHidden,
        VirtAcc::Recovery,
    ];

    /// Stable snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            VirtAcc::Compute => "compute_virt",
            VirtAcc::Wait => "wait_virt",
            VirtAcc::Send => "send_virt",
            VirtAcc::RecvOverhead => "recv_overhead_virt",
            VirtAcc::Retrans => "retrans_virt",
            VirtAcc::Stall => "stall_virt",
            VirtAcc::Drain => "drain_virt",
            VirtAcc::OverlapHidden => "overlap_hidden_virt",
            VirtAcc::Recovery => "recovery_virt",
        }
    }
}

/// Number of power-of-two histogram buckets: bucket `i` counts values in
/// `[2^i, 2^(i+1))` ns (bucket 0 also takes 0), the last bucket is
/// unbounded (≥ ~67 ms).
pub const HIST_BUCKETS: usize = 27;

/// A fixed-bucket histogram with atomic cells.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket index for a value: `floor(log2(v))` clamped to the range.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((63 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Record one value (thread-safe; cells are atomic).
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Every bucket's count, in index order (including empty buckets) —
    /// the raw shape [`StatsSnapshot`] captures and encodes.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// A level gauge: last set value and high-water mark.
pub struct Gauge {
    value: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Set the level, updating the high-water mark.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Last set value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// High-water mark.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
}

/// One rank's metrics slot. Counters and histograms are atomic so the slot
/// can be shared by `Arc`, but by construction each rank thread is the only
/// writer of its own slot — reads from the driver after the run race with
/// nothing.
pub struct RankMetrics {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [Gauge; GaugeId::COUNT],
    hists: [Histogram; HistId::COUNT],
    /// f64 accumulators stored as bits; single-writer, so load-add-store is
    /// race-free.
    virt: [AtomicU64; VirtAcc::COUNT],
}

impl RankMetrics {
    /// A zeroed slot.
    pub(crate) fn new() -> Self {
        RankMetrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| Gauge::new()),
            hists: std::array::from_fn(|_| Histogram::new()),
            virt: std::array::from_fn(|_| AtomicU64::new(0.0f64.to_bits())),
        }
    }

    /// Add `v` to counter `c`.
    pub fn add(&self, c: Counter, v: u64) {
        self.counters[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Overwrite counter `c` (single-writer discipline applies).
    pub fn set(&self, c: Counter, v: u64) {
        self.counters[c as usize].store(v, Ordering::Relaxed);
    }

    /// Rewind every counter and virtual accumulator onto a checkpoint
    /// snapshot (crash recovery; single-writer discipline applies). Gauges
    /// and histograms record wall-clock events that did happen and are
    /// left as they are.
    pub fn restore(&self, snap: &StatsSnapshot) {
        for (cell, &v) in self.counters.iter().zip(&snap.counters) {
            cell.store(v, Ordering::Relaxed);
        }
        for (cell, &v) in self.virt.iter().zip(&snap.virts) {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// The gauge cell for `g`.
    pub fn gauge(&self, g: GaugeId) -> &Gauge {
        &self.gauges[g as usize]
    }

    /// The histogram for `h`.
    pub fn hist(&self, h: HistId) -> &Histogram {
        &self.hists[h as usize]
    }

    /// Accumulate virtual seconds. Only the owning rank thread may call
    /// this (single-writer discipline).
    pub fn virt_add(&self, a: VirtAcc, dv: f64) {
        let cell = &self.virt[a as usize];
        let cur = f64::from_bits(cell.load(Ordering::Relaxed));
        cell.store((cur + dv).to_bits(), Ordering::Relaxed);
    }

    /// Current value of accumulator `a` in virtual seconds.
    pub fn virt_get(&self, a: VirtAcc) -> f64 {
        f64::from_bits(self.virt[a as usize].load(Ordering::Relaxed))
    }
}

/// The shared observability session: per-rank metrics slots, the collected
/// spans, and the wall-clock epoch every span timestamp is relative to.
pub struct MetricsRegistry {
    epoch: Instant,
    ranks: Mutex<Vec<Arc<RankMetrics>>>,
    spans: Mutex<Vec<Span>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} ranks)", self.rank_count())
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            epoch: Instant::now(),
            ranks: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl MetricsRegistry {
    /// A fresh shared registry with its epoch at "now".
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Nanoseconds since the registry epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The metrics slot for `rank`, growing the registry as needed.
    pub fn rank_metrics(&self, rank: usize) -> Arc<RankMetrics> {
        let mut ranks = self.ranks.lock().expect("obs registry poisoned");
        while ranks.len() <= rank {
            ranks.push(Arc::new(RankMetrics::new()));
        }
        ranks[rank].clone()
    }

    /// Number of rank slots allocated so far.
    pub fn rank_count(&self) -> usize {
        self.ranks.lock().expect("obs registry poisoned").len()
    }

    /// Snapshot of every rank slot.
    pub fn ranks(&self) -> Vec<Arc<RankMetrics>> {
        self.ranks.lock().expect("obs registry poisoned").clone()
    }

    /// Append a batch of rank spans (called by [`RankObs::flush`]).
    pub fn push_spans(&self, spans: &mut Vec<Span>) {
        if spans.is_empty() {
            return;
        }
        self.spans
            .lock()
            .expect("obs registry poisoned")
            .append(spans);
    }

    /// Record a driver-side span (no virtual clock) ending now.
    pub fn driver_span(&self, phase: Phase, name: &'static str, wall_start_ns: u64, detail: u64) {
        let span = Span {
            phase,
            name,
            pid: DRIVER_PID,
            wall_start_ns,
            wall_end_ns: self.now_ns(),
            virt: None,
            detail,
            edge: None,
        };
        self.spans.lock().expect("obs registry poisoned").push(span);
    }

    /// Snapshot of every collected span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("obs registry poisoned").clone()
    }

    /// Chrome trace-event JSON of every collected span, with `path`
    /// highlighted as flow arrows: one pid per rank, one tid per phase
    /// lane, rank lanes on the virtual clock and driver lanes on wall time
    /// (see `docs/observability.md`). Print it with `Display`.
    pub fn chrome_trace(&self, path: Option<&CriticalPath>) -> Json {
        chrome_trace(&self.spans(), path)
    }

    /// The dependency-true critical path of a finished run: walk the
    /// collected spans backward through send→recv edges from the slowest
    /// rank's final clock (see [`critical_path_from_spans`]).
    pub fn critical_path(&self, local_times: &[f64]) -> Option<CriticalPath> {
        critical_path_from_spans(&self.spans(), local_times)
    }

    /// Build the aggregated [`RunReport`] for a finished run with the given
    /// per-rank final virtual clocks.
    pub fn run_report(&self, local_times: &[f64]) -> RunReport {
        RunReport::from_registry(self, local_times)
    }
}

/// Per-rank observability handle owned by the engine's communication
/// endpoint: a metrics slot plus a local span buffer, flushed to the
/// registry when the rank finishes.
pub struct RankObs {
    rank: usize,
    reg: Arc<MetricsRegistry>,
    metrics: Arc<RankMetrics>,
    spans: Vec<Span>,
}

impl RankObs {
    /// The observability handle for `rank`, allocating its registry slot.
    pub fn new(reg: Arc<MetricsRegistry>, rank: usize) -> Self {
        let metrics = reg.rank_metrics(rank);
        RankObs {
            rank,
            reg,
            metrics,
            spans: Vec::new(),
        }
    }

    /// The rank this handle records for.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The underlying per-rank metric store, for helper threads that record
    /// on this rank's behalf (e.g. the TCP reader threads timing frame
    /// decodes). Counters, gauges and histograms are atomics and safe to
    /// update from any thread; the *virtual* accumulators are single-writer
    /// and must only be touched through [`RankObs::virt_add`] on the rank's
    /// own thread.
    pub fn metrics(&self) -> Arc<RankMetrics> {
        self.metrics.clone()
    }

    /// Nanoseconds since the registry epoch.
    pub fn now_ns(&self) -> u64 {
        self.reg.now_ns()
    }

    /// Add `v` to this rank's counter `c`.
    pub fn add(&self, c: Counter, v: u64) {
        self.metrics.add(c, v);
    }

    /// Record `ns` into this rank's histogram `h`.
    pub fn observe(&self, h: HistId, ns: u64) {
        self.metrics.hist(h).observe(ns);
    }

    /// Set this rank's gauge `g`.
    pub fn gauge_set(&self, g: GaugeId, v: u64) {
        self.metrics.gauge(g).set(v);
    }

    /// Accumulate virtual seconds into this rank's accumulator `a`.
    pub fn virt_add(&self, a: VirtAcc, dv: f64) {
        self.metrics.virt_add(a, dv);
    }

    /// Record a span ending now on this rank's pid.
    pub fn span(&mut self, phase: Phase, wall_start_ns: u64, virt: (f64, f64), detail: u64) {
        self.named_span(phase, phase.name(), wall_start_ns, virt, detail);
    }

    /// [`RankObs::span`] with a refined event name (e.g.
    /// `"compute-boundary"` / `"compute-interior"` under [`Phase::Compute`]).
    pub fn named_span(
        &mut self,
        phase: Phase,
        name: &'static str,
        wall_start_ns: u64,
        virt: (f64, f64),
        detail: u64,
    ) {
        let wall_end_ns = self.reg.now_ns();
        self.spans.push(Span {
            phase,
            name,
            pid: self.rank as u32 + 1,
            wall_start_ns,
            wall_end_ns,
            virt: Some(virt),
            detail,
            edge: None,
        });
    }

    /// [`RankObs::span`] carrying the cross-rank dependence identity of a
    /// send or receive, so the critical-path walker can match the two ends.
    pub fn edge_span(
        &mut self,
        phase: Phase,
        wall_start_ns: u64,
        virt: (f64, f64),
        detail: u64,
        edge: SpanEdge,
    ) {
        let wall_end_ns = self.reg.now_ns();
        self.spans.push(Span {
            phase,
            name: phase.name(),
            pid: self.rank as u32 + 1,
            wall_start_ns,
            wall_end_ns,
            virt: Some(virt),
            detail,
            edge: Some(edge),
        });
    }

    /// Push the buffered spans to the registry.
    pub fn flush(&mut self) {
        let mut spans = std::mem::take(&mut self.spans);
        self.reg.push_spans(&mut spans);
    }
}

impl Drop for RankObs {
    fn drop(&mut self) {
        self.flush();
    }
}

// ---------------------------------------------------------------------------
// StatsSnapshot: the STATS frame payload
// ---------------------------------------------------------------------------

/// One histogram's full state as captured by a [`StatsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Every bucket's count, in index order ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

/// A complete copy of one rank's [`RankMetrics`] state, as shipped in a
/// TCMP `STATS` frame and a checkpoint file: every counter, every virtual
/// accumulator (as `f64` bit patterns, so clocks survive the wire
/// bitwise), every gauge `(value, high-water)` pair and every histogram.
/// It is the one read-side form of a rank's accounts: the clock partition
/// ([`StatsSnapshot::compute_time`] and its siblings) is defined on it,
/// and the engines' run reports keep one per rank.
///
/// On the wire a snapshot is always absolute ([`StatsSnapshot::encode`]),
/// so a decoder needs no baseline and a rewound rank (checkpoint restore)
/// needs no special case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// One value per [`Counter`], in [`Counter::ALL`] order.
    pub counters: Vec<u64>,
    /// One `f64` bit pattern per [`VirtAcc`], in [`VirtAcc::ALL`] order.
    pub virts: Vec<u64>,
    /// One `(value, max)` pair per [`GaugeId`], in [`GaugeId::ALL`] order.
    pub gauges: Vec<(u64, u64)>,
    /// One [`HistSnapshot`] per [`HistId`], in [`HistId::ALL`] order.
    pub hists: Vec<HistSnapshot>,
}

/// Append `v` as unsigned LEB128.
fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Read one unsigned LEB128 value, advancing `*i`.
fn get_uvarint(buf: &[u8], i: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*i)
            .ok_or_else(|| format!("stats payload truncated at byte {}", *i))?;
        *i += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(format!("stats varint overflows u64 at byte {}", *i));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl StatsSnapshot {
    /// The all-zero snapshot: the accounts of a rank that has done nothing.
    pub fn zero() -> StatsSnapshot {
        StatsSnapshot {
            counters: vec![0; Counter::COUNT],
            virts: vec![0.0f64.to_bits(); VirtAcc::COUNT],
            gauges: vec![(0, 0); GaugeId::COUNT],
            hists: vec![
                HistSnapshot {
                    count: 0,
                    sum: 0,
                    buckets: vec![0; HIST_BUCKETS],
                };
                HistId::COUNT
            ],
        }
    }

    /// Capture the current state of one rank's metrics slot. Values are
    /// read with relaxed atomics: mid-run captures are a consistent-enough
    /// telemetry view, and the final capture (after the rank finished) is
    /// exact because the slot is single-writer.
    pub fn capture(m: &RankMetrics) -> StatsSnapshot {
        StatsSnapshot {
            counters: Counter::ALL.iter().map(|&c| m.get(c)).collect(),
            virts: VirtAcc::ALL
                .iter()
                .map(|&a| m.virt_get(a).to_bits())
                .collect(),
            gauges: GaugeId::ALL
                .iter()
                .map(|&g| (m.gauge(g).value(), m.gauge(g).max()))
                .collect(),
            hists: HistId::ALL
                .iter()
                .map(|&h| {
                    let hist = m.hist(h);
                    HistSnapshot {
                        count: hist.count(),
                        sum: hist.sum(),
                        buckets: hist.buckets().to_vec(),
                    }
                })
                .collect(),
        }
    }

    /// One counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One virtual accumulator's value in virtual seconds.
    pub fn virt(&self, a: VirtAcc) -> f64 {
        f64::from_bits(self.virts[a as usize])
    }

    /// Virtual seconds computing: the `Compute` term of the clock
    /// partition. The four terms — compute, [`StatsSnapshot::wait_time`],
    /// [`StatsSnapshot::comm_time`] and [`StatsSnapshot::recovery_time`] —
    /// are the one definition of the split and sum to the rank's clock;
    /// `OverlapHidden` is informational and outside the partition.
    pub fn compute_time(&self) -> f64 {
        self.virt(VirtAcc::Compute)
    }

    /// Virtual seconds blocked on data dependences: `Wait + Stall`.
    pub fn wait_time(&self) -> f64 {
        self.virt(VirtAcc::Wait) + self.virt(VirtAcc::Stall)
    }

    /// Virtual seconds of communication CPU cost: send injection, receive
    /// overhead, retransmission charges and overlapped-lane drains.
    pub fn comm_time(&self) -> f64 {
        self.virt(VirtAcc::Send)
            + self.virt(VirtAcc::RecvOverhead)
            + self.virt(VirtAcc::Retrans)
            + self.virt(VirtAcc::Drain)
    }

    /// Virtual seconds of re-execution charged to crash recovery:
    /// `local_time - recovery_time` is the fault-free clock.
    pub fn recovery_time(&self) -> f64 {
        self.virt(VirtAcc::Recovery)
    }

    /// The rank's current virtual clock, reconstructed from the partition
    /// invariant: every clock advance is charged to exactly one of its four
    /// terms, so their sum *is* the clock — no separate clock cell has to
    /// travel with the snapshot.
    pub fn local_clock(&self) -> f64 {
        self.compute_time() + self.wait_time() + self.comm_time() + self.recovery_time()
    }

    /// Encode this snapshot as the `STATS` payload: LEB128 of every field
    /// in declaration order (counters, virts as bit patterns, gauge pairs,
    /// then each histogram's count, sum and buckets).
    pub fn encode(&self) -> Vec<u8> {
        let gauges = self.gauges.iter().flat_map(|&(v, max)| [v, max]);
        let hists = (self.hists.iter()).flat_map(|h| {
            [h.count, h.sum]
                .into_iter()
                .chain(h.buckets.iter().copied())
        });
        let mut out = Vec::with_capacity(320);
        for v in (self.counters.iter().chain(&self.virts).copied())
            .chain(gauges)
            .chain(hists)
        {
            put_uvarint(&mut out, v);
        }
        out
    }

    /// Decode a payload produced by [`StatsSnapshot::encode`]. Rejects
    /// truncated, overflowing and oversized payloads with a typed message;
    /// both sides are the same binary, so the field counts are implicit.
    pub fn decode(payload: &[u8]) -> Result<StatsSnapshot, String> {
        let mut i = 0usize;
        let mut next = || get_uvarint(payload, &mut i);
        let mut snap = StatsSnapshot::zero();
        for v in snap.counters.iter_mut().chain(&mut snap.virts) {
            *v = next()?;
        }
        for (v, max) in &mut snap.gauges {
            *v = next()?;
            *max = next()?;
        }
        for h in &mut snap.hists {
            h.count = next()?;
            h.sum = next()?;
            for b in &mut h.buckets {
                *b = next()?;
            }
        }
        if i != payload.len() {
            return Err(format!(
                "stats payload has {} trailing bytes after the last field",
                payload.len() - i
            ));
        }
        Ok(snap)
    }
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Chrome trace-event JSON (`ph:"X"` complete events plus process/
/// thread-name metadata) of `spans`. One pid per rank, one tid per phase
/// lane. Rank lanes run on the virtual clock (µs = virtual seconds × 10⁶);
/// driver lanes, which have none, on wall time since the registry epoch.
/// Every event keeps its wall interval in `args`. With `path`, every
/// cross-rank hop of the critical path becomes a Perfetto `s`/`f` flow
/// arrow (category `critical-path`) from the sender's send lane to the
/// receiver's recv lane at the hand-off instant.
fn chrome_trace(spans: &[Span], path: Option<&CriticalPath>) -> Json {
    // Metadata: name each pid and each (pid, lane) we are about to emit.
    let mut pids: Vec<u32> = spans.iter().map(|s| s.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    let mut lanes: Vec<(u32, u32, &'static str)> = spans
        .iter()
        .map(|s| (s.pid, s.phase.lane(), s.phase.name()))
        .collect();
    lanes.sort_unstable();
    lanes.dedup_by_key(|l| (l.0, l.1));
    let meta = |kind: &str, pid: u32, tid: u32, name: String| {
        Json::obj([
            ("name", kind.into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("tid", tid.into()),
            ("args", Json::obj([("name", name.into())])),
        ])
    };
    let mut events: Vec<Json> = pids
        .iter()
        .map(|&pid| match pid {
            DRIVER_PID => meta("process_name", pid, 0, "driver".into()),
            _ => meta("process_name", pid, 0, format!("rank {}", pid - 1)),
        })
        .collect();
    events.extend(
        lanes
            .iter()
            .map(|&(pid, lane, name)| meta("thread_name", pid, lane, name.into())),
    );
    for s in spans {
        let wall_dur = s.wall_end_ns.saturating_sub(s.wall_start_ns);
        let (ts, dur) = match s.virt {
            Some((v0, v1)) => (v0 * 1e6, (v1 - v0).max(0.0) * 1e6),
            None => (s.wall_start_ns as f64 / 1e3, wall_dur as f64 / 1e3),
        };
        let mut args = vec![
            ("detail", s.detail.into()),
            ("wall_start_ns", s.wall_start_ns.into()),
            ("wall_dur_ns", wall_dur.into()),
        ];
        if let Some((v0, v1)) = s.virt {
            args.extend([("virt_start_s", v0.into()), ("virt_end_s", v1.into())]);
        }
        events.push(Json::obj([
            ("name", s.name.into()),
            ("cat", s.phase.name().into()),
            ("ph", "X".into()),
            ("pid", s.pid.into()),
            ("tid", s.phase.lane().into()),
            ("ts", ts.into()),
            ("dur", dur.into()),
            ("args", Json::obj(args)),
        ]));
    }
    let hand_offs = path
        .into_iter()
        .flat_map(|cp| &cp.hops)
        .filter_map(|h| Some((h.from_rank?, h)));
    for (id, (from, h)) in (1u64..).zip(hand_offs) {
        let flow = |ph: &str, rank: usize, lane: u32| {
            let bp = (ph == "f").then(|| ("bp", "e".into()));
            Json::obj(
                [
                    ("name", "critical-path".into()),
                    ("cat", "critical-path".into()),
                    ("ph", ph.into()),
                    ("id", id.into()),
                    ("pid", (rank as u32 + 1).into()),
                    ("tid", lane.into()),
                    ("ts", (h.start * 1e6).into()),
                ]
                .into_iter()
                .chain(bp),
            )
        };
        events.push(flow("s", from, Phase::Send.lane()));
        events.push(flow("f", h.rank, Phase::Recv.lane()));
    }
    Json::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
    ])
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

/// One hop of the dependency-true critical path: the half-open virtual
/// interval `(start, end]` during which `rank` was the binding constraint
/// on the run's completion.
#[derive(Clone, Debug)]
pub struct CriticalHop {
    /// The rank the path runs on during this hop.
    pub rank: usize,
    /// What the rank was doing: a [`Phase::name`], or `"idle"` (between
    /// recorded spans) / `"origin"` (before the rank's first span).
    pub phase: &'static str,
    /// Virtual start of the hop (exclusive).
    pub start: f64,
    /// Virtual end of the hop (inclusive).
    pub end: f64,
    /// `Some(sender)` when this hop was entered through a send→recv edge:
    /// the hop starts the instant `sender`'s matched send completed.
    pub from_rank: Option<usize>,
}

impl CriticalHop {
    /// The hop's virtual duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The longest dependency chain of a run: a sequence of hops that tiles
/// `(0, makespan]` exactly, following send→recv edges across ranks. Unlike
/// the "slowest rank" approximation, the chain shows *which* rank bound
/// the run during every interval and where the hand-offs happened.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// The hops in chronological order; consecutive hops share a boundary
    /// (`hops[k].end == hops[k+1].start`), so the durations telescope.
    pub hops: Vec<CriticalHop>,
    /// The chain's total length in virtual seconds — the makespan, since
    /// the chain tiles `(0, makespan]`. Always ≥ the slowest rank's clock.
    pub length: f64,
}

/// Walk the recorded spans backward from the slowest rank's final clock,
/// following matched send→recv [`SpanEdge`]s to produce the true longest
/// dependency chain. Returns `None` without rank spans to walk (e.g. a
/// multi-process driver registry, which only holds driver-side spans).
pub fn critical_path_from_spans(spans: &[Span], local_times: &[f64]) -> Option<CriticalPath> {
    use std::collections::HashMap;
    let n = local_times.len();
    if n == 0 {
        return None;
    }
    let mut by_rank: Vec<Vec<&Span>> = vec![Vec::new(); n];
    // (sender, receiver, tag, seq) → the send span's virtual end.
    let mut sends: HashMap<(usize, u32, i64, u64), f64> = HashMap::new();
    for s in spans {
        if s.pid == DRIVER_PID {
            continue;
        }
        let rank = (s.pid - 1) as usize;
        if rank >= n || s.virt.is_none() {
            continue;
        }
        if s.phase == Phase::Send {
            if let Some(e) = s.edge {
                sends.insert((rank, e.peer, e.tag, e.seq), s.virt.expect("filtered").1);
            }
        }
        by_rank[rank].push(s);
    }
    if by_rank.iter().all(|v| v.is_empty()) {
        return None;
    }
    for v in &mut by_rank {
        v.sort_by(|a, b| {
            let (a0, a1) = a.virt.expect("filtered");
            let (b0, b1) = b.virt.expect("filtered");
            a1.total_cmp(&b1).then(a0.total_cmp(&b0))
        });
    }
    let (start_rank, start_t) = local_times
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(r, &t)| (r, t))?;
    let mut rank = start_rank;
    let mut t = start_t;
    let mut rev: Vec<CriticalHop> = Vec::new();
    // Every iteration pushes one hop that strictly decreases `t`, and each
    // hop is anchored at a span boundary, so the walk terminates; the cap
    // is pure defense against malformed span data.
    let cap = 2 * spans.len() + n + 16;
    'walk: while t > 0.0 && rev.len() < cap {
        for s in by_rank[rank].iter().rev() {
            let (v0, v1) = s.virt.expect("filtered");
            if v1 > t {
                continue;
            }
            if v1 < t {
                // Nothing recorded on this rank in (v1, t]: it sat idle
                // (e.g. finished early and the makespan is another rank's).
                rev.push(CriticalHop {
                    rank,
                    phase: "idle",
                    start: v1,
                    end: t,
                    from_rank: None,
                });
                t = v1;
                continue 'walk;
            }
            // v1 == t. A receive whose matched send completed *after* this
            // rank started waiting hands the path to the sender: during
            // (send_end, t] the binding constraint was message delivery.
            if s.phase == Phase::Recv {
                if let Some(e) = s.edge {
                    let key = (e.peer as usize, rank as u32, e.tag, e.seq);
                    if let Some(&send_end) = sends.get(&key) {
                        if send_end < t && send_end > v0 {
                            rev.push(CriticalHop {
                                rank,
                                phase: s.phase.name(),
                                start: send_end,
                                end: t,
                                from_rank: Some(e.peer as usize),
                            });
                            rank = e.peer as usize;
                            t = send_end;
                            continue 'walk;
                        }
                    }
                }
            }
            if v0 < t {
                rev.push(CriticalHop {
                    rank,
                    phase: s.phase.name(),
                    start: v0,
                    end: t,
                    from_rank: None,
                });
                t = v0;
                continue 'walk;
            }
            // A zero-length span exactly at `t` cannot advance the walk;
            // keep scanning earlier spans.
        }
        // No span reaches further back: the remainder is this rank's
        // pre-span time (model setup before its first recorded phase).
        rev.push(CriticalHop {
            rank,
            phase: "origin",
            start: 0.0,
            end: t,
            from_rank: None,
        });
        t = 0.0;
    }
    rev.reverse();
    // Merge runs of same-rank same-phase hops (a long local stretch walks
    // as one hop per span; the report wants the stretch).
    let mut hops: Vec<CriticalHop> = Vec::new();
    for h in rev {
        match hops.last_mut() {
            Some(last)
                if last.rank == h.rank
                    && last.phase == h.phase
                    && h.from_rank.is_none()
                    && last.end == h.start =>
            {
                last.end = h.end;
            }
            _ => hops.push(h),
        }
    }
    Some(CriticalPath {
        hops,
        length: start_t,
    })
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

/// The `schema` tag of a serialized [`RunReport`].
pub const METRICS_SCHEMA: &str = "tilecc-metrics-v1";

/// One histogram's aggregated view: `(id, count, sum, non-empty buckets)`
/// where each bucket is `(floor, count)`.
pub type HistReport = (HistId, u64, u64, Vec<(u64, u64)>);

/// One rank's aggregated view.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// The rank this row describes.
    pub rank: usize,
    /// The rank's final virtual clock.
    pub local_time: f64,
    /// Virtual seconds computing.
    pub compute: f64,
    /// Virtual seconds blocked on data dependences (incl. injected stalls).
    pub wait: f64,
    /// Virtual seconds of communication CPU cost: send injection, receive
    /// overhead, retransmission charges and overlapped-lane drains.
    pub comm: f64,
    /// Virtual seconds re-executed after crash recoveries (zero on a
    /// recovery-free run); `local_time - recovery` is the fault-free clock.
    pub recovery: f64,
    /// Virtual seconds of comm-lane time hidden behind compute under the
    /// overlapped strategy (informational; not part of the partition).
    pub overlap_hidden: f64,
    /// `compute / local_time` (0 for an idle rank).
    pub utilization: f64,
    /// `(counter, value)` for every counter.
    pub counters: Vec<(Counter, u64)>,
    /// `(gauge, value, high-water mark)` for every gauge.
    pub gauges: Vec<(GaugeId, u64, u64)>,
    /// `(hist, count, sum, non-empty buckets)` for every histogram.
    pub hists: Vec<HistReport>,
}

/// The whole run, aggregated from the registry. Per rank,
/// `compute + wait + comm + recovery == local_time` exactly (the virtual
/// accumulators partition every clock advance; `recovery` is zero unless a
/// crash was recovered).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// One row per rank, in rank order.
    pub ranks: Vec<RankReport>,
    /// Virtual makespan: the latest local clock.
    pub makespan: f64,
    /// The dependency-true critical path, when spans with edges were
    /// available to walk (attach with [`RunReport::with_critical_path`]).
    pub critical_path: Option<CriticalPath>,
}

impl RunReport {
    /// Aggregate the registry's metrics into per-rank rows, pairing each
    /// rank with its final virtual clock: [`RunReport::from_snapshots`]
    /// over a [`StatsSnapshot::capture`] of every rank slot.
    pub fn from_registry(reg: &MetricsRegistry, local_times: &[f64]) -> RunReport {
        let snaps: Vec<StatsSnapshot> = reg
            .ranks()
            .iter()
            .map(|m| StatsSnapshot::capture(m))
            .collect();
        RunReport::from_snapshots(&snaps, local_times)
    }

    /// Attach (or clear) the dependency-true critical path. Kept out of
    /// [`RunReport::from_registry`] so the JSON of a snapshot-merged report
    /// and a registry-built report stay byte-identical by default.
    pub fn with_critical_path(mut self, path: Option<CriticalPath>) -> RunReport {
        self.critical_path = path;
        self
    }

    /// Build the aggregated report from per-rank [`StatsSnapshot`]s — the
    /// multi-process driver's merge path and the one report builder:
    /// [`RunReport::from_registry`] captures the live registry and calls
    /// this, so merging the final absolute snapshots of a run yields a
    /// report **bitwise identical** to the registry-built one
    /// (fuzz-checked). Ranks without a snapshot report zeros.
    pub fn from_snapshots(snaps: &[StatsSnapshot], local_times: &[f64]) -> RunReport {
        let zero = StatsSnapshot::zero();
        let mut ranks = Vec::with_capacity(local_times.len());
        for (rank, &local_time) in local_times.iter().enumerate() {
            let m = snaps.get(rank).unwrap_or(&zero);
            ranks.push(RankReport {
                rank,
                local_time,
                compute: m.compute_time(),
                wait: m.wait_time(),
                comm: m.comm_time(),
                recovery: m.recovery_time(),
                overlap_hidden: m.virt(VirtAcc::OverlapHidden),
                utilization: if local_time > 0.0 {
                    m.compute_time() / local_time
                } else {
                    0.0
                },
                counters: Counter::ALL.iter().map(|&c| (c, m.counter(c))).collect(),
                gauges: GaugeId::ALL
                    .iter()
                    .map(|&g| {
                        let (v, mx) = m.gauges[g as usize];
                        (g, v, mx)
                    })
                    .collect(),
                hists: HistId::ALL
                    .iter()
                    .map(|&h| {
                        let hs = &m.hists[h as usize];
                        let buckets = hs
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(i, &c)| {
                                (c > 0).then_some((if i == 0 { 0 } else { 1u64 << i }, c))
                            })
                            .collect();
                        (h, hs.count, hs.sum, buckets)
                    })
                    .collect(),
            });
        }
        let makespan = local_times.iter().copied().fold(0.0, f64::max);
        RunReport {
            ranks,
            makespan,
            critical_path: None,
        }
    }

    /// Compare the *deterministic* subset of two reports — everything the
    /// virtual-time model pins down bitwise across backends: the makespan
    /// bits, every rank's clock-partition terms and utilization bits, and
    /// every logical counter. Wall-clock artifacts (histograms, gauge
    /// levels) and transport-local counters ([`Counter::CkptWrites`],
    /// [`Counter::CkptBytes`]) legitimately differ between a threaded and
    /// a multi-process run and are excluded. Returns one message per
    /// mismatch; empty means the reports agree.
    pub fn deterministic_diff(&self, other: &RunReport) -> Vec<String> {
        let mut diffs = Vec::new();
        if self.ranks.len() != other.ranks.len() {
            diffs.push(format!(
                "rank count: {} vs {}",
                self.ranks.len(),
                other.ranks.len()
            ));
            return diffs;
        }
        if self.makespan.to_bits() != other.makespan.to_bits() {
            diffs.push(format!(
                "makespan: {:.9} vs {:.9}",
                self.makespan, other.makespan
            ));
        }
        for (a, b) in self.ranks.iter().zip(&other.ranks) {
            let fields = [
                ("local_time", a.local_time, b.local_time),
                ("compute", a.compute, b.compute),
                ("wait", a.wait, b.wait),
                ("comm", a.comm, b.comm),
                ("recovery", a.recovery, b.recovery),
                ("overlap_hidden", a.overlap_hidden, b.overlap_hidden),
                ("utilization", a.utilization, b.utilization),
            ];
            for (name, x, y) in fields {
                if x.to_bits() != y.to_bits() {
                    diffs.push(format!("rank {} {}: {:.9} vs {:.9}", a.rank, name, x, y));
                }
            }
            for (&(c, x), &(_, y)) in a.counters.iter().zip(&b.counters) {
                if matches!(c, Counter::CkptWrites | Counter::CkptBytes) {
                    continue;
                }
                if x != y {
                    diffs.push(format!("rank {} {}: {} vs {}", a.rank, c.name(), x, y));
                }
            }
        }
        diffs
    }

    /// Sum of one counter across all ranks.
    pub fn total(&self, c: Counter) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.counters[c as usize].1)
            .sum::<u64>()
    }

    /// The rank with the latest local clock (the critical path), if any.
    pub fn slowest_rank(&self) -> Option<&RankReport> {
        self.ranks
            .iter()
            .max_by(|a, b| a.local_time.total_cmp(&b.local_time))
    }

    /// The `tilecc-metrics-v1` document (see `docs/observability.md`);
    /// written in the pretty form. Every `f64` prints in its shortest
    /// round-trip form, so [`RunReport::from_json`] rebuilds the report
    /// exactly.
    pub fn to_json(&self) -> Json {
        let mut doc = vec![
            ("schema", METRICS_SCHEMA.into()),
            ("makespan", self.makespan.into()),
        ];
        if let Some(cp) = &self.critical_path {
            let hops = cp.hops.iter().map(|h| {
                Json::obj([
                    ("rank", h.rank.into()),
                    ("phase", h.phase.into()),
                    ("start", h.start.into()),
                    ("end", h.end.into()),
                    ("from_rank", h.from_rank.map_or(Json::Null, Json::from)),
                ])
            });
            doc.push((
                "critical_path",
                Json::obj([("length", cp.length.into()), ("hops", hops.collect())]),
            ));
        }
        let ranks = self.ranks.iter().map(|r| {
            let counters = r.counters.iter().map(|&(c, v)| (c.name(), v.into()));
            let gauges = r.gauges.iter().map(|&(g, v, mx)| {
                (
                    g.name(),
                    Json::obj([("value", v.into()), ("max", mx.into())]),
                )
            });
            let hists = r.hists.iter().map(|(h, count, sum, buckets)| {
                let buckets = buckets.iter().map(|&(lo, c)| Json::from_iter([lo, c]));
                let hist = Json::obj([
                    ("count", (*count).into()),
                    ("sum", (*sum).into()),
                    ("buckets", buckets.collect()),
                ]);
                (h.name(), hist)
            });
            Json::obj([
                ("rank", r.rank.into()),
                ("local_time", r.local_time.into()),
                ("compute", r.compute.into()),
                ("wait", r.wait.into()),
                ("comm", r.comm.into()),
                ("recovery", r.recovery.into()),
                ("overlap_hidden", r.overlap_hidden.into()),
                ("utilization", r.utilization.into()),
                ("counters", Json::obj(counters)),
                ("gauges", Json::obj(gauges)),
                ("histograms", Json::obj(hists)),
            ])
        });
        doc.push(("ranks", ranks.collect()));
        Json::obj(doc)
    }

    /// Parse a saved `tilecc-metrics-v1` document: the inverse of
    /// [`RunReport::to_json`], so `from_json(s)` prints back to `s` for
    /// every file this build writes. Older files load too: values rounded
    /// to fewer digits read as written, and a missing counter, gauge,
    /// histogram or clock term reads as zero.
    pub fn from_json(src: &str) -> Result<RunReport, String> {
        let j = json::parse(src)?;
        let schema = j.get("schema").and_then(Json::as_str);
        if schema != Some(METRICS_SCHEMA) {
            return Err(format!(
                "unsupported metrics schema {schema:?} (expected \"{METRICS_SCHEMA}\")"
            ));
        }
        let makespan = j
            .get("makespan")
            .and_then(Json::as_f64)
            .ok_or("missing makespan")?;
        // Absent fields (and absent objects) read as zero.
        let num = |o: Option<&Json>, k: &str| {
            o.and_then(|o| o.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let int = |o: Option<&Json>, k: &str| {
            o.and_then(|o| o.get(k)).and_then(Json::as_u64).unwrap_or(0)
        };
        let critical_path = match j.get("critical_path") {
            None => None,
            Some(cp) => {
                let mut hops = Vec::new();
                for h in cp.get("hops").and_then(Json::as_arr).unwrap_or(&[]) {
                    let name = h.get("phase").and_then(Json::as_str).unwrap_or("?");
                    let phase = Phase::ALL
                        .iter()
                        .map(|p| p.name())
                        .chain(["idle", "origin"])
                        .find(|&p| p == name)
                        .ok_or_else(|| format!("unknown critical-path phase `{name}`"))?;
                    hops.push(CriticalHop {
                        rank: int(Some(h), "rank") as usize,
                        phase,
                        start: num(Some(h), "start"),
                        end: num(Some(h), "end"),
                        from_rank: h
                            .get("from_rank")
                            .and_then(Json::as_u64)
                            .map(|r| r as usize),
                    });
                }
                let length = num(Some(cp), "length");
                Some(CriticalPath { hops, length })
            }
        };
        let rows = j
            .get("ranks")
            .and_then(Json::as_arr)
            .ok_or("missing ranks")?;
        let mut ranks = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let r = Some(row);
            let (counters, gauges, hists) = (
                row.get("counters"),
                row.get("gauges"),
                row.get("histograms"),
            );
            let mut hist_rows = Vec::with_capacity(HistId::COUNT);
            for h in HistId::ALL {
                let o = hists.and_then(|o| o.get(h.name()));
                let mut buckets = Vec::new();
                for b in o
                    .and_then(|o| o.get("buckets"))
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                {
                    let pair = b.as_arr().and_then(|p| match p {
                        [lo, c] => Some((lo.as_u64()?, c.as_u64()?)),
                        _ => None,
                    });
                    buckets.push(
                        pair.ok_or_else(|| format!("bad `{}` bucket in rank {i}", h.name()))?,
                    );
                }
                hist_rows.push((h, int(o, "count"), int(o, "sum"), buckets));
            }
            ranks.push(RankReport {
                rank: row
                    .get("rank")
                    .and_then(Json::as_u64)
                    .map_or(i, |x| x as usize),
                local_time: num(r, "local_time"),
                compute: num(r, "compute"),
                wait: num(r, "wait"),
                comm: num(r, "comm"),
                recovery: num(r, "recovery"),
                overlap_hidden: num(r, "overlap_hidden"),
                utilization: num(r, "utilization"),
                counters: Counter::ALL
                    .iter()
                    .map(|&c| (c, int(counters, c.name())))
                    .collect(),
                gauges: GaugeId::ALL
                    .iter()
                    .map(|&g| {
                        let o = gauges.and_then(|o| o.get(g.name()));
                        (g, int(o, "value"), int(o, "max"))
                    })
                    .collect(),
                hists: hist_rows,
            });
        }
        Ok(RunReport {
            ranks,
            makespan,
            critical_path,
        })
    }

    /// Human-readable summary: utilization, compute/wait/comm split, wire
    /// traffic, tile mix and the slowest-rank critical path.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let n = self.ranks.len();
        let _ = writeln!(
            out,
            "run report: {n} rank{}, makespan {:.6} s",
            if n == 1 { "" } else { "s" },
            self.makespan
        );
        let (mut tc, mut tw, mut tm, mut tt) = (0.0, 0.0, 0.0, 0.0);
        for r in &self.ranks {
            tc += r.compute;
            tw += r.wait;
            tm += r.comm;
            tt += r.local_time;
        }
        if tt > 0.0 {
            let _ = writeln!(
                out,
                "  split      : compute {:.1}%  wait {:.1}%  comm {:.1}%  (of total rank time)",
                100.0 * tc / tt,
                100.0 * tw / tt,
                100.0 * tm / tt
            );
            let _ = writeln!(
                out,
                "  utilization: {:.1}% mean over ranks",
                100.0 * self.ranks.iter().map(|r| r.utilization).sum::<f64>() / n.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "  traffic    : {} messages, {} bytes on the wire, {} retransmits, {} dups suppressed",
            self.total(Counter::MessagesSent),
            self.total(Counter::BytesSent),
            self.total(Counter::Retransmits),
            self.total(Counter::DupsSuppressed),
        );
        let _ = writeln!(
            out,
            "  tiles      : {} ({} interior, {} boundary), {} iterations",
            self.total(Counter::Tiles),
            self.total(Counter::InteriorTiles),
            self.total(Counter::BoundaryTiles),
            self.total(Counter::Iterations),
        );
        let vectorized = self.total(Counter::VectorizedPoints);
        if vectorized > 0 {
            let iters = self.total(Counter::Iterations).max(1);
            let _ = writeln!(
                out,
                "  vectorized : {vectorized} iterations through batched runs ({:.1}%)",
                100.0 * vectorized as f64 / iters as f64
            );
        }
        let hidden: f64 = self.ranks.iter().map(|r| r.overlap_hidden).sum();
        if hidden > 0.0 {
            let _ = writeln!(
                out,
                "  overlap    : {hidden:.6} s of comm-lane time hidden behind compute"
            );
        }
        let recoveries = self.total(Counter::Recoveries);
        if recoveries > 0 {
            let rec: f64 = self.ranks.iter().map(|r| r.recovery).sum();
            let _ = writeln!(
                out,
                "  recovery   : {recoveries} recoveries, {rec:.6} s re-executed ({} checkpoints)",
                self.total(Counter::Checkpoints)
            );
        }
        if let Some(cp) = &self.critical_path {
            let cross = cp.hops.iter().filter(|h| h.from_rank.is_some()).count();
            let _ = writeln!(
                out,
                "  critical   : {:.6} s dependency chain, {} hops ({} cross-rank)",
                cp.length,
                cp.hops.len(),
                cross
            );
            const SHOWN: usize = 16;
            for h in cp.hops.iter().take(SHOWN) {
                let via = match h.from_rank {
                    Some(s) => format!("  <- rank {s}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "    {:>12.6} .. {:>12.6}  rank {:>3}  {:<8} {:.6} s{}",
                    h.start,
                    h.end,
                    h.rank,
                    h.phase,
                    h.duration(),
                    via
                );
            }
            if cp.hops.len() > SHOWN {
                let rest: f64 = cp.hops[SHOWN..].iter().map(|h| h.duration()).sum();
                let _ = writeln!(
                    out,
                    "    ... {} more hops ({rest:.6} s)",
                    cp.hops.len() - SHOWN
                );
            }
        } else if let Some(s) = self.slowest_rank() {
            let _ = writeln!(
                out,
                "  critical   : rank {} ({:.6} s = compute {:.6} + wait {:.6} + comm {:.6})",
                s.rank, s.local_time, s.compute, s.wait, s.comm
            );
        }
        for r in &self.ranks {
            let _ = writeln!(
                out,
                "  rank {:>3}   : {:.6} s  compute {:.6}  wait {:.6}  comm {:.6}  util {:>5.1}%",
                r.rank,
                r.local_time,
                r.compute,
                r.wait,
                r.comm,
                100.0 * r.utilization
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// JSON: the one reader and the one writer of every artifact
// ---------------------------------------------------------------------------

/// A tiny JSON value with a recursive-descent reader ([`json::parse`]) and
/// a printer (`Display` for one compact line, [`json::Json::pretty`] for
/// the multi-line form), with zero dependencies. Every artifact — metrics
/// report, trace, `--stats-out` record, tuner outcome, figure and bench
/// record — is built as a [`json::Json`] and printed here, so escaping,
/// separators and the number format live in one place and the writer is
/// the reader's inverse.
pub mod json {
    use std::fmt::{self, Write};

    /// A parsed JSON value.
    ///
    /// Integer lexemes (no `.`/`e`/`E`) parse to [`Json::Int`] so u64-sized
    /// counters round-trip exactly; routing everything through `f64` would
    /// silently lose precision above 2^53.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number with a fractional or exponent part.
        Num(f64),
        /// An integer lexeme, kept exact.
        Int(i128),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, fields in source order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// An object with `fields` in the given order.
        pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }

        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as `f64` (integers convert; may round above 2^53).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(x) => Some(*x),
                Json::Int(x) => Some(*x as f64),
                _ => None,
            }
        }

        /// The value as `u64`, when it is a non-negative integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
                Json::Int(x) => u64::try_from(*x).ok(),
                _ => None,
            }
        }

        /// The string value.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The array elements.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The multi-line form: a container whose items are all scalars
        /// prints on one line (as in `Display`), any other container puts
        /// each item on its own line, indented two spaces per level. No
        /// trailing newline.
        pub fn pretty(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, Some(0))
                .expect("writing to a String cannot fail");
            out
        }

        /// Print the value: `indent` is the current depth in spaces in the
        /// pretty form, `None` in the compact one. A finite `f64` prints in
        /// its shortest round-trip form (`Debug`, which keeps an integral
        /// value's `.0`), a non-finite one as `null`.
        fn write(&self, out: &mut impl Write, indent: Option<usize>) -> fmt::Result {
            match self {
                Json::Null => out.write_str("null"),
                Json::Bool(b) => write!(out, "{b}"),
                Json::Int(x) => write!(out, "{x}"),
                Json::Num(x) if x.is_finite() => write!(out, "{x:?}"),
                Json::Num(_) => out.write_str("null"),
                Json::Str(s) => write_str(out, s),
                Json::Arr(items) => {
                    write_items(out, indent, ('[', ']'), items.iter().map(|v| (None, v)))
                }
                Json::Obj(fields) => write_items(
                    out,
                    indent,
                    ('{', '}'),
                    fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
                ),
            }
        }
    }

    /// One compact line: `", "` between items, `": "` after a key.
    impl fmt::Display for Json {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.write(f, None)
        }
    }

    /// The items of an array (no keys) or an object between `brackets`.
    fn write_items<'a>(
        out: &mut impl Write,
        indent: Option<usize>,
        brackets: (char, char),
        items: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
    ) -> fmt::Result {
        let nested = items
            .clone()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        // One item per line only in the pretty form of a nested container.
        let inner = indent.filter(|_| nested).map(|d| d + 2);
        out.write_char(brackets.0)?;
        let (mut sep, next) = ("", if inner.is_some() { "," } else { ", " });
        for (key, v) in items {
            out.write_str(sep)?;
            sep = next;
            if let Some(d) = inner {
                write!(out, "\n{:d$}", "")?;
            }
            if let Some(k) = key {
                write_str(out, k)?;
                out.write_str(": ")?;
            }
            v.write(out, inner)?;
        }
        if let (Some(d), Some(_)) = (indent, inner) {
            write!(out, "\n{:d$}", "")?;
        }
        out.write_char(brackets.1)
    }

    /// A quoted string: `"`, `\` and every character below U+0020 are
    /// escaped, everything else passes through raw.
    fn write_str(out: &mut impl Write, s: &str) -> fmt::Result {
        out.write_char('"')?;
        let mut rest = s;
        while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') {
            out.write_str(&rest[..i])?;
            match rest.as_bytes()[i] {
                b'"' => out.write_str("\\\"")?,
                b'\\' => out.write_str("\\\\")?,
                b'\n' => out.write_str("\\n")?,
                b'\t' => out.write_str("\\t")?,
                b => write!(out, "\\u{b:04x}")?,
            }
            rest = &rest[i + 1..];
        }
        out.write_str(rest)?;
        out.write_char('"')
    }

    macro_rules! into_json {
        ($($t:ty => |$x:ident| $e:expr;)*) => {$(
            impl From<$t> for Json {
                fn from($x: $t) -> Json {
                    $e
                }
            }
        )*};
    }
    into_json! {
        bool => |b| Json::Bool(b);
        f64 => |x| Json::Num(x);
        i64 => |x| Json::Int(x.into());
        u64 => |x| Json::Int(x.into());
        u32 => |x| Json::Int(x.into());
        usize => |x| Json::Int(x as i128);
        i128 => |x| Json::Int(x);
        &str => |s| Json::Str(s.to_string());
        String => |s| Json::Str(s);
    }

    /// An array of the items.
    impl<T: Into<Json>> FromIterator<T> for Json {
        fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
            Json::Arr(items.into_iter().map(Into::into).collect())
        }
    }

    /// Maximum container nesting the parser accepts. Recursion is bounded
    /// so adversarial input (e.g. 100k `[`s) reports a typed error instead
    /// of overflowing the stack.
    pub const MAX_DEPTH: usize = 128;

    struct P<'a> {
        src: &'a str,
        s: &'a [u8],
        i: usize,
        depth: usize,
    }

    impl<'a> P<'a> {
        fn err<T>(&self, msg: &str) -> Result<T, String> {
            Err(format!("JSON error at byte {}: {}", self.i, msg))
        }

        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.s.get(self.i).copied()
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.i += 1;
                Ok(())
            } else {
                self.err(&format!("expected `{}`", b as char))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.peek() {
                Some(b'{') => self.items(b'}', Self::field).map(Json::Obj),
                Some(b'[') => self.items(b']', Self::value).map(Json::Arr),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.lit("true", Json::Bool(true)),
                Some(b'f') => self.lit("false", Json::Bool(false)),
                Some(b'n') => self.lit("null", Json::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => self.err("expected a value"),
            }
        }

        fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.s[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                self.err(&format!("expected `{word}`"))
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            let mut integral = true;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                if matches!(self.s[self.i], b'.' | b'e' | b'E') {
                    integral = false;
                }
                self.i += 1;
            }
            let lexeme = std::str::from_utf8(&self.s[start..self.i]).ok();
            // Integer lexemes stay exact via i128; anything with a fraction
            // or exponent (or beyond i128) takes the f64 path.
            if integral {
                if let Some(x) = lexeme.and_then(|t| t.parse::<i128>().ok()) {
                    return Ok(Json::Int(x));
                }
            }
            lexeme
                .and_then(|t| t.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("JSON error at byte {start}: bad number"))
        }

        /// The four hex digits of a `\\u` escape at byte `at`.
        fn hex4(&self, at: usize) -> Result<u32, String> {
            let Some(digits) = self.s.get(at..at + 4) else {
                return self.err("truncated \\u escape");
            };
            std::str::from_utf8(digits)
                .ok()
                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                .ok_or_else(|| "bad \\u escape".to_string())
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return self.err("unterminated string"),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let cp = self.hex4(self.i + 1)?;
                                self.i += 4;
                                // A high surrogate followed by an escaped low
                                // one is one char; a lone or reversed
                                // surrogate reads as U+FFFD.
                                let high = (0xD800..0xDC00).contains(&cp)
                                    && self.s.get(self.i + 1..self.i + 3) == Some(b"\\u");
                                let low = if high {
                                    Some(self.hex4(self.i + 3)?)
                                } else {
                                    None
                                };
                                let low = low.filter(|lo| (0xDC00..0xE000).contains(lo));
                                let c = low.map_or(cp, |lo| {
                                    self.i += 6;
                                    0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                                });
                                out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                            }
                            _ => return self.err("bad escape"),
                        }
                        self.i += 1;
                    }
                    Some(_) => {
                        // Copy the run up to the next quote or backslash:
                        // both are ASCII, so the run ends on a char
                        // boundary of the (already valid) source.
                        let run = self.s[self.i..]
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\')
                            .unwrap_or(self.s.len() - self.i);
                        out.push_str(&self.src[self.i..self.i + run]);
                        self.i += run;
                    }
                }
            }
        }

        /// The items of the array or object opening here, up to `close`,
        /// each read by `item`.
        fn items<T>(
            &mut self,
            close: u8,
            item: fn(&mut Self) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            self.i += 1;
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return self.err(&format!("nesting deeper than {MAX_DEPTH} levels"));
            }
            let mut items = Vec::new();
            self.ws();
            if self.peek() == Some(close) {
                self.i += 1;
                self.depth -= 1;
                return Ok(items);
            }
            loop {
                items.push(item(self)?);
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(c) if c == close => {
                        self.i += 1;
                        self.depth -= 1;
                        return Ok(items);
                    }
                    _ => return self.err(&format!("expected `,` or `{}`", close as char)),
                }
            }
        }

        /// One `"key": value` member of an object.
        fn field(&mut self) -> Result<(String, Json), String> {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            Ok((key, self.value()?))
        }
    }

    /// Parse a complete JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = P {
            src: s,
            s: s.as_bytes(),
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return p.err("trailing data");
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let h = Histogram::new();
        h.observe(0);
        h.observe(5);
        h.observe(5);
        h.observe(1 << 40);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10 + (1 << 40));
        let mut want = [0u64; HIST_BUCKETS];
        (want[0], want[2], want[HIST_BUCKETS - 1]) = (1, 2, 1);
        assert_eq!(h.buckets(), want);
    }

    #[test]
    fn gauge_tracks_high_water_mark() {
        let g = Gauge::new();
        g.set(3);
        g.set(7);
        g.set(2);
        assert_eq!(g.value(), 2);
        assert_eq!(g.max(), 7);
    }

    #[test]
    fn registry_grows_and_aggregates() {
        let reg = MetricsRegistry::new();
        let m0 = reg.rank_metrics(0);
        let m2 = reg.rank_metrics(2);
        assert_eq!(reg.rank_count(), 3);
        m0.add(Counter::BytesSent, 100);
        m2.add(Counter::BytesSent, 23);
        m2.virt_add(VirtAcc::Compute, 1.5);
        m2.virt_add(VirtAcc::Compute, 0.5);
        assert_eq!(m2.virt_get(VirtAcc::Compute), 2.0);
        let report = reg.run_report(&[1.0, 0.0, 4.0]);
        assert_eq!(report.total(Counter::BytesSent), 123);
        assert_eq!(report.makespan, 4.0);
        assert_eq!(report.slowest_rank().unwrap().rank, 2);
        assert_eq!(report.ranks[2].compute, 2.0);
        assert_eq!(report.ranks[2].utilization, 0.5);
    }

    #[test]
    fn run_report_json_parses_and_round_trips_fields() {
        let reg = MetricsRegistry::new();
        let m = reg.rank_metrics(0);
        m.add(Counter::MessagesSent, 7);
        m.hist(HistId::ComputeTileNs).observe(100);
        m.gauge(GaugeId::PendingDepth).set(2);
        let report = reg.run_report(&[2.5]);
        let j = json::parse(&report.to_json().pretty()).expect("metrics JSON must parse");
        assert_eq!(
            j.get("schema").and_then(|s| s.as_str()),
            Some("tilecc-metrics-v1")
        );
        let ranks = j.get("ranks").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(ranks.len(), 1);
        let counters = ranks[0].get("counters").unwrap();
        assert_eq!(
            counters.get("messages_sent").and_then(|v| v.as_u64()),
            Some(7)
        );
        let hist = ranks[0].get("histograms").unwrap().get("compute_tile_ns");
        assert_eq!(
            hist.and_then(|h| h.get("count")).and_then(|v| v.as_u64()),
            Some(1)
        );

        // `from_json` inverts `to_json` byte for byte: critical path,
        // gauges, histograms, counters at u64 extremes and f64 values that
        // no fixed number of decimals reproduces.
        let m1 = reg.rank_metrics(1);
        m1.add(Counter::BytesSent, u64::MAX);
        m1.add(Counter::Iterations, (1u64 << 53) + 1);
        m1.virt_add(VirtAcc::Compute, 0.1 + 0.2);
        m1.virt_add(VirtAcc::Wait, 1.0 / 3.0);
        m1.virt_add(VirtAcc::Drain, 5e-324);
        m1.virt_add(VirtAcc::OverlapHidden, 1e-7);
        m1.gauge(GaugeId::ReplayLogDepth).set(u64::MAX);
        m1.gauge(GaugeId::ReplayLogDepth).set(3);
        m1.hist(HistId::RetransNs).observe(u64::MAX);
        m1.hist(HistId::RetransNs).observe(0);
        let cross = reg.clone();
        cross_rank_spans(&cross);
        let times = [2.5, 1.0 / 7.0];
        let report = reg
            .run_report(&times)
            .with_critical_path(reg.critical_path(&times));
        assert!(report.critical_path.is_some());
        let s = report.to_json().pretty();
        let back = RunReport::from_json(&s).expect("a written report must load");
        assert_eq!(back.to_json().pretty(), s);
        assert_eq!(back.render(), report.render());
        assert!(back.deterministic_diff(&report).is_empty());
        assert_eq!(back.total(Counter::BytesSent), u64::MAX);
        assert_eq!(
            back.ranks[1].gauges[GaugeId::ReplayLogDepth as usize].2,
            u64::MAX
        );
        // A report without a critical path round-trips too.
        let plain = reg.run_report(&times).to_json().pretty();
        assert_eq!(
            RunReport::from_json(&plain).unwrap().to_json().pretty(),
            plain
        );
    }

    #[test]
    fn run_report_from_json_reads_files_the_older_writer_wrote() {
        // Nine-decimal values, a six-decimal utilization, and a rank whose
        // counters, gauges and histograms are missing (they read as zero).
        let old = r#"{
  "schema": "tilecc-metrics-v1",
  "makespan": 0.001234568,
  "critical_path": {
    "length": 0.001234568,
    "hops": [
      {"rank": 1, "phase": "origin", "start": 0.000000000, "end": 0.000100000, "from_rank": null},
      {"rank": 0, "phase": "recv", "start": 0.000100000, "end": 0.001234568, "from_rank": 1}
    ]
  },
  "ranks": [
    {
      "rank": 0,
      "local_time": 0.001234568,
      "compute": 0.001000000,
      "wait": 0.000200000,
      "comm": 0.000034568,
      "recovery": 0.000000000,
      "overlap_hidden": 0.000000000,
      "utilization": 0.810000,
      "counters": {"messages_sent": 3, "bytes_sent": 96}
    }
  ]
}"#;
        let r = RunReport::from_json(old).expect("older files still load");
        assert_eq!(r.makespan, 0.001234568);
        assert_eq!(r.ranks[0].utilization, 0.81);
        assert_eq!(r.total(Counter::MessagesSent), 3);
        assert_eq!(r.total(Counter::Recoveries), 0);
        assert!(r.ranks[0]
            .gauges
            .iter()
            .all(|&(_, v, mx)| v == 0 && mx == 0));
        assert!(r.ranks[0].hists.iter().all(|h| h.1 == 0 && h.3.is_empty()));
        let cp = r.critical_path.as_ref().unwrap();
        assert_eq!(
            (cp.hops[0].phase, cp.hops[1].from_rank),
            ("origin", Some(1))
        );
        assert!(r
            .render()
            .contains("critical   : 0.001235 s dependency chain"));
        // Unknown phases and malformed buckets are typed errors.
        let bad = old.replace("\"recv\"", "\"teleport\"");
        assert!(RunReport::from_json(&bad).unwrap_err().contains("teleport"));
        let bad = old.replace(
            "\"counters\"",
            "\"histograms\": {\"pack_ns\": {\"count\": 1, \"sum\": 1, \"buckets\": [[1]]}}, \"counters\"",
        );
        assert!(RunReport::from_json(&bad).unwrap_err().contains("pack_ns"));
    }

    #[test]
    fn run_report_from_json_skips_the_retired_writer_queue_gauge() {
        // The six-gauge writer exported a `writer_queue_depth` gauge; such a
        // file still loads, with the five known gauges read by name.
        let old = r#"{
  "schema": "tilecc-metrics-v1",
  "makespan": 0.5,
  "ranks": [
    {
      "rank": 0,
      "local_time": 0.5,
      "compute": 0.5,
      "gauges": {
        "pending_depth": {"value": 2, "max": 4},
        "replay_log_depth": {"value": 0, "max": 1},
        "writer_queue_depth": {"value": 3, "max": 64}
      }
    }
  ]
}"#;
        let r = RunReport::from_json(old).expect("a six-gauge file still loads");
        let gauges = &r.ranks[0].gauges;
        assert_eq!(gauges.len(), GaugeId::COUNT);
        assert_eq!(
            gauges[GaugeId::PendingDepth as usize],
            (GaugeId::PendingDepth, 2, 4)
        );
        assert_eq!(
            gauges[GaugeId::ReplayLogDepth as usize],
            (GaugeId::ReplayLogDepth, 0, 1)
        );
        assert!(!r.to_json().pretty().contains("writer_queue_depth"));
        assert!(r.render().contains("run report: 1 rank,"), "{}", r.render());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_metadata() {
        let reg = MetricsRegistry::new();
        let mut obs = RankObs::new(reg.clone(), 0);
        let t0 = obs.now_ns();
        obs.span(Phase::Compute, t0, (0.0, 1.0), 64);
        obs.span(Phase::Send, obs.now_ns(), (1.0, 1.25), 128);
        drop(obs); // flush
        reg.driver_span(Phase::Plan, "fourier-motzkin", 0, 0);
        let trace = reg.chrome_trace(None).to_string();
        let j = json::parse(&trace).expect("chrome trace must parse");
        let events = j.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        // 2 process_name + 3 thread_name + 3 spans.
        assert_eq!(events.len(), 8);
        let compute = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("compute"))
            .unwrap();
        assert_eq!(compute.get("pid").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(compute.get("ts").and_then(|t| t.as_f64()), Some(0.0));
        assert_eq!(compute.get("dur").and_then(|t| t.as_f64()), Some(1e6));
    }

    #[test]
    fn virtual_export_keeps_rank_lanes_monotone() {
        let reg = MetricsRegistry::new();
        let mut obs = RankObs::new(reg.clone(), 3);
        for k in 0..5 {
            let t0 = obs.now_ns();
            obs.span(Phase::Compute, t0, (k as f64, k as f64 + 0.5), 1);
        }
        obs.flush();
        let j = json::parse(&reg.chrome_trace(None).to_string()).unwrap();
        let events = j.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let mut last = f64::NEG_INFINITY;
        for e in events {
            if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
                continue;
            }
            let ts = e.get("ts").and_then(|t| t.as_f64()).unwrap();
            assert!(ts >= last, "per-lane timestamps must be monotone");
            last = ts;
        }
    }

    #[test]
    fn json_parser_handles_the_usual_suspects() {
        use json::{parse, Json};
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(
            parse(" [1, 2.5, -3e2] ").unwrap().as_arr().unwrap().len(),
            3
        );
        let obj = parse(r#"{"a": "x\ny", "b": [true, false], "c": {"d": 1}}"#).unwrap();
        assert_eq!(obj.get("a").and_then(|v| v.as_str()), Some("x\ny"));
        assert_eq!(
            obj.get("c")
                .and_then(|c| c.get("d"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"u": "A"}"#).unwrap().get("u").unwrap().as_str() == Some("A"));
    }

    /// Text escaped as Python's `json.dump` escapes it by default — every
    /// non-ASCII char as `\uXXXX`, a char past the BMP as its UTF-16
    /// surrogate pair — reads back as the original string; a lone or
    /// reversed surrogate reads as U+FFFD.
    #[test]
    fn json_strings_read_python_escaped_surrogate_pairs() {
        use json::parse;
        let ascii_escaped = |text: &str| {
            let mut doc = String::from("\"");
            for c in text.chars() {
                match c {
                    '"' => doc.push_str("\\\""),
                    '\\' => doc.push_str("\\\\"),
                    ' '..='~' => doc.push(c),
                    _ => {
                        for unit in c.encode_utf16(&mut [0; 2]) {
                            doc.push_str(&format!("\\u{unit:04x}"));
                        }
                    }
                }
            }
            doc + "\""
        };
        for text in [
            "\u{1F600}",
            "rank \u{1F680} \u{e9}t\u{e9} \u{10FFFF}\u{10000} \"q\" \\ \u{7f}\n",
            "\u{FFFF}\u{D7FF}\u{E000}\u{1D11E}\u{1D11E}",
        ] {
            let doc = ascii_escaped(text);
            assert!(doc.is_ascii(), "{doc}");
            let got = parse(&doc).unwrap();
            assert_eq!(got.as_str(), Some(text), "{doc}");
        }
        for (doc, want) in [
            (r#""\uD83D""#, "\u{FFFD}"),
            (r#""\uDE00\uD83D""#, "\u{FFFD}\u{FFFD}"),
            (r#""\uD83Dx\uDE00""#, "\u{FFFD}x\u{FFFD}"),
            (r#""\uD83D\u0041""#, "\u{FFFD}A"),
        ] {
            assert_eq!(parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
        assert!(parse(r#""\uD83D\uZZZZ""#).is_err());
        assert!(parse(r#""\uD83"#).is_err());
    }

    #[test]
    fn json_integers_round_trip_exactly() {
        use json::{parse, Json};
        // u64::MAX and the first values that f64 cannot represent exactly.
        for v in [
            u64::MAX,
            (1u64 << 53) - 1,
            1u64 << 53,
            (1u64 << 53) + 1,
            0,
            1,
        ] {
            let doc = format!("{{\"c\": {v}}}");
            let j = parse(&doc).expect("integer JSON must parse");
            assert_eq!(
                j.get("c").and_then(|x| x.as_u64()),
                Some(v),
                "u64 {v} must round-trip exactly"
            );
            assert_eq!(j.get("c"), Some(&Json::Int(v as i128)));
        }
        // Distinguishes 2^53 from 2^53 + 1, which f64 cannot.
        let a = parse("9007199254740992").unwrap();
        let b = parse("9007199254740993").unwrap();
        assert_ne!(a, b);
        // Negative integers and fractional/exponent forms keep working.
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("-3e2").unwrap().as_f64(), Some(-300.0));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn run_report_counters_survive_json_at_u64_extremes() {
        let reg = MetricsRegistry::new();
        let m = reg.rank_metrics(0);
        m.add(Counter::BytesSent, u64::MAX);
        m.add(Counter::Iterations, (1u64 << 53) + 1);
        let report = reg.run_report(&[1.0]);
        let j = json::parse(&report.to_json().pretty()).expect("metrics JSON must parse");
        let counters = j.get("ranks").and_then(|r| r.as_arr()).unwrap()[0]
            .get("counters")
            .unwrap();
        assert_eq!(
            counters.get("bytes_sent").and_then(|v| v.as_u64()),
            Some(u64::MAX)
        );
        assert_eq!(
            counters.get("iterations").and_then(|v| v.as_u64()),
            Some((1u64 << 53) + 1)
        );
    }

    #[test]
    fn rank_report_split_partitions_local_time() {
        let reg = MetricsRegistry::new();
        let m = reg.rank_metrics(0);
        m.virt_add(VirtAcc::Compute, 3.0);
        m.virt_add(VirtAcc::Wait, 1.0);
        m.virt_add(VirtAcc::Send, 0.5);
        m.virt_add(VirtAcc::RecvOverhead, 0.25);
        m.virt_add(VirtAcc::Retrans, 0.125);
        m.virt_add(VirtAcc::Drain, 0.0625);
        m.virt_add(VirtAcc::Recovery, 0.03125);
        // OverlapHidden is informational only: must NOT enter the partition.
        m.virt_add(VirtAcc::OverlapHidden, 100.0);
        let report = reg.run_report(&[4.96875]);
        let r = &report.ranks[0];
        assert!((r.compute + r.wait + r.comm + r.recovery - r.local_time).abs() < 1e-12);
        assert_eq!(r.recovery, 0.03125);
        assert_eq!(r.overlap_hidden, 100.0);
    }

    /// A metrics slot with something in every field family, including f64
    /// values that must survive the wire bit for bit.
    fn populated_metrics() -> Arc<RankMetrics> {
        let m = Arc::new(RankMetrics::new());
        m.add(Counter::MessagesSent, 42);
        m.add(Counter::BytesSent, u64::MAX / 3);
        m.add(Counter::Retransmits, 7);
        m.add(Counter::CkptWrites, 2);
        m.virt_add(VirtAcc::Compute, 0.1 + 0.2); // 0.30000000000000004
        m.virt_add(VirtAcc::Wait, 1.0 / 3.0);
        m.virt_add(VirtAcc::Drain, 5e-324); // subnormal
        m.gauge(GaugeId::PendingDepth).set(9);
        m.gauge(GaugeId::PendingDepth).set(3);
        m.gauge(GaugeId::ResequenceDepth).set(17);
        m.hist(HistId::RetransNs).observe(1024);
        m.hist(HistId::RetransNs).observe(1 << 50);
        m.hist(HistId::ComputeTileNs).observe(0);
        m
    }

    #[test]
    fn stats_snapshot_round_trips_bitwise() {
        let m = populated_metrics();
        let a = StatsSnapshot::capture(&m);
        assert_eq!(StatsSnapshot::decode(&a.encode()).unwrap(), a);
        // A later snapshot of the same slot is just as self-contained.
        m.add(Counter::MessagesSent, 1);
        m.virt_add(VirtAcc::Compute, 0.25);
        m.gauge(GaugeId::ResequenceDepth).set(1);
        m.hist(HistId::RetransNs).observe(3);
        let b = StatsSnapshot::capture(&m);
        assert_eq!(StatsSnapshot::decode(&b.encode()).unwrap(), b);
        // The all-zero snapshot is one zero byte per field.
        let zero = StatsSnapshot::zero().encode();
        assert!(zero.iter().all(|&x| x == 0), "{zero:?}");
    }

    #[test]
    fn stats_snapshot_rejects_corrupt_payloads() {
        let good = StatsSnapshot::capture(&populated_metrics()).encode();
        // Truncation anywhere must surface as Err, never a panic.
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            assert!(
                StatsSnapshot::decode(&good[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(StatsSnapshot::decode(&long).is_err());
        // An unterminated varint (all continuation bits) overflows u64.
        let e = StatsSnapshot::decode(&[0xFF; 64]).unwrap_err();
        assert!(e.contains("overflows u64"), "{e}");
    }

    #[test]
    fn stats_snapshot_local_clock_matches_partition() {
        let m = populated_metrics();
        m.virt_add(VirtAcc::OverlapHidden, 9.0); // informational: excluded
        let snap = StatsSnapshot::capture(&m);
        let expect = VirtAcc::ALL
            .iter()
            .filter(|&&a| a != VirtAcc::OverlapHidden)
            .map(|&a| m.virt_get(a))
            .sum::<f64>();
        assert_eq!(snap.local_clock().to_bits(), expect.to_bits());
    }

    #[test]
    fn report_from_snapshots_matches_registry_bitwise() {
        // The driver-side merge path must reproduce the registry-built
        // report byte for byte — the cross-backend identity the TCP
        // driver's merged `--metrics-out` relies on.
        let reg = MetricsRegistry::new();
        for rank in 0..3 {
            let m = reg.rank_metrics(rank);
            m.add(Counter::MessagesSent, 10 + rank as u64);
            m.add(Counter::BytesSent, (rank as u64 + 1) * 1000);
            m.virt_add(VirtAcc::Compute, 0.1 * (rank as f64 + 1.0) / 3.0);
            m.virt_add(VirtAcc::Wait, 1.0 / 7.0);
            m.virt_add(VirtAcc::Send, 0.01);
            m.gauge(GaugeId::PendingDepth).set(rank as u64);
            m.hist(HistId::RecvWaitNs).observe(123 << rank);
        }
        let local_times = [0.5, 0.7, 0.6];
        let snaps: Vec<StatsSnapshot> = (0..3)
            .map(|r| StatsSnapshot::capture(&reg.rank_metrics(r)))
            .collect();
        let from_reg = RunReport::from_registry(&reg, &local_times)
            .to_json()
            .pretty();
        let from_snaps = RunReport::from_snapshots(&snaps, &local_times)
            .to_json()
            .pretty();
        assert_eq!(from_reg, from_snaps);
        // And the snapshots survive a wire round-trip first.
        let wired: Vec<StatsSnapshot> = snaps
            .iter()
            .map(|s| StatsSnapshot::decode(&s.encode()).unwrap())
            .collect();
        assert_eq!(
            RunReport::from_snapshots(&wired, &local_times)
                .to_json()
                .pretty(),
            from_reg
        );
    }

    /// Two ranks, one message: rank 0 computes then sends, rank 1 blocks in
    /// a receive and computes on. The dependency-true path must cross from
    /// rank 1 back to rank 0 through the send→recv edge.
    fn cross_rank_spans(reg: &Arc<MetricsRegistry>) {
        let edge = SpanEdge {
            peer: 1,
            tag: 5,
            seq: 1,
        };
        let mut o0 = RankObs::new(reg.clone(), 0);
        let t = o0.now_ns();
        o0.span(Phase::Compute, t, (0.0, 1.0), 100);
        o0.edge_span(Phase::Send, t, (1.0, 1.2), 64, edge);
        drop(o0);
        let mut o1 = RankObs::new(reg.clone(), 1);
        o1.edge_span(
            Phase::Recv,
            t,
            (0.0, 1.3),
            64,
            SpanEdge {
                peer: 0,
                tag: 5,
                seq: 1,
            },
        );
        o1.span(Phase::Compute, t, (1.3, 2.0), 70);
        drop(o1);
    }

    #[test]
    fn critical_path_follows_send_recv_edges() {
        let reg = MetricsRegistry::new();
        cross_rank_spans(&reg);
        let local_times = [1.2, 2.0];
        let cp = reg
            .critical_path(&local_times)
            .expect("spans were recorded");
        // The chain tiles (0, makespan] exactly.
        assert_eq!(cp.length, 2.0);
        assert!(cp.length >= local_times.iter().fold(0.0f64, |a, &b| a.max(b)));
        let hop_sum: f64 = cp.hops.iter().map(|h| h.duration()).sum();
        assert!((hop_sum - cp.length).abs() < 1e-9, "{cp:?}");
        assert_eq!(cp.hops.first().unwrap().start, 0.0);
        assert_eq!(cp.hops.last().unwrap().end, 2.0);
        for w in cp.hops.windows(2) {
            assert_eq!(w[0].end, w[1].start, "hops must telescope: {cp:?}");
        }
        // The walk crossed to rank 0 through the recv: the hand-off hop
        // starts the instant the matched send completed (1.2).
        let cross = cp
            .hops
            .iter()
            .find(|h| h.from_rank.is_some())
            .expect("one cross-rank hop");
        assert_eq!(cross.rank, 1);
        assert_eq!(cross.from_rank, Some(0));
        assert_eq!(cross.phase, "recv");
        assert_eq!(cross.start, 1.2);
        assert_eq!(cross.end, 1.3);
        // Before the hand-off the path runs on rank 0, after it on rank 1.
        assert!(cp
            .hops
            .iter()
            .take_while(|h| h.from_rank.is_none())
            .all(|h| h.rank == 0));
        assert_eq!(cp.hops.last().unwrap().rank, 1);
        assert_eq!(cp.hops.last().unwrap().phase, "compute");
    }

    #[test]
    fn critical_path_needs_rank_spans() {
        // A driver-only registry (the multi-process case) has nothing to
        // walk: slowest-rank stays the report's fallback.
        let reg = MetricsRegistry::new();
        reg.driver_span(Phase::Plan, "plan", 0, 0);
        assert!(reg.critical_path(&[1.0, 2.0]).is_none());
        assert!(critical_path_from_spans(&[], &[]).is_none());
    }

    #[test]
    fn critical_path_flows_land_in_trace_export() {
        let reg = MetricsRegistry::new();
        cross_rank_spans(&reg);
        let cp = reg.critical_path(&[1.2, 2.0]).unwrap();
        let trace = reg.chrome_trace(Some(&cp)).to_string();
        let j = json::parse(&trace).expect("trace with flows must parse");
        let events = j.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(phases.iter().filter(|&&p| p == "s").count(), 1);
        assert_eq!(phases.iter().filter(|&&p| p == "f").count(), 1);
    }

    #[test]
    fn json_parser_bounds_recursion_depth() {
        // MAX_DEPTH levels parse; one more is a typed error; absurd depth
        // must not overflow the stack.
        let ok = format!(
            "{}1{}",
            "[".repeat(json::MAX_DEPTH),
            "]".repeat(json::MAX_DEPTH)
        );
        assert!(json::parse(&ok).is_ok());
        let deep = format!(
            "{}1{}",
            "[".repeat(json::MAX_DEPTH + 1),
            "]".repeat(json::MAX_DEPTH + 1)
        );
        let e = json::parse(&deep).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
        let absurd = "[".repeat(10_000);
        assert!(json::parse(&absurd).is_err()); // typed error, no overflow
        let mixed = format!("{}{}", "{\"k\":".repeat(10_000), "[");
        assert!(json::parse(&mixed).is_err());
    }

    #[test]
    fn json_extreme_f64_round_trip() {
        for v in [
            f64::MAX,
            f64::MIN_POSITIVE, // smallest normal
            5e-324,            // smallest subnormal
            1e308,
            -1.7976931348623157e308,
        ] {
            let doc = format!("[{v:e}]");
            let j = json::parse(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            let got = j.as_arr().unwrap()[0].as_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits(), "{v:e} must round-trip bitwise");
        }
    }

    /// xorshift64*: a seeded stream for the printer's round-trip trees.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.next() as usize % from.len()]
        }

        /// Quotes, backslashes, every control character, non-ASCII text
        /// and plain letters.
        fn string(&mut self) -> String {
            let special: Vec<char> = ('\u{0}'..='\u{1f}')
                .chain(['"', '\\', '/', 'é', 'λ', '→', '\u{7f}', '\u{2028}', '😀'])
                .collect();
            (0..self.next() % 8)
                .map(|_| match self.next() % 3 {
                    0 => self.pick(&special),
                    _ => (b'a' + (self.next() % 26) as u8) as char,
                })
                .collect()
        }

        /// Random bits (NaN, infinities and subnormals among them) or a
        /// value at an edge of the format.
        fn f64(&mut self) -> f64 {
            let edges = [
                5e-324,
                f64::MIN_POSITIVE,
                f64::MAX,
                -1e300,
                1e-300,
                1e16,
                1e22,
                3.0,
                -0.0,
                0.1 + 0.2,
                f64::NAN,
                f64::INFINITY,
            ];
            match self.next() % 2 {
                0 => f64::from_bits(self.next()),
                _ => self.pick(&edges),
            }
        }

        fn int(&mut self) -> i128 {
            let wide = (i128::from(self.next() as i64) << 64) | i128::from(self.next());
            let edges = [i128::MIN, i128::MAX, 0, -1, i128::from(u64::MAX), wide];
            self.pick(&edges)
        }

        fn tree(&mut self, depth: u32) -> json::Json {
            use json::Json;
            match self.next() % if depth == 0 { 5 } else { 7 } {
                0 => Json::Null,
                1 => Json::Bool(self.next() & 1 == 0),
                2 => Json::Int(self.int()),
                3 => Json::Num(self.f64()),
                4 => Json::Str(self.string()),
                5 => Json::Arr((0..self.next() % 4).map(|_| self.tree(depth - 1)).collect()),
                _ => Json::Obj(
                    (0..self.next() % 4)
                        .map(|_| (self.string(), self.tree(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    /// What a tree reads back as: a non-finite number prints as `null`.
    fn read_back(v: &json::Json) -> json::Json {
        use json::Json;
        match v {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(read_back).collect()),
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), read_back(v)))
                    .collect(),
            ),
            v => v.clone(),
        }
    }

    #[test]
    fn json_printer_round_trips_random_trees() {
        let mut rng = Rng(0x5EED_1234_ABCD_0001);
        for case in 0..3000 {
            let v = rng.tree(4);
            let want = read_back(&v);
            for text in [v.to_string(), v.pretty()] {
                let got = json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
                assert_eq!(got, want, "case {case}: {text}");
                // Exact, not just `==`: every number keeps its bits.
                assert_eq!(got.to_string(), want.to_string(), "case {case}");
            }
            assert!(!v.to_string().contains('\n'), "compact form is one line");
        }
    }

    #[test]
    fn json_pretty_puts_scalar_containers_inline() {
        use json::Json;
        let doc = Json::obj([
            ("name", "a \"b\"\n".into()),
            ("xs", [1u64, 2, 3].into_iter().collect()),
            ("empty", Json::Arr(vec![])),
            (
                "rows",
                [Json::obj([("x", 1.0.into())]), Json::Null]
                    .into_iter()
                    .collect(),
            ),
            ("nan", f64::NAN.into()),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"name\": \"a \\\"b\\\"\\n\",\n  \"xs\": [1, 2, 3],\n  \"empty\": [],\n  \
             \"rows\": [\n    {\"x\": 1.0},\n    null\n  ],\n  \"nan\": null\n}"
        );
        assert_eq!(
            doc.to_string(),
            "{\"name\": \"a \\\"b\\\"\\n\", \"xs\": [1, 2, 3], \"empty\": [], \
             \"rows\": [{\"x\": 1.0}, null], \"nan\": null}"
        );
    }

    #[test]
    fn json_parse_is_linear_in_the_document() {
        // ~4 MB of short strings with escapes and non-ASCII text. A linear
        // reader takes well under a second even unoptimized; one that
        // rescans the rest of the document per character takes hours.
        let words = [
            ("tile", "tile"),
            ("r\u{e9}sum\u{e9}", "r\u{e9}sum\u{e9}"),
            ("a\\\"q\\\"", "a\"q\""),
            ("back\\\\slash", "back\\slash"),
            ("\u{3bb}\\u2192", "\u{3bb}\u{2192}"),
            ("tab\\t", "tab\t"),
        ];
        let n = 280_000;
        let items: Vec<String> = (0..n)
            .map(|i| format!("\"{}-{i}\"", words[i % 6].0))
            .collect();
        let text = format!("[{}]", items.join(", "));
        assert!(text.len() > 4_000_000, "{}", text.len());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(json::parse(&text)));
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("parsing a 4 MB document must take well under 20 s")
            .unwrap();
        let got = got.as_arr().unwrap();
        assert_eq!(got.len(), n);
        for i in [0, 1, 2, 3, 4, 5, n - 1] {
            let want = format!("{}-{i}", words[i % 6].1);
            assert_eq!(got[i].as_str(), Some(want.as_str()));
        }
    }

    #[test]
    fn histogram_power_of_two_boundaries_are_deterministic() {
        // An exact power of two is always the *floor* of its bucket: 2^k
        // lands in bucket k, 2^k - 1 in bucket k-1 — no boundary value can
        // flap between buckets.
        for k in 1..63u32 {
            let v = 1u64 << k;
            let expect = (k as usize).min(HIST_BUCKETS - 1);
            assert_eq!(Histogram::bucket_of(v), expect, "2^{k}");
            let below = (k as usize - 1).min(HIST_BUCKETS - 1);
            assert_eq!(Histogram::bucket_of(v - 1), below, "2^{k} - 1");
        }
        // A power of two opens its own bucket: 4096 = 2^12 lands in 12.
        let h = Histogram::new();
        h.observe(4096);
        let mut want = [0u64; HIST_BUCKETS];
        want[12] = 1;
        assert_eq!(h.buckets(), want);
    }
}
