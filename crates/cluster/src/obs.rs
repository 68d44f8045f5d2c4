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
//!   counters, serialized with the same hand-rolled JSON style as the bench
//!   artifacts, plus a human-readable text rendering.
//!
//! Observability is strictly opt-in: with `EngineOptions::obs == None` the
//! engine and executor only ever test an `Option` that is `None`, so the
//! hot paths are unchanged (see `perf --obs-overhead`).

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
    /// Writing a rank's LDS back into the global data space (driver-side).
    Gather,
    /// Sequential reference execution and the bitwise diff against the
    /// gathered data (driver-side, `--verify`).
    Verify,
    /// Draining the rank's comm lane under the overlapped strategy: the
    /// residual send/transit time not hidden behind interior compute.
    Overlap,
}

impl Phase {
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
            Phase::Overlap => "overlap",
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
    /// Frames queued toward a peer's writer thread but not yet written to
    /// the socket (max over links; TCP backend). The high-water mark shows
    /// how deep the per-peer send queues actually run.
    WriterQueueDepth,
}

impl GaugeId {
    /// Number of gauge ids (update together with [`GaugeId::ALL`]).
    pub const COUNT: usize = 6;
    /// All gauge ids, in storage order.
    pub const ALL: [GaugeId; GaugeId::COUNT] = [
        GaugeId::PendingDepth,
        GaugeId::ResequenceDepth,
        GaugeId::OutstandingSends,
        GaugeId::ConnectNs,
        GaugeId::ReplayLogDepth,
        GaugeId::WriterQueueDepth,
    ];

    /// Stable export name of this gauge.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::PendingDepth => "pending_depth",
            GaugeId::ResequenceDepth => "resequence_depth",
            GaugeId::OutstandingSends => "outstanding_sends",
            GaugeId::ConnectNs => "connect_ns",
            GaugeId::ReplayLogDepth => "replay_log_depth",
            GaugeId::WriterQueueDepth => "writer_queue_depth",
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
    /// the raw shape [`StatsSnapshot`] captures and delta-encodes.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// `(bucket_lower_bound, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((if i == 0 { 0 } else { 1u64 << i }, c))
            })
            .collect()
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
    fn new() -> Self {
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

    /// Overwrite counter `c` (crash recovery rewinds counters to a
    /// checkpoint snapshot; single-writer discipline applies).
    pub fn set(&self, c: Counter, v: u64) {
        self.counters[c as usize].store(v, Ordering::Relaxed);
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

    /// Overwrite accumulator `a` (crash recovery rewinds the virtual
    /// accumulators to a checkpoint snapshot; single-writer discipline
    /// applies).
    pub fn virt_set(&self, a: VirtAcc, v: f64) {
        self.virt[a as usize].store(v.to_bits(), Ordering::Relaxed);
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

    /// Chrome trace-event JSON on the virtual clock (rank lanes use virtual
    /// microseconds; driver lanes, which have no virtual clock, use wall).
    pub fn chrome_trace(&self) -> String {
        self.chrome_trace_with(ExportClock::Virtual)
    }

    /// Chrome trace-event JSON with an explicit timeline clock.
    pub fn chrome_trace_with(&self, clock: ExportClock) -> String {
        chrome_trace_json(&self.spans(), clock)
    }

    /// Chrome trace-event JSON with the critical path highlighted as
    /// Perfetto flow arrows (see [`chrome_trace_json_with_path`]).
    pub fn chrome_trace_with_path(
        &self,
        clock: ExportClock,
        path: Option<&CriticalPath>,
    ) -> String {
        chrome_trace_json_with_path(&self.spans(), clock, path)
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
/// TCMP `STATS` frame: every counter, every virtual accumulator (as `f64`
/// bit patterns, so clocks survive the wire bitwise), every gauge
/// `(value, high-water)` pair and every histogram.
///
/// On the wire a snapshot travels as a *delta* against the previous
/// snapshot on the same stream (see [`StatsSnapshot::encode_delta`]): the
/// control connection is ordered and reliable, so the decoder can fold
/// each delta into its running state. An absolute snapshot is simply a
/// delta against [`StatsSnapshot::zero`].
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

/// Zigzag-map a signed delta so small magnitudes stay small on the wire.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append the zigzag-encoded wrapping difference `cur - prev`.
fn put_delta(out: &mut Vec<u8>, prev: u64, cur: u64) {
    put_uvarint(out, zigzag(cur.wrapping_sub(prev) as i64));
}

/// Apply one zigzag delta read from `buf` to `prev`.
fn get_delta(buf: &[u8], i: &mut usize, prev: u64) -> Result<u64, String> {
    Ok(prev.wrapping_add(unzigzag(get_uvarint(buf, i)?) as u64))
}

impl StatsSnapshot {
    /// The all-zero snapshot: the decoder's baseline for absolute frames.
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

    /// The rank's current virtual clock, reconstructed from the partition
    /// invariant: every clock advance is charged to exactly one
    /// accumulator ([`VirtAcc::OverlapHidden`] is informational and
    /// excluded), so their sum *is* the clock — no separate clock cell has
    /// to travel with the snapshot.
    pub fn local_clock(&self) -> f64 {
        self.virt(VirtAcc::Compute)
            + self.virt(VirtAcc::Wait)
            + self.virt(VirtAcc::Send)
            + self.virt(VirtAcc::RecvOverhead)
            + self.virt(VirtAcc::Retrans)
            + self.virt(VirtAcc::Stall)
            + self.virt(VirtAcc::Drain)
            + self.virt(VirtAcc::Recovery)
    }

    /// Delta-encode this snapshot against `prev` as the `STATS` payload:
    /// zigzag-LEB128 of each wrapping difference, fields in declaration
    /// order (counters, virts as XORed bit patterns, gauges, histograms).
    /// Counters are signed deltas because a crash recovery *rewinds* them.
    pub fn encode_delta(&self, prev: &StatsSnapshot) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        for (p, c) in prev.counters.iter().zip(&self.counters) {
            put_delta(&mut out, *p, *c);
        }
        // Virtual clocks: XOR of the bit patterns — identical values encode
        // as a single zero byte and decoding is exact (bitwise), which a
        // numeric f64 delta could never guarantee.
        for (p, c) in prev.virts.iter().zip(&self.virts) {
            put_uvarint(&mut out, p ^ c);
        }
        for ((pv, pm), (cv, cm)) in prev.gauges.iter().zip(&self.gauges) {
            put_delta(&mut out, *pv, *cv);
            put_delta(&mut out, *pm, *cm);
        }
        for (p, c) in prev.hists.iter().zip(&self.hists) {
            put_delta(&mut out, p.count, c.count);
            put_delta(&mut out, p.sum, c.sum);
            for (pb, cb) in p.buckets.iter().zip(&c.buckets) {
                put_delta(&mut out, *pb, *cb);
            }
        }
        out
    }

    /// Decode a `STATS` payload produced by [`StatsSnapshot::encode_delta`]
    /// on top of `prev`. Rejects truncated and oversized payloads with a
    /// typed message; both sides are the same binary, so the field counts
    /// are implicit.
    pub fn apply_delta(prev: &StatsSnapshot, payload: &[u8]) -> Result<StatsSnapshot, String> {
        let mut i = 0usize;
        let mut snap = StatsSnapshot::zero();
        for (k, p) in prev.counters.iter().enumerate() {
            snap.counters[k] = get_delta(payload, &mut i, *p)?;
        }
        for (k, p) in prev.virts.iter().enumerate() {
            snap.virts[k] = p ^ get_uvarint(payload, &mut i)?;
        }
        for (k, (pv, pm)) in prev.gauges.iter().enumerate() {
            snap.gauges[k] = (
                get_delta(payload, &mut i, *pv)?,
                get_delta(payload, &mut i, *pm)?,
            );
        }
        for (k, p) in prev.hists.iter().enumerate() {
            snap.hists[k].count = get_delta(payload, &mut i, p.count)?;
            snap.hists[k].sum = get_delta(payload, &mut i, p.sum)?;
            for (b, pb) in p.buckets.iter().enumerate() {
                snap.hists[k].buckets[b] = get_delta(payload, &mut i, *pb)?;
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

/// Which clock drives the exported timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExportClock {
    /// Rank lanes on the deterministic virtual clock (µs = virtual
    /// seconds × 10⁶); driver lanes fall back to wall time.
    #[default]
    Virtual,
    /// Everything on real wall time since the registry epoch.
    Wall,
}

fn fmt_us(ns_or_us: f64) -> String {
    // Trim to 3 decimals; trace viewers do not need more.
    format!("{ns_or_us:.3}")
}

/// Serialize spans as Chrome trace-event JSON (`ph:"X"` complete events
/// plus process/thread-name metadata). One pid per rank, one tid per phase
/// lane.
pub fn chrome_trace_json(spans: &[Span], clock: ExportClock) -> String {
    chrome_trace_json_with_path(spans, clock, None)
}

/// [`chrome_trace_json`] plus the critical path highlighted as Perfetto
/// flow events: every cross-rank hop of `path` becomes an `s`/`f` arrow
/// (category `critical-path`) from the sender's send lane to the
/// receiver's recv lane at the hand-off instant. Flows are only emitted on
/// the virtual clock — the path's coordinates are virtual seconds.
pub fn chrome_trace_json_with_path(
    spans: &[Span],
    clock: ExportClock,
    path: Option<&CriticalPath>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
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
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    for pid in &pids {
        let name = if *pid == DRIVER_PID {
            "driver".to_string()
        } else {
            format!("rank {}", pid - 1)
        };
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"args\": {{\"name\": \"{name}\"}}}}"
        );
    }
    for (pid, lane, name) in &lanes {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {lane}, \"args\": {{\"name\": \"{name}\"}}}}"
        );
    }
    for s in spans {
        let (ts, dur) = match (clock, s.virt) {
            (ExportClock::Virtual, Some((v0, v1))) => (v0 * 1e6, (v1 - v0).max(0.0) * 1e6),
            _ => (
                s.wall_start_ns as f64 / 1e3,
                s.wall_end_ns.saturating_sub(s.wall_start_ns) as f64 / 1e3,
            ),
        };
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"detail\": {}, \"wall_start_ns\": {}, \"wall_dur_ns\": {}",
            s.name,
            s.phase.name(),
            s.pid,
            s.phase.lane(),
            fmt_us(ts),
            fmt_us(dur),
            s.detail,
            s.wall_start_ns,
            s.wall_end_ns.saturating_sub(s.wall_start_ns),
        );
        if let Some((v0, v1)) = s.virt {
            let _ = write!(out, ", \"virt_start_s\": {v0:.9}, \"virt_end_s\": {v1:.9}");
        }
        out.push_str("}}");
    }
    if let (ExportClock::Virtual, Some(cp)) = (clock, path) {
        let mut id = 0u64;
        for h in &cp.hops {
            let Some(from) = h.from_rank else { continue };
            id += 1;
            let ts = fmt_us(h.start * 1e6);
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\": \"critical-path\", \"cat\": \"critical-path\", \"ph\": \"s\", \"id\": {id}, \"pid\": {}, \"tid\": {}, \"ts\": {ts}}}",
                from as u32 + 1,
                Phase::Send.lane(),
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\": \"critical-path\", \"cat\": \"critical-path\", \"ph\": \"f\", \"bp\": \"e\", \"id\": {id}, \"pid\": {}, \"tid\": {}, \"ts\": {ts}}}",
                h.rank as u32 + 1,
                Phase::Recv.lane(),
            );
        }
    }
    out.push_str("\n]\n}\n");
    out
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
            let compute = m.virt(VirtAcc::Compute);
            let wait = m.virt(VirtAcc::Wait) + m.virt(VirtAcc::Stall);
            let comm = m.virt(VirtAcc::Send)
                + m.virt(VirtAcc::RecvOverhead)
                + m.virt(VirtAcc::Retrans)
                + m.virt(VirtAcc::Drain);
            let recovery = m.virt(VirtAcc::Recovery);
            let overlap_hidden = m.virt(VirtAcc::OverlapHidden);
            ranks.push(RankReport {
                rank,
                local_time,
                compute,
                wait,
                comm,
                recovery,
                overlap_hidden,
                utilization: if local_time > 0.0 {
                    compute / local_time
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

    /// Hand-rolled JSON, same style as the bench artifacts
    /// (`schema: "tilecc-metrics-v1"`; see `docs/observability.md`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut j = String::from("{\n  \"schema\": \"tilecc-metrics-v1\",\n");
        let _ = writeln!(j, "  \"makespan\": {:.9},", self.makespan);
        if let Some(cp) = &self.critical_path {
            let _ = writeln!(j, "  \"critical_path\": {{");
            let _ = writeln!(j, "    \"length\": {:.9},", cp.length);
            let _ = writeln!(j, "    \"hops\": [");
            let nh = cp.hops.len();
            for (k, h) in cp.hops.iter().enumerate() {
                let from = h.from_rank.map_or("null".to_string(), |r| r.to_string());
                let _ = writeln!(
                    j,
                    "      {{\"rank\": {}, \"phase\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"from_rank\": {}}}{}",
                    h.rank,
                    h.phase,
                    h.start,
                    h.end,
                    from,
                    if k + 1 < nh { "," } else { "" }
                );
            }
            let _ = writeln!(j, "    ]");
            let _ = writeln!(j, "  }},");
        }
        let _ = writeln!(j, "  \"ranks\": [");
        let nr = self.ranks.len();
        for (i, r) in self.ranks.iter().enumerate() {
            let _ = writeln!(j, "    {{");
            let _ = writeln!(j, "      \"rank\": {},", r.rank);
            let _ = writeln!(j, "      \"local_time\": {:.9},", r.local_time);
            let _ = writeln!(j, "      \"compute\": {:.9},", r.compute);
            let _ = writeln!(j, "      \"wait\": {:.9},", r.wait);
            let _ = writeln!(j, "      \"comm\": {:.9},", r.comm);
            let _ = writeln!(j, "      \"recovery\": {:.9},", r.recovery);
            let _ = writeln!(j, "      \"overlap_hidden\": {:.9},", r.overlap_hidden);
            let _ = writeln!(j, "      \"utilization\": {:.6},", r.utilization);
            let _ = writeln!(j, "      \"counters\": {{");
            let nc = r.counters.len();
            for (k, (c, v)) in r.counters.iter().enumerate() {
                let _ = writeln!(
                    j,
                    "        \"{}\": {}{}",
                    c.name(),
                    v,
                    if k + 1 < nc { "," } else { "" }
                );
            }
            let _ = writeln!(j, "      }},");
            let _ = writeln!(j, "      \"gauges\": {{");
            let ng = r.gauges.len();
            for (k, (g, v, mx)) in r.gauges.iter().enumerate() {
                let _ = writeln!(
                    j,
                    "        \"{}\": {{\"value\": {}, \"max\": {}}}{}",
                    g.name(),
                    v,
                    mx,
                    if k + 1 < ng { "," } else { "" }
                );
            }
            let _ = writeln!(j, "      }},");
            let _ = writeln!(j, "      \"histograms\": {{");
            let nh = r.hists.len();
            for (k, (h, count, sum, buckets)) in r.hists.iter().enumerate() {
                let bs: Vec<String> = buckets
                    .iter()
                    .map(|(lo, c)| format!("[{lo}, {c}]"))
                    .collect();
                let _ = writeln!(
                    j,
                    "        \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{}",
                    h.name(),
                    count,
                    sum,
                    bs.join(", "),
                    if k + 1 < nh { "," } else { "" }
                );
            }
            let _ = writeln!(j, "      }}");
            let _ = writeln!(j, "    }}{}", if i + 1 < nr { "," } else { "" });
        }
        j.push_str("  ]\n}\n");
        j
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
// Minimal JSON parser (artifact validation and `tilecc report`)
// ---------------------------------------------------------------------------

/// A tiny recursive-descent JSON reader: enough to validate the emitted
/// artifacts and re-render saved metrics, with zero dependencies.
pub mod json {
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

        /// The exact integer value, when the lexeme was an integer.
        pub fn as_i128(&self) -> Option<i128> {
            match self {
                Json::Int(x) => Some(*x),
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

        /// The object fields, in source order.
        pub fn as_obj(&self) -> Option<&[(String, Json)]> {
            match self {
                Json::Obj(v) => Some(v),
                _ => None,
            }
        }
    }

    /// Maximum container nesting the parser accepts. Recursion is bounded
    /// so adversarial input (e.g. 100k `[`s) reports a typed error instead
    /// of overflowing the stack.
    pub const MAX_DEPTH: usize = 128;

    struct P<'a> {
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
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
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
                                if self.i + 4 >= self.s.len() {
                                    return self.err("truncated \\u escape");
                                }
                                let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5])
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let cp = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                                self.i += 4;
                            }
                            _ => return self.err("bad escape"),
                        }
                        self.i += 1;
                    }
                    Some(_) => {
                        // Copy a full UTF-8 scalar.
                        let rest = std::str::from_utf8(&self.s[self.i..])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?;
                        let ch = rest.chars().next().unwrap();
                        out.push(ch);
                        self.i += ch.len_utf8();
                    }
                }
            }
        }

        fn enter(&mut self) -> Result<(), String> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return self.err(&format!("nesting deeper than {MAX_DEPTH} levels"));
            }
            Ok(())
        }

        fn array(&mut self) -> Result<Json, String> {
            self.eat(b'[')?;
            self.enter()?;
            let mut items = Vec::new();
            self.ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                self.depth -= 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.ws();
                match self.peek() {
                    Some(b',') => {
                        self.i += 1;
                    }
                    Some(b']') => {
                        self.i += 1;
                        self.depth -= 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return self.err("expected `,` or `]`"),
                }
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.eat(b'{')?;
            self.enter()?;
            let mut fields = Vec::new();
            self.ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                self.depth -= 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.ws();
                let key = self.string()?;
                self.ws();
                self.eat(b':')?;
                let val = self.value()?;
                fields.push((key, val));
                self.ws();
                match self.peek() {
                    Some(b',') => {
                        self.i += 1;
                    }
                    Some(b'}') => {
                        self.i += 1;
                        self.depth -= 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return self.err("expected `,` or `}`"),
                }
            }
        }
    }

    /// Parse a complete JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = P {
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
        let nz = h.nonzero_buckets();
        assert_eq!(nz, vec![(0, 1), (4, 2), (1 << (HIST_BUCKETS - 1), 1)]);
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
        let j = json::parse(&report.to_json()).expect("metrics JSON must parse");
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
        let trace = reg.chrome_trace();
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
        let j = json::parse(&reg.chrome_trace()).unwrap();
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
            assert_eq!(j.get("c").and_then(|x| x.as_i128()), Some(v as i128));
        }
        // Distinguishes 2^53 from 2^53 + 1, which f64 cannot.
        let a = parse("9007199254740992").unwrap();
        let b = parse("9007199254740993").unwrap();
        assert_ne!(a, b);
        // Negative integers and fractional/exponent forms keep working.
        assert_eq!(parse("-42").unwrap().as_i128(), Some(-42));
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
        let j = json::parse(&report.to_json()).expect("metrics JSON must parse");
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
    /// values whose bit patterns a numeric delta could not reproduce.
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
        m.gauge(GaugeId::WriterQueueDepth).set(17);
        m.hist(HistId::RetransNs).observe(1024);
        m.hist(HistId::RetransNs).observe(1 << 50);
        m.hist(HistId::ComputeTileNs).observe(0);
        m
    }

    #[test]
    fn stats_snapshot_delta_chain_round_trips_bitwise() {
        let m = populated_metrics();
        let a = StatsSnapshot::capture(&m);
        // Absolute frame: a delta against zero().
        let abs = a.encode_delta(&StatsSnapshot::zero());
        let got = StatsSnapshot::apply_delta(&StatsSnapshot::zero(), &abs).unwrap();
        assert_eq!(got, a);

        // Mutate and chain a second (incremental) frame on top.
        m.add(Counter::MessagesSent, 1);
        m.virt_add(VirtAcc::Compute, 0.25);
        m.gauge(GaugeId::WriterQueueDepth).set(1);
        m.hist(HistId::RetransNs).observe(3);
        let b = StatsSnapshot::capture(&m);
        let delta = b.encode_delta(&a);
        let got = StatsSnapshot::apply_delta(&got, &delta).unwrap();
        assert_eq!(got, b);
        // Identical consecutive snapshots encode compactly: one zero byte
        // per field.
        let idle = b.encode_delta(&b);
        assert!(idle.iter().all(|&x| x == 0), "{idle:?}");
    }

    #[test]
    fn stats_snapshot_delta_survives_counter_rewind() {
        // Crash recovery rewinds counters DOWN; the signed zigzag delta
        // must carry the decrease (an unsigned delta would wrap).
        let m = populated_metrics();
        let before = StatsSnapshot::capture(&m);
        m.set(Counter::MessagesSent, 5); // rewound below the previous 42
        m.virt_set(VirtAcc::Compute, 0.125);
        let after = StatsSnapshot::capture(&m);
        let delta = after.encode_delta(&before);
        let got = StatsSnapshot::apply_delta(&before, &delta).unwrap();
        assert_eq!(got, after);
        assert_eq!(got.counter(Counter::MessagesSent), 5);
        assert_eq!(got.virt(VirtAcc::Compute).to_bits(), 0.125f64.to_bits());
    }

    #[test]
    fn stats_snapshot_rejects_corrupt_payloads() {
        let m = populated_metrics();
        let snap = StatsSnapshot::capture(&m);
        let zero = StatsSnapshot::zero();
        let good = snap.encode_delta(&zero);
        // Truncation anywhere must surface as Err, never a panic.
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            assert!(
                StatsSnapshot::apply_delta(&zero, &good[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(StatsSnapshot::apply_delta(&zero, &long).is_err());
        // An unterminated varint (all continuation bits) is rejected.
        assert!(StatsSnapshot::apply_delta(&zero, &[0xFF; 64]).is_err());
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
        let from_reg = RunReport::from_registry(&reg, &local_times).to_json();
        let from_snaps = RunReport::from_snapshots(&snaps, &local_times).to_json();
        assert_eq!(from_reg, from_snaps);
        // And the snapshots survive a wire round-trip first.
        let wired: Vec<StatsSnapshot> = snaps
            .iter()
            .map(|s| {
                let payload = s.encode_delta(&StatsSnapshot::zero());
                StatsSnapshot::apply_delta(&StatsSnapshot::zero(), &payload).unwrap()
            })
            .collect();
        assert_eq!(
            RunReport::from_snapshots(&wired, &local_times).to_json(),
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
        let trace = reg.chrome_trace_with_path(ExportClock::Virtual, Some(&cp));
        let j = json::parse(&trace).expect("trace with flows must parse");
        let events = j.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(phases.iter().filter(|&&p| p == "s").count(), 1);
        assert_eq!(phases.iter().filter(|&&p| p == "f").count(), 1);
        // Flow arrows carry coordinates only on the virtual clock.
        let wall = reg.chrome_trace_with_path(ExportClock::Wall, Some(&cp));
        assert!(!wall.contains("\"ph\": \"s\""), "no flows on wall clock");
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
        // The reported floor is the bucket's power of two.
        let h = Histogram::new();
        h.observe(4096);
        assert_eq!(h.nonzero_buckets(), vec![(4096, 1)]);
    }
}
