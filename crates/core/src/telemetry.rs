//! Request tracing: sampled, lock-free span capture for the serving
//! path.
//!
//! The paper's offload split (edge encodes ∘ obfuscates, host
//! classifies) makes *where per-request time goes* the system's core
//! performance question. This module is the capture half of the answer:
//! a [`Tracer`] hands out [`TraceCtx`] handles (one per request),
//! decides 1-in-N sampling at request birth, and records timestamped
//! [`SpanEvent`]s — `(trace id, stage, t_start, t_end)` — into sharded
//! lock-free ring buffers. The aggregation half (per-[`Stage`] latency
//! histograms, Prometheus text exposition) lives in the serving crate;
//! this layer deliberately knows nothing about models, sockets, or
//! reports.
//!
//! ## Hot-path contract
//!
//! * No locks, ever. Sampling is one `fetch_add`; recording a span is a
//!   handful of `Relaxed` atomic stores into a seqlock-stamped ring
//!   slot.
//! * Unsampled requests cost two branches and zero stores per
//!   [`Tracer::record`] call — unless the span itself exceeds
//!   [`TelemetryConfig::slow_threshold`], in which case it is captured
//!   regardless of the sampling decision (slow requests are precisely
//!   the ones worth keeping).
//! * A disabled tracer ([`TelemetryConfig::disabled`]) records nothing
//!   and [`Tracer::begin`] marks every context unsampled.
//!
//! ## Ring semantics (best effort, by design)
//!
//! Each shard is a fixed-capacity ring of seqlock slots. Writers claim
//! a slot with one `fetch_add` on the shard head and stamp the slot's
//! sequence odd while writing, even when done; [`Tracer::snapshot`]
//! re-checks each slot's sequence around its reads and simply skips
//! slots that were mid-write or overwritten. Under overwrite pressure
//! the ring keeps the *newest* events; a torn or lost event is dropped,
//! never surfaced corrupt. Telemetry never blocks serving — that
//! trade-off is the point.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One pipeline stage of the serving request path, from wire bytes to
/// the response frame. The order here is the order a healthy request
/// visits them in, except [`Stage::Encode`]: a raw-features request
/// runs it between [`Stage::BatchWait`] and [`Stage::Predict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Decoding the request frame from wire bytes (wire thread).
    WireDecode,
    /// Admission checks up to queue submission (wire thread; recorded
    /// only for requests that entered the queue).
    Admission,
    /// Server-side encode ∘ obfuscate of a raw-features payload, run by
    /// the engine worker serving it (only on the raw path; packed
    /// queries were encoded on the device).
    Encode,
    /// Waiting in the tenant's bounded queue until a worker takes the
    /// request in a deficit-round-robin turn.
    QueueWait,
    /// From being taken until the request's own work (a raw payload's
    /// encode, then scoring) starts: the batch's snapshot resolve, and
    /// the requests ahead of it in the batch.
    BatchWait,
    /// Resolving the batch's model snapshot from the registry (once per
    /// batch).
    SnapshotResolve,
    /// The classification itself.
    Predict,
    /// Encoding the response frame into the connection's write buffer
    /// (wire thread).
    WireWrite,
    /// Submission to prediction, end to end — the span the trace ring
    /// uses to flag slow requests. Not duplicated as a stage histogram:
    /// the end-to-end histogram already exists in the serving metrics.
    EndToEnd,
}

impl Stage {
    /// Every stage, in request-path order.
    pub const ALL: [Stage; 9] = [
        Stage::WireDecode,
        Stage::Admission,
        Stage::Encode,
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::SnapshotResolve,
        Stage::Predict,
        Stage::WireWrite,
        Stage::EndToEnd,
    ];

    /// Number of stages (`Stage::ALL.len()`).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable dense index of this stage (its position in
    /// [`Stage::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Stage::WireDecode => 0,
            Stage::Admission => 1,
            Stage::Encode => 2,
            Stage::QueueWait => 3,
            Stage::BatchWait => 4,
            Stage::SnapshotResolve => 5,
            Stage::Predict => 6,
            Stage::WireWrite => 7,
            Stage::EndToEnd => 8,
        }
    }

    /// Inverse of [`Stage::index`]; `None` for out-of-range values
    /// (e.g. a ring slot written by a future build).
    pub fn from_index(idx: usize) -> Option<Stage> {
        Self::ALL.get(idx).copied()
    }

    /// Stable snake_case name, used as the Prometheus `stage` label.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::WireDecode => "wire_decode",
            Stage::Admission => "admission",
            Stage::Encode => "encode",
            Stage::QueueWait => "queue_wait",
            Stage::BatchWait => "batch_wait",
            Stage::SnapshotResolve => "snapshot_resolve",
            Stage::Predict => "predict",
            Stage::WireWrite => "wire_write",
            Stage::EndToEnd => "end_to_end",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Opaque per-request trace identifier, unique within one [`Tracer`]
/// (monotonic from 1; 0 never occurs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-request tracing context: the id plus the sampling decision made
/// once at [`Tracer::begin`]. `Copy`, two words — thread it through the
/// request path by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// This request's trace id.
    pub id: TraceId,
    /// Whether this request was selected by 1-in-N sampling. Slow spans
    /// are captured even when `false`.
    pub sampled: bool,
}

impl TraceCtx {
    /// A context that records nothing (unless a span is slow on an
    /// enabled tracer). Useful for paths with no tracer in scope.
    pub fn unsampled() -> Self {
        Self {
            id: TraceId(0),
            sampled: false,
        }
    }
}

/// Tracing configuration, carried inside the serving engine's config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. When `false`, [`Tracer::record`] is a no-op and
    /// [`Tracer::begin`] never samples — stage *histograms* in the
    /// serving layer still record (they are counters, not traces).
    pub enabled: bool,
    /// Sample one request in this many for full span capture (≥ 1;
    /// `1` traces everything).
    pub sample_one_in: u64,
    /// Spans at least this long are captured even when their request
    /// was not sampled, so tail latency is always explainable.
    pub slow_threshold: Duration,
    /// Slots per ring shard; older events are overwritten by newer ones
    /// once a shard wraps.
    pub ring_capacity: usize,
    /// Number of ring shards. Writer threads spread across shards by a
    /// cheap thread-local id, so concurrent writers rarely contend on a
    /// slot.
    pub shards: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            sample_one_in: 64,
            slow_threshold: Duration::from_millis(25),
            ring_capacity: 256,
            shards: 4,
        }
    }
}

impl TelemetryConfig {
    /// A configuration that captures nothing: sampling off, no slow
    /// capture, rings never written. The baseline for overhead
    /// measurements.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// One captured span: a stage of one traced request, with start/end
/// timestamps in nanoseconds since the owning tracer's epoch
/// ([`Tracer::epoch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The request this span belongs to.
    pub trace: TraceId,
    /// Which pipeline stage the span covers.
    pub stage: Stage,
    /// Span start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Span end, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// True when the span exceeded the slow threshold (i.e. it may be
    /// present even though its request was not sampled).
    pub slow: bool,
}

impl SpanEvent {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// One seqlock-stamped ring slot. `seq == 0` means never written; odd
/// means a writer is mid-store; a reader accepts a slot only when it
/// observes the same even sequence before and after its field reads.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    /// Stage index in the low byte, slow flag in bit 8.
    meta: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
        }
    }
}

const META_SLOW_BIT: u64 = 1 << 8;

/// One ring shard: a claim counter plus fixed slots.
#[derive(Debug)]
struct Ring {
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
        }
    }

    fn push(&self, trace: u64, meta: u64, start_ns: u64, end_ns: u64) {
        // Relaxed: the head only distributes slot indices; payload
        // visibility is ordered by the per-slot seqlock, not the claim.
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim as usize) % self.slots.len()];
        // Seqlock write: odd while storing, even (and advanced) after.
        // Two writers racing one slot (a full wrap mid-write) can leave
        // a sequence readers reject — the event is dropped, not torn.
        // AcqRel: the bump cannot reorder with either side's payload.
        let seq = slot.seq.fetch_add(1, Ordering::AcqRel);
        // Relaxed payload stores: the Release store of `seq` below
        // publishes them; readers reject torn reads via the sequence.
        slot.trace.store(trace, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        // Relaxed: as above.
        slot.end_ns.store(end_ns, Ordering::Relaxed);
        // Release: pairs with the Acquire seq load in `snapshot_into`.
        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    fn snapshot_into(&self, out: &mut Vec<SpanEvent>) {
        for slot in &self.slots {
            // Acquire: pairs with the writer's Release seq store — the
            // payload loads below cannot float above this check.
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue; // never written, or mid-write
            }
            // Relaxed payload loads: bracketed by the Acquire above
            // and the fence + seq recheck below, which rejects torn
            // reads instead of ordering them.
            let trace = slot.trace.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            // Relaxed: as above.
            let end_ns = slot.end_ns.load(Ordering::Relaxed);
            // Acquire fence: orders the payload loads before the seq
            // recheck; a writer bumps seq (AcqRel) before touching the
            // payload, so an unchanged Relaxed reload proves the loads
            // above were not torn.
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten while reading
            }
            let Some(stage) = Stage::from_index((meta & 0xFF) as usize) else {
                continue;
            };
            out.push(SpanEvent {
                trace: TraceId(trace),
                stage,
                start_ns,
                end_ns,
                slow: meta & META_SLOW_BIT != 0,
            });
        }
    }
}

/// Cheap stable per-thread id for shard selection: threads take
/// sequential ids on first use, so a fixed worker pool spreads evenly
/// over shards.
fn thread_shard_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        // Relaxed: ids only need uniqueness, not ordering with any
        // other memory.
        static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|&id| id)
}

/// The span capture engine: sampling decisions plus sharded event
/// rings. One per serving engine; shared by `Arc` with the wire thread
/// and every worker.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use privehd_core::telemetry::{Stage, TelemetryConfig, Tracer};
///
/// let tracer = Tracer::new(TelemetryConfig {
///     sample_one_in: 1, // trace everything
///     ..TelemetryConfig::default()
/// });
/// let ctx = tracer.begin();
/// assert!(ctx.sampled);
/// let start = Instant::now();
/// // ... work ...
/// tracer.record(ctx, Stage::Predict, start, Instant::now());
/// let events = tracer.snapshot();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].stage, Stage::Predict);
/// ```
#[derive(Debug)]
pub struct Tracer {
    cfg: TelemetryConfig,
    epoch: Instant,
    next_trace: AtomicU64,
    tick: AtomicU64,
    recorded: AtomicU64,
    shards: Vec<Ring>,
}

impl Tracer {
    /// Builds a tracer; zero-valued `sample_one_in`, `ring_capacity`,
    /// or `shards` are clamped up to 1 (a tracer never fails to
    /// construct — telemetry must not be able to take serving down).
    pub fn new(cfg: TelemetryConfig) -> Self {
        let cfg = TelemetryConfig {
            sample_one_in: cfg.sample_one_in.max(1),
            ring_capacity: cfg.ring_capacity.max(1),
            shards: cfg.shards.max(1),
            ..cfg
        };
        let shards = (0..cfg.shards)
            .map(|_| Ring::new(cfg.ring_capacity))
            .collect();
        Self {
            cfg,
            epoch: Instant::now(),
            next_trace: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            shards,
        }
    }

    /// A tracer that records nothing — [`TelemetryConfig::disabled`]
    /// shaped into a value. The overhead-comparison baseline.
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig::disabled())
    }

    /// The configuration this tracer runs with (after clamping).
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// The instant all [`SpanEvent`] timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Starts a trace for a new request: assigns the next id and makes
    /// the 1-in-N sampling decision. On a disabled tracer the context
    /// is always unsampled.
    pub fn begin(&self) -> TraceCtx {
        // Relaxed (both counters): trace ids only need uniqueness and
        // the sampling tick only needs fair distribution; neither
        // publishes any other memory.
        let id = TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed) + 1);
        let sampled = self.cfg.enabled
            && self
                .tick
                .fetch_add(1, Ordering::Relaxed) // Relaxed: as above
                .is_multiple_of(self.cfg.sample_one_in);
        TraceCtx { id, sampled }
    }

    /// Records one span if it qualifies: the tracer is enabled, and the
    /// request is sampled *or* the span itself is at least
    /// [`TelemetryConfig::slow_threshold`] long. Timestamps before the
    /// tracer's epoch clamp to it.
    pub fn record(&self, ctx: TraceCtx, stage: Stage, start: Instant, end: Instant) {
        if !self.cfg.enabled {
            return;
        }
        let slow = end.saturating_duration_since(start) >= self.cfg.slow_threshold;
        if !ctx.sampled && !slow {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let meta = stage.index() as u64 | if slow { META_SLOW_BIT } else { 0 };
        let shard = &self.shards[thread_shard_id() % self.shards.len()];
        shard.push(ctx.id.0, meta, start_ns, end_ns);
        // Relaxed: statistics counter; readers tolerate lag.
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Total events ever pushed into the rings (including ones since
    /// overwritten).
    pub fn events_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Best-effort copy of every currently readable ring event, sorted
    /// by start time. Events mid-write or overwritten during the read
    /// are skipped, never returned torn.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.snapshot_into(&mut out);
        }
        out.sort_by_key(|e| (e.start_ns, e.trace, e.stage.index()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(sample_one_in: u64) -> TelemetryConfig {
        TelemetryConfig {
            enabled: true,
            sample_one_in,
            slow_threshold: Duration::from_secs(3_600), // never slow in tests
            ring_capacity: 1_024,
            shards: 2,
        }
    }

    #[test]
    fn stage_index_roundtrips_and_names_are_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(Stage::from_index(i), Some(*stage));
            assert!(names.insert(stage.as_str()), "duplicate name {stage}");
        }
        assert_eq!(Stage::from_index(Stage::COUNT), None);
    }

    #[test]
    fn sampling_selects_one_in_n() {
        let tracer = Tracer::new(cfg(8));
        let sampled = (0..800).filter(|_| tracer.begin().sampled).count();
        assert_eq!(sampled, 100);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let tracer = Tracer::new(cfg(4));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let ctx = tracer.begin();
            assert_ne!(ctx.id, TraceId(0));
            assert!(seen.insert(ctx.id));
        }
    }

    #[test]
    fn sampled_spans_are_captured_and_unsampled_are_not() {
        let tracer = Tracer::new(cfg(1));
        let t0 = Instant::now();
        let ctx = tracer.begin();
        tracer.record(ctx, Stage::Predict, t0, t0 + Duration::from_micros(50));
        let unsampled = TraceCtx {
            id: TraceId(999),
            sampled: false,
        };
        tracer.record(
            unsampled,
            Stage::Predict,
            t0,
            t0 + Duration::from_micros(50),
        );
        let events = tracer.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace, ctx.id);
        assert_eq!(events[0].stage, Stage::Predict);
        assert!(!events[0].slow);
        assert_eq!(events[0].duration(), Duration::from_micros(50));
    }

    #[test]
    fn slow_spans_are_captured_despite_sampling() {
        let mut c = cfg(u64::MAX); // effectively never sampled
        c.slow_threshold = Duration::from_millis(10);
        let tracer = Tracer::new(c);
        tracer.begin(); // consume the first (always-sampled) tick
        let ctx = tracer.begin();
        assert!(!ctx.sampled);
        let t0 = Instant::now();
        tracer.record(ctx, Stage::QueueWait, t0, t0 + Duration::from_micros(10));
        tracer.record(ctx, Stage::EndToEnd, t0, t0 + Duration::from_millis(50));
        let events = tracer.snapshot();
        assert_eq!(events.len(), 1, "only the slow span qualifies");
        assert_eq!(events[0].stage, Stage::EndToEnd);
        assert!(events[0].slow);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let t0 = Instant::now();
        for _ in 0..100 {
            let ctx = tracer.begin();
            assert!(!ctx.sampled);
            tracer.record(ctx, Stage::Predict, t0, t0 + Duration::from_secs(10));
        }
        assert!(tracer.snapshot().is_empty());
        assert_eq!(tracer.events_recorded(), 0);
    }

    #[test]
    fn ring_wraps_keep_newest_events() {
        let mut c = cfg(1);
        c.ring_capacity = 8;
        c.shards = 1;
        let tracer = Tracer::new(c);
        let t0 = Instant::now();
        for i in 0..100u64 {
            let ctx = tracer.begin();
            tracer.record(
                ctx,
                Stage::Predict,
                t0 + Duration::from_nanos(i),
                t0 + Duration::from_nanos(i + 1),
            );
        }
        let events = tracer.snapshot();
        assert_eq!(events.len(), 8);
        // The ring holds the newest 8 of the 100 traces.
        for e in &events {
            assert!(e.trace.0 > 92, "stale event {e:?} survived the wrap");
        }
        assert_eq!(tracer.events_recorded(), 100);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let mut c = cfg(1);
        c.ring_capacity = 64;
        c.shards = 2;
        let tracer = std::sync::Arc::new(Tracer::new(c));
        let t0 = tracer.epoch();
        let mut handles = Vec::new();
        // Miri interprets every access; 2k iterations/writer takes
        // minutes there while 50 still exercise the seqlock races.
        let iters: u64 = if cfg!(miri) { 50 } else { 2_000 };
        for w in 0..4u64 {
            let tracer = std::sync::Arc::clone(&tracer);
            handles.push(std::thread::spawn(move || {
                for i in 0..iters {
                    let ctx = tracer.begin();
                    // Writer w stamps spans with duration w+1 µs: a torn
                    // read would mix durations across writers.
                    let start = t0 + Duration::from_nanos(i * 10);
                    let end = start + Duration::from_micros(w + 1);
                    tracer.record(ctx, Stage::Predict, start, end);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for e in tracer.snapshot() {
            let micros = e.duration().as_micros();
            assert!(
                (1..=4).contains(&micros),
                "torn span: {e:?} has duration {micros} µs"
            );
        }
    }

    #[test]
    fn zero_config_values_are_clamped() {
        let tracer = Tracer::new(TelemetryConfig {
            enabled: true,
            sample_one_in: 0,
            slow_threshold: Duration::ZERO,
            ring_capacity: 0,
            shards: 0,
        });
        assert_eq!(tracer.config().sample_one_in, 1);
        assert_eq!(tracer.config().ring_capacity, 1);
        assert_eq!(tracer.config().shards, 1);
        assert!(tracer.begin().sampled);
    }
}
