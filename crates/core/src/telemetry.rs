//! Request tracing: sampled, lock-free span capture for the serving
//! path.
//!
//! The paper's offload split (edge encodes ∘ obfuscates, host
//! classifies) makes *where per-request time goes* the system's core
//! performance question. This module is the capture half of the answer:
//! a [`Tracer`] hands out [`TraceCtx`] handles (one per request),
//! samples one request in 64 at its birth, and records timestamped
//! [`SpanEvent`]s — `(trace id, stage, t_start, t_end)` — into one
//! lock-free ring of 1,024 slots. The aggregation half (per-[`Stage`]
//! latency histograms, Prometheus text exposition) lives in the serving
//! crate; this layer deliberately knows nothing about models, sockets,
//! or reports.
//!
//! ## Hot-path contract
//!
//! * No locks, ever. Beginning a trace is one `fetch_add`; recording a
//!   span is a handful of `Relaxed` atomic stores into a
//!   seqlock-stamped ring slot.
//! * Unsampled requests cost two branches and zero stores per
//!   [`Tracer::record`] call — unless the span itself lasts at least
//!   25 ms, in which case it is captured regardless of the sampling
//!   decision (slow requests are precisely the ones worth keeping).
//!
//! ## Ring semantics (best effort, by design)
//!
//! The ring is a fixed array of seqlock slots. Writers claim a slot
//! with one `fetch_add` on the ring head and stamp the slot's
//! sequence odd while writing, even when done (a writer that finds its
//! slot already odd drops its event); [`Tracer::snapshot`]
//! re-checks each slot's sequence around its reads and simply skips
//! slots that were mid-write or overwritten. Under overwrite pressure
//! the ring keeps the *newest* events; a torn or lost event is dropped,
//! never surfaced corrupt. Telemetry never blocks serving — that
//! trade-off is the point.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One request in this many is sampled for full span capture.
const SAMPLE_ONE_IN: u64 = 64;
/// Spans at least this long are captured even when their request was
/// not sampled, so tail latency is always explainable.
const SLOW_THRESHOLD: Duration = Duration::from_millis(25);
/// Slots in the span ring; once it wraps, newer events overwrite older
/// ones.
const RING_CAPACITY: usize = 1_024;

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
    /// request in a round-robin turn.
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
    /// Whether this request was selected by 1-in-64 sampling. Slow
    /// spans are captured even when `false`.
    pub sampled: bool,
}

/// One captured span: a stage of one traced request, with start/end
/// timestamps in nanoseconds since the owning tracer's epoch (the
/// instant [`Tracer::new`] built it).
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

/// The span ring: a claim counter plus fixed slots.
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
        // The even → odd step is a compare-exchange, so one writer at a
        // time owns a slot: a writer that finds it odd or loses the race
        // (a full wrap mid-write) drops its event. Two writers storing
        // into one slot could end on an even sequence over mixed fields.
        // Relaxed: a stale value only makes the exchange below fail.
        let seq = slot.seq.load(Ordering::Relaxed);
        let owned = seq & 1 == 0
            && slot
                .seq
                // AcqRel: the bump cannot reorder with either side's
                // payload. Relaxed on failure: the event is dropped.
                .compare_exchange(seq, seq + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok();
        if !owned {
            return;
        }
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

/// The span capture engine: sampling decisions plus the span ring. One
/// per serving engine; shared by `Arc` with the wire thread and every
/// worker.
///
/// # Examples
///
/// ```
/// use std::time::Instant;
/// use privehd_core::telemetry::{Stage, Tracer};
///
/// let tracer = Tracer::new();
/// let ctx = tracer.begin(); // a tracer's first trace is always sampled
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
    epoch: Instant,
    next_trace: AtomicU64,
    ring: Ring,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Builds a tracer with an empty ring; its epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_trace: AtomicU64::new(0),
            ring: Ring::new(RING_CAPACITY),
        }
    }

    /// Starts a trace for a new request: assigns the next id and samples
    /// it if it is the first of a run of 64.
    pub fn begin(&self) -> TraceCtx {
        // Relaxed: trace ids only need uniqueness, and the sampling
        // decision only a fair spread; neither publishes other memory.
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        TraceCtx {
            id: TraceId(n + 1),
            sampled: n.is_multiple_of(SAMPLE_ONE_IN),
        }
    }

    /// Records one span if its request is sampled *or* the span itself
    /// lasts at least 25 ms. Timestamps before the tracer's epoch clamp
    /// to it.
    pub fn record(&self, ctx: TraceCtx, stage: Stage, start: Instant, end: Instant) {
        let slow = end.saturating_duration_since(start) >= SLOW_THRESHOLD;
        if !ctx.sampled && !slow {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let meta = stage.index() as u64 | if slow { META_SLOW_BIT } else { 0 };
        self.ring.push(ctx.id.0, meta, start_ns, end_ns);
    }

    /// Best-effort copy of every currently readable ring event, sorted
    /// by start time. Events mid-write or overwritten during the read
    /// are skipped, never returned torn.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        self.ring.snapshot_into(&mut out);
        out.sort_by_key(|e| (e.start_ns, e.trace, e.stage.index()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sampling_selects_one_in_64() {
        let tracer = Tracer::new();
        let sampled = (0..6_400).filter(|_| tracer.begin().sampled).count();
        assert_eq!(sampled, 100);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let tracer = Tracer::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let ctx = tracer.begin();
            assert_ne!(ctx.id, TraceId(0));
            assert!(seen.insert(ctx.id));
        }
    }

    #[test]
    fn sampled_spans_are_captured_and_unsampled_are_not() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let ctx = tracer.begin();
        assert!(ctx.sampled, "a tracer's first trace is sampled");
        tracer.record(ctx, Stage::Predict, t0, t0 + Duration::from_micros(50));
        let unsampled = tracer.begin();
        assert!(!unsampled.sampled);
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
        let tracer = Tracer::new();
        tracer.begin(); // consume the first (always-sampled) tick
        let ctx = tracer.begin();
        assert!(!ctx.sampled);
        let t0 = Instant::now();
        let just_fast = SLOW_THRESHOLD - Duration::from_nanos(1);
        tracer.record(ctx, Stage::QueueWait, t0, t0 + just_fast);
        tracer.record(ctx, Stage::EndToEnd, t0, t0 + SLOW_THRESHOLD);
        let events = tracer.snapshot();
        assert_eq!(events.len(), 1, "only the slow span qualifies");
        assert_eq!(events[0].stage, Stage::EndToEnd);
        assert_eq!(events[0].duration(), SLOW_THRESHOLD);
        assert!(events[0].slow);
    }

    #[test]
    fn ring_wraps_keep_newest_events() {
        let ring = Ring::new(8);
        let predict = Stage::Predict.index() as u64;
        for i in 1..=100u64 {
            ring.push(i, predict, i, i + 1);
        }
        let mut events = Vec::new();
        ring.snapshot_into(&mut events);
        assert_eq!(events.len(), 8);
        // The ring holds the newest 8 of the 100 pushes.
        for e in &events {
            assert!(e.trace.0 > 92, "stale event {e:?} survived the wrap");
        }
    }

    #[test]
    fn a_push_onto_a_slot_mid_write_drops_its_event() {
        // A writer stalled mid-store leaves its slot odd. A writer that
        // wraps onto the slot meanwhile must not store into it as well:
        // the two could finish on an even sequence over mixed fields.
        let ring = Ring::new(1);
        let predict = Stage::Predict.index() as u64;
        ring.slots[0].seq.store(1, Ordering::Relaxed);
        ring.push(7, predict, 10, 20);
        assert_eq!(ring.slots[0].seq.load(Ordering::Relaxed), 1);
        assert_eq!(ring.slots[0].trace.load(Ordering::Relaxed), 0);
        // Once the stalled writer publishes, the slot takes writes again.
        ring.slots[0].seq.store(2, Ordering::Relaxed);
        ring.push(7, predict, 10, 20);
        let mut events = Vec::new();
        ring.snapshot_into(&mut events);
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].trace, events[0].end_ns), (TraceId(7), 20));
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let ring = std::sync::Arc::new(Ring::new(64));
        let predict = Stage::Predict.index() as u64;
        let mut handles = Vec::new();
        // Miri interprets every access; 2k iterations/writer takes
        // minutes there while 50 still wrap the ring and exercise the
        // seqlock races.
        let iters: u64 = if cfg!(miri) { 50 } else { 2_000 };
        for w in 1..=4u64 {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..iters {
                    // Writer w stamps trace w with spans of w µs: a torn
                    // read would mix one writer's fields with another's.
                    let start = i * 10;
                    ring.push(w, predict, start, start + w * 1_000);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut events = Vec::new();
        ring.snapshot_into(&mut events);
        assert!(!events.is_empty());
        for e in events {
            let micros = e.duration().as_micros();
            assert_eq!(
                u128::from(e.trace.0),
                micros,
                "torn span: {e:?} has duration {micros} µs"
            );
            assert_eq!(e.stage, Stage::Predict, "torn span: {e:?}");
        }
    }
}
