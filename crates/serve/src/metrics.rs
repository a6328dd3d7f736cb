//! Serving metrics: throughput, latency quantiles and the mean batch
//! size — global and per model.
//!
//! Recording happens on worker threads, so every counter is atomic and
//! the latency histogram uses fixed buckets of atomic counters — no
//! locks on the hot path (the per-model table takes a brief read lock
//! to find a model's counters, and a write lock only the first time a
//! model is seen). Quantiles are read back as the *upper* edge of the
//! bucket containing the requested rank — a conservative bound that is
//! never below the true quantile — which is exact enough for
//! p50/p95/p99 reporting at the ~20% bucket granularity used here.
//!
//! Besides the end-to-end latency histogram, the metrics keep one
//! global histogram per pipeline [`Stage`], fed by the engine's workers
//! and the wire server's reactors; see `docs/OBSERVABILITY.md` for the
//! stage taxonomy.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use privehd_core::telemetry::{Stage, TraceCtx, Tracer};

use crate::registry::ModelId;

/// Number of latency buckets; the last bucket is the overflow
/// catch-all. 109 buckets at 1.2× growth from 100 ns span up to ~36 s,
/// so even deeply backed-up queues report honest tail quantiles.
const LATENCY_BUCKETS: usize = 109;
/// Lower edge of bucket 0 in nanoseconds (100 ns): sub-microsecond
/// stages such as `snapshot_resolve` get quantiles of their own instead
/// of all reading bucket 0's upper edge.
const LATENCY_BASE_NS: f64 = 100.0;
/// Geometric growth factor between bucket edges (~20%).
const LATENCY_GROWTH: f64 = 1.2;

/// The shared integer bucket-edge table: `edges[i]` is the lower edge
/// of bucket `i` in nanoseconds. Both the write path
/// ([`LatencyHistogram::record`]) and the read path
/// ([`LatencyHistogram::quantile`]) index into this one table, so an
/// edge-exact sample always lands in the bucket whose reported lower
/// edge equals the sample — the former `ln()`-index / `powi()`-edge
/// pair could disagree by one bucket at edge values due to float
/// roundoff.
fn latency_edges() -> &'static [u64; LATENCY_BUCKETS] {
    static EDGES: OnceLock<[u64; LATENCY_BUCKETS]> = OnceLock::new();
    EDGES.get_or_init(|| {
        let mut edges = [0u64; LATENCY_BUCKETS];
        let mut edge = LATENCY_BASE_NS;
        for e in &mut edges {
            *e = edge.round() as u64;
            edge *= LATENCY_GROWTH;
        }
        edges
    })
}

/// Fixed-bucket latency histogram with atomic counters.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    /// Set once `sum_ns` would have wrapped `u64`; from then on the sum
    /// is pinned at `u64::MAX` and [`LatencyHistogram::mean`] is a
    /// lower bound. Without this, ~days of sustained ms-scale latencies
    /// silently wrapped the sum and corrupted the mean.
    sum_saturated: AtomicBool,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..LATENCY_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            sum_saturated: AtomicBool::new(false),
        }
    }

    /// Bucket `i` covers `[edges[i], edges[i+1])`; samples below
    /// `edges[0]` share bucket 0, samples at or above the last edge
    /// share the overflow bucket.
    fn bucket_for(ns: u64) -> usize {
        latency_edges()
            .partition_point(|&edge| edge <= ns)
            .saturating_sub(1)
    }

    /// Lower edge of bucket `idx`, in nanoseconds — same table as
    /// [`LatencyHistogram::bucket_for`].
    fn bucket_edge_ns(idx: usize) -> u64 {
        latency_edges()[idx]
    }

    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        // Relaxed throughout this histogram: independent statistics
        // counters; readers tolerate momentarily inconsistent cells.
        self.buckets[Self::bucket_for(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating accumulation: a wrapped sum would silently corrupt
        // the mean after ~days of sustained ms-scale traffic. The
        // fetch_add itself may wrap once; detecting it via the previous
        // value pins the sum at MAX and raises the flag, so the mean
        // degrades to an explicit lower bound instead of garbage.
        let prev = self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if prev.checked_add(ns).is_none() {
            // Relaxed: the saturation pin and flag are advisory
            // statistics; no ordering with other memory is needed.
            self.sum_ns.store(u64::MAX, Ordering::Relaxed);
            self.sum_saturated.store(true, Ordering::Relaxed);
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        // Relaxed: statistics read; tolerates in-flight updates.
        self.count.load(Ordering::Relaxed)
    }

    /// True once the nanosecond sum saturated; from then on
    /// [`LatencyHistogram::mean`] is a lower bound, not an exact mean.
    pub fn sum_saturated(&self) -> bool {
        // Relaxed: statistics read; tolerates in-flight updates.
        self.sum_saturated.load(Ordering::Relaxed)
    }

    /// Mean latency, or zero when empty. A lower bound once
    /// [`LatencyHistogram::sum_saturated`] is set.
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        // Relaxed: statistics read; tolerates in-flight updates.
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed) / n)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the *upper* edge of the bucket
    /// holding that rank — a conservative bound: the reported value is
    /// never below the true quantile (the lower edge, reported before,
    /// under-reported by up to one bucket width, ~20% here). The
    /// overflow bucket has no upper edge; its lower edge is reported,
    /// making the top bucket the one place the bound can be exceeded.
    /// Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            // Relaxed: statistics read; a racing record() shifts the
            // quantile by at most one observation.
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper edge of bucket `idx`; the overflow bucket keeps
                // its lower edge (it is unbounded above).
                let edge = (idx + 1).min(LATENCY_BUCKETS - 1);
                return Duration::from_nanos(Self::bucket_edge_ns(edge));
            }
        }
        Duration::from_nanos(Self::bucket_edge_ns(LATENCY_BUCKETS - 1))
    }
}

/// Cap on distinct per-model rows. Client-supplied [`ModelId`]s enter
/// the table on first submission — before any registry lookup — so a
/// client spraying unique (typoed, hostile) ids would otherwise grow
/// the table and every report without bound. Ids past the cap share
/// the [`MODEL_OVERFLOW_NAME`] row.
const MAX_MODEL_ROWS: usize = 1_024;

/// Reserved row name aggregating every id beyond [`MAX_MODEL_ROWS`]
/// (`~` sorts after ASCII letters, so the row lists last). The name is
/// reserved outright: a client-supplied id spelled `"~other"` records
/// into this shared row too, so it can never mint — or alias — a
/// regular table row.
const MODEL_OVERFLOW_NAME: &str = "~other";

/// One latency histogram per pipeline [`Stage`] (indexed by
/// [`Stage::index`]). [`Stage::EndToEnd`] is never reported from here:
/// the end-to-end histogram is [`ServeMetrics`]'s own latency
/// histogram.
#[derive(Debug)]
struct StageSet {
    histograms: Vec<LatencyHistogram>,
}

impl Default for StageSet {
    fn default() -> Self {
        Self {
            histograms: (0..Stage::COUNT).map(|_| LatencyHistogram::new()).collect(),
        }
    }
}

impl StageSet {
    fn get(&self, stage: Stage) -> &LatencyHistogram {
        &self.histograms[stage.index()]
    }

    /// One [`StageReport`] per stage that recorded at least once, in
    /// request-path order ([`Stage::ALL`]). `EndToEnd` never appears
    /// (it has no histogram here).
    fn report(&self) -> Vec<StageReport> {
        Stage::ALL
            .iter()
            .filter(|s| **s != Stage::EndToEnd)
            .filter_map(|&stage| {
                let h = self.get(stage);
                let count = h.count();
                (count > 0).then(|| StageReport {
                    stage,
                    count,
                    mean: h.mean(),
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                    sum_saturated: h.sum_saturated(),
                })
            })
            .collect()
    }
}

/// Per-model counters: one row of the multi-tenant metrics table.
#[derive(Debug, Default)]
pub(crate) struct ModelCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    latency: LatencyHistogram,
    /// Snapshot footprint gauges, refreshed by workers at batch
    /// dispatch: bytes held by the dense `ClassMatrix` and by the packed
    /// snapshot (sign words plus one scale per class; 0 while the model
    /// has no packed form). Gauges, not counters — each batch overwrites
    /// them with the currently served snapshot's sizes.
    memory_dense_bytes: AtomicU64,
    memory_packed_bytes: AtomicU64,
}

/// Live serving counters, shared between engine threads and callers.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    /// Panics engine workers caught and contained: one per panic, in a
    /// scored block, one request's scoring or edge, or a reply callback.
    panics_contained: AtomicU64,
    latency: LatencyHistogram,
    stages: StageSet,
    per_model: RwLock<HashMap<ModelId, Arc<ModelCounters>>>,
    /// The `~other` row, kept out of `per_model` (the name is reserved:
    /// a client id spelled `"~other"` also lands here rather than
    /// minting a table row), so past-cap ids resolve lock-free instead
    /// of hitting the write lock per submission.
    overflow_row: OnceLock<Arc<ModelCounters>>,
    /// The [`ModelId::DEFAULT_NAME`] row, kept out of `per_model` like
    /// the overflow row: the legacy single-model path records per
    /// request and never pays the `per_model` lock for the id it always
    /// uses — and the row cannot be displaced into `~other` by an id
    /// spray that fills the table before default traffic arrives.
    default_row: OnceLock<Arc<ModelCounters>>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_queries: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            stages: StageSet::default(),
            per_model: RwLock::new(HashMap::new()),
            overflow_row: OnceLock::new(),
            default_row: OnceLock::new(),
        }
    }
}

impl ServeMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wall-clock time since these metrics were created (the engine's
    /// start). `ServeEngine::report` and the wire-side stats exposition
    /// both derive their throughput window from this.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The counters row for `model`, created on first sight — or the
    /// shared overflow row once [`MAX_MODEL_ROWS`] distinct ids exist
    /// (and for the reserved `"~other"` id itself). The default id has
    /// its own reserved lock-free row, exempt from the cap. Callers
    /// serving a whole batch fetch the row once and record through it,
    /// instead of paying the table lookup per request.
    pub(crate) fn model_counters(&self, model: &ModelId) -> Arc<ModelCounters> {
        if model.as_str() == ModelId::DEFAULT_NAME {
            return Arc::clone(self.default_row.get_or_init(Default::default));
        }
        if model.as_str() == MODEL_OVERFLOW_NAME {
            return Arc::clone(self.overflow_row.get_or_init(Default::default));
        }
        {
            let table = self.per_model.read().expect("metrics lock poisoned");
            if let Some(c) = table.get(model) {
                return Arc::clone(c);
            }
            // At the cap, unseen ids share the overflow row without
            // ever taking the write lock again.
            if table.len() >= MAX_MODEL_ROWS {
                return Arc::clone(self.overflow_row.get_or_init(Default::default));
            }
        }
        let mut table = self.per_model.write().expect("metrics lock poisoned");
        if table.len() >= MAX_MODEL_ROWS && !table.contains_key(model) {
            return Arc::clone(self.overflow_row.get_or_init(Default::default));
        }
        Arc::clone(table.entry(model.clone()).or_default())
    }

    pub(crate) fn on_submit(&self, model: &ModelId) {
        // Relaxed throughout these hooks: independent statistics
        // counters; report() reads them without cross-counter ordering
        // guarantees (see the comment there on read order).
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.model_counters(model)
            .submitted
            .fetch_add(1, Ordering::Relaxed); // Relaxed: as above.
    }

    pub(crate) fn on_reject(&self) {
        // Relaxed: independent statistics counter.
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_batch(&self, size: usize) {
        // Relaxed: independent statistics counters.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries
            .fetch_add(size as u64, Ordering::Relaxed);
    }

    /// Counts one panic an engine worker caught (see
    /// [`ServeReport::panics_contained`]).
    pub(crate) fn on_panic_contained(&self) {
        // Relaxed: independent statistics counter.
        self.panics_contained.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one finished request against a pre-fetched per-model row
    /// (see [`ServeMetrics::model_counters`]).
    pub(crate) fn on_done(&self, counters: &ModelCounters, ok: bool, latency: Duration) {
        // Relaxed: independent statistics counters.
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
            counters.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            // Relaxed: as above.
            self.failed.fetch_add(1, Ordering::Relaxed);
            counters.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency);
        counters.latency.record(latency);
    }

    /// Overwrites the snapshot-footprint gauges of a pre-fetched
    /// per-model row with the served snapshot's matrix sizes (dense
    /// `ClassMatrix` bytes, packed snapshot bytes — 0 when the model has
    /// no packed representation).
    pub(crate) fn set_model_memory(&self, counters: &ModelCounters, dense: u64, packed: u64) {
        // Relaxed: last-writer-wins gauges; no other memory published.
        counters.memory_dense_bytes.store(dense, Ordering::Relaxed);
        counters
            .memory_packed_bytes
            .store(packed, Ordering::Relaxed); // Relaxed: as above.
    }

    /// Records one stage of the request traced by `ctx`, from `start`
    /// to `end`: its duration into the global stage histogram, its span
    /// into `tracer`'s sampled ring. Every stage is recorded through
    /// this one call, so a histogram row and its span always cover the
    /// same interval.
    pub(crate) fn stamp(
        &self,
        tracer: &Tracer,
        ctx: TraceCtx,
        stage: Stage,
        start: Instant,
        end: Instant,
    ) {
        self.stages
            .get(stage)
            .record(end.saturating_duration_since(start));
        tracer.record(ctx, stage, start, end);
    }

    /// Snapshot of every counter plus derived rates, over `elapsed` of
    /// wall-clock serving time.
    pub fn report(&self, elapsed: Duration) -> ServeReport {
        // Read order against racing writers: each request records its
        // end-to-end outcome *first* and its stage durations *after*
        // (and each batch counts itself before its snapshot-resolve
        // stage), so snapshotting the stage histograms before loading
        // the completion/batch counters keeps every report coherent —
        // per-request stage counts never exceed the end-to-end count,
        // snapshot-resolve never exceeds the batch count. Reversed
        // reads would let a request that finished in between inflate a
        // stage past the already-loaded end-to-end value.
        let stages = self.stages.report();
        // Relaxed loads throughout the report: each counter is
        // independent; the coherence that matters is the *program
        // order* of these reads, explained above.
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_queries.load(Ordering::Relaxed);
        let model_row = |model: ModelId, c: &ModelCounters| ModelReport {
            model,
            // Relaxed: independent statistics reads.
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            p50_latency: c.latency.quantile(0.50),
            p95_latency: c.latency.quantile(0.95),
            p99_latency: c.latency.quantile(0.99),
            latency_sum_saturated: c.latency.sum_saturated(),
            // Relaxed: gauge reads; independent of the counters.
            memory_dense_bytes: c.memory_dense_bytes.load(Ordering::Relaxed),
            memory_packed_bytes: c.memory_packed_bytes.load(Ordering::Relaxed),
        };
        let mut per_model: Vec<ModelReport> = self
            .per_model
            .read()
            .expect("metrics lock poisoned")
            .iter()
            .map(|(model, c)| model_row(model.clone(), c))
            .collect();
        if let Some(c) = self.default_row.get() {
            per_model.push(model_row(ModelId::default(), c));
        }
        if let Some(c) = self.overflow_row.get() {
            per_model.push(model_row(ModelId::new(MODEL_OVERFLOW_NAME), c));
        }
        per_model.sort_by(|a, b| a.model.cmp(&b.model));
        ServeReport {
            // Relaxed: independent statistics reads (see above).
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            // Relaxed: as above.
            failed: self.failed.load(Ordering::Relaxed),
            batches,
            // Relaxed: as above.
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            throughput_qps: if elapsed.is_zero() {
                0.0
            } else {
                completed as f64 / elapsed.as_secs_f64()
            },
            mean_latency: self.latency.mean(),
            p50_latency: self.latency.quantile(0.50),
            p95_latency: self.latency.quantile(0.95),
            p99_latency: self.latency.quantile(0.99),
            latency_sum_saturated: self.latency.sum_saturated(),
            stages,
            per_model,
        }
    }
}

/// Latency summary of one pipeline stage: one row of the stage-level
/// decomposition in a [`ServeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// The pipeline stage this row summarizes.
    pub stage: Stage,
    /// Observations recorded for this stage.
    pub count: u64,
    /// Mean stage duration (a lower bound when `sum_saturated`).
    pub mean: Duration,
    /// Median stage duration (conservative upper bucket edge).
    pub p50: Duration,
    /// 95th-percentile stage duration.
    pub p95: Duration,
    /// 99th-percentile stage duration.
    pub p99: Duration,
    /// True once this stage's nanosecond sum saturated, making `mean` a
    /// lower bound.
    pub sum_saturated: bool,
}

impl std::fmt::Display for StageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>16}: n={:<8} mean {:?}  p50 {:?}  p95 {:?}  p99 {:?}{}",
            self.stage.as_str(),
            self.count,
            self.mean,
            self.p50,
            self.p95,
            self.p99,
            if self.sum_saturated {
                "  (sum saturated)"
            } else {
                ""
            }
        )
    }
}

/// Per-model slice of a [`ServeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelReport {
    /// The model these counters belong to.
    pub model: ModelId,
    /// Requests accepted into the queue for this model.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Median end-to-end latency for this model's requests.
    pub p50_latency: Duration,
    /// 95th-percentile end-to-end latency.
    pub p95_latency: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: Duration,
    /// True once this model's latency sum saturated (its mean — not
    /// reported here — became a lower bound).
    pub latency_sum_saturated: bool,
    /// Bytes held by the served snapshot's dense scoring matrix
    /// (`privehd_core::ClassMatrix`), as of the last dispatched batch;
    /// 0 until this model serves its first batch.
    pub memory_dense_bytes: u64,
    /// Bytes held by the served snapshot's packed scoring rows (sign
    /// words plus one scale per class,
    /// `privehd_core::ModelPlan::packed_memory_bytes`); 0 when the
    /// model's rows are not each exactly `scale × sign` (or until the
    /// first batch). For sign-only models this runs ~64× below
    /// [`ModelReport::memory_dense_bytes`] — the shrink the paper's
    /// 1-bit representation buys.
    pub memory_packed_bytes: u64,
}

/// Point-in-time summary of serving behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests refused at admission: their tenant's queue was at its
    /// quota ([`crate::ServeError::TenantOverQuota`]) or the engine-wide
    /// queue was full ([`crate::ServeError::QueueFull`]).
    pub rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Batches dispatched to the worker pool.
    pub batches: u64,
    /// Panics engine workers caught and contained, one per panic: in a
    /// scored block of packed queries (which answers each of its
    /// requests [`crate::ServeError::Internal`]), in one request's
    /// scoring or edge, or in a reply callback.
    pub panics_contained: u64,
    /// Mean dispatched batch size.
    pub mean_batch_size: f64,
    /// Completed queries per second of wall-clock time.
    pub throughput_qps: f64,
    /// Mean end-to-end request latency.
    pub mean_latency: Duration,
    /// Median end-to-end request latency.
    pub p50_latency: Duration,
    /// 95th-percentile end-to-end request latency.
    pub p95_latency: Duration,
    /// 99th-percentile end-to-end request latency.
    pub p99_latency: Duration,
    /// True once the end-to-end latency sum saturated, making
    /// `mean_latency` a lower bound rather than an exact mean.
    pub latency_sum_saturated: bool,
    /// Per-stage latency decomposition across all models, in
    /// request-path order; stages with no observations are omitted.
    /// Wire-side stages (decode, admission, write) only populate when a
    /// `WireServer` fronts the engine.
    pub stages: Vec<StageReport>,
    /// Per-model counters and latency quantiles, sorted by [`ModelId`].
    /// One entry per model that received at least one submission, up to
    /// an internal cap on distinct ids — traffic for ids beyond the cap
    /// aggregates into one `"~other"` row, so hostile or typoed ids
    /// cannot grow the table (or this report) without bound.
    pub per_model: Vec<ModelReport>,
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "served {}/{} requests ({} rejected, {} failed) in {} batches (mean size {:.1})",
            self.completed,
            self.submitted,
            self.rejected,
            self.failed,
            self.batches,
            self.mean_batch_size
        )?;
        writeln!(f, "throughput: {:.0} queries/s", self.throughput_qps)?;
        write!(
            f,
            "latency: mean {:?}  p50 {:?}  p95 {:?}  p99 {:?}{}",
            self.mean_latency,
            self.p50_latency,
            self.p95_latency,
            self.p99_latency,
            if self.latency_sum_saturated {
                "  (sum saturated)"
            } else {
                ""
            }
        )?;
        for s in &self.stages {
            write!(f, "\n{s}")?;
        }
        for m in &self.per_model {
            write!(
                f,
                "\nmodel {}: {}/{} ok, {} failed  p50 {:?}  p95 {:?}  p99 {:?}",
                m.model,
                m.completed,
                m.submitted,
                m.failed,
                m.p50_latency,
                m.p95_latency,
                m.p99_latency
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn quantiles_are_ordered_and_bracket_the_data() {
        let h = LatencyHistogram::new();
        for us in 1..=1_000u64 {
            h.record(Duration::from_micros(us));
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50:?} {p95:?} {p99:?}");
        // Upper-edge reporting: never below the true quantile, at most
        // one growth factor (~20%) above it.
        assert!(p50 > Duration::from_micros(500) && p50 <= Duration::from_micros(620));
        assert!(p99 >= Duration::from_micros(990));
        assert!(h.mean() >= Duration::from_micros(400));
        assert!(!h.sum_saturated());
    }

    #[test]
    fn quantile_reports_conservative_upper_edge() {
        // Regression for the lower-edge bug: with all mass in one
        // bucket, the reported quantile must be the bucket's *upper*
        // edge — i.e. ≥ every recorded sample — not the lower edge,
        // which under-reported by up to one bucket width. Pin the exact
        // values for a known distribution.
        let edges = latency_edges();
        let h = LatencyHistogram::new();
        // 100 samples inside bucket 10: [edges[10], edges[11]).
        let inside = (edges[10] + edges[11]) / 2;
        for _ in 0..100 {
            h.record(Duration::from_nanos(inside));
        }
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(
                h.quantile(q),
                Duration::from_nanos(edges[11]),
                "q={q}: all mass in bucket 10 must report its upper edge"
            );
            assert!(h.quantile(q) >= Duration::from_nanos(inside));
        }
        // A bimodal split pins which bucket each rank resolves to: 90
        // samples in bucket 10, 10 in bucket 20 → p50 is bucket 10's
        // upper edge, p95/p99 bucket 20's.
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_nanos(edges[10]));
        }
        for _ in 0..10 {
            h.record(Duration::from_nanos(edges[20]));
        }
        assert_eq!(h.quantile(0.50), Duration::from_nanos(edges[11]));
        assert_eq!(h.quantile(0.90), Duration::from_nanos(edges[11]));
        assert_eq!(h.quantile(0.95), Duration::from_nanos(edges[21]));
        assert_eq!(h.quantile(0.99), Duration::from_nanos(edges[21]));
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = LatencyHistogram::new();
        // u64::MAX is divisible by 3: three records sum to exactly MAX
        // (no overflow), the fourth must wrap.
        let big = Duration::from_nanos(u64::MAX / 3);
        for _ in 0..3 {
            h.record(big);
        }
        assert!(!h.sum_saturated(), "exactly at MAX is not yet overflow");
        h.record(big);
        // Fourth record would wrap; the sum must pin at MAX and flag.
        assert!(h.sum_saturated());
        // Mean is a lower bound, not wrapped-around garbage (a wrapped
        // sum would report a mean near zero here).
        assert!(h.mean() >= Duration::from_nanos(u64::MAX / 5));
        let m = ServeMetrics::new();
        let row = m.model_counters(&ModelId::default());
        for _ in 0..4 {
            m.on_done(&row, true, big);
        }
        let r = m.report(Duration::from_secs(1));
        assert!(r.latency_sum_saturated);
        assert!(r.per_model[0].latency_sum_saturated);
        assert!(r.to_string().contains("(sum saturated)"), "{r}");
    }

    #[test]
    fn edge_exact_samples_bucket_consistently() {
        // Regression: `bucket_for` used an `ln()`-derived index while
        // `bucket_edge_ns` recomputed edges with `powi()`; float
        // roundoff could place a sample recorded exactly at a bucket
        // edge one bucket off. With the shared integer table, a sample
        // at edge `i` lands in bucket `i` deterministically, so the
        // quantile reports exactly bucket `i`'s upper edge — the next
        // table entry (the overflow bucket, unbounded above, reports
        // its own lower edge).
        let edges = latency_edges();
        for (idx, &edge_ns) in edges.iter().enumerate() {
            let h = LatencyHistogram::new();
            h.record(Duration::from_nanos(edge_ns));
            let got = h.quantile(1.0);
            let want = edges[(idx + 1).min(LATENCY_BUCKETS - 1)];
            assert_eq!(
                got,
                Duration::from_nanos(want),
                "edge {idx} ({edge_ns} ns): quantile reported {got:?}"
            );
        }
    }

    #[test]
    fn stage_histograms_report_per_model_and_globally() {
        let m = ServeMetrics::new();
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let us = |n| t0 + Duration::from_micros(n);
        let ctx = tracer.begin();
        assert!(ctx.sampled, "a tracer's first trace is sampled");
        m.stamp(&tracer, ctx, Stage::WireDecode, t0, us(5));
        m.stamp(&tracer, ctx, Stage::QueueWait, t0, us(40));
        m.stamp(&tracer, ctx, Stage::QueueWait, t0, us(60));
        m.stamp(&tracer, ctx, Stage::Predict, us(60), us(260));
        // Each stamp also captured its span, over the same interval.
        let spans: Vec<(Stage, Duration)> = tracer
            .snapshot()
            .iter()
            .map(|e| (e.stage, e.duration()))
            .collect();
        assert_eq!(spans.len(), 4);
        assert!(spans.contains(&(Stage::Predict, Duration::from_micros(200))));
        let r = m.report(Duration::from_secs(1));
        // One global row per stamped stage, in request-path order,
        // silent stages omitted.
        let stages: Vec<(Stage, u64)> = r.stages.iter().map(|s| (s.stage, s.count)).collect();
        assert_eq!(
            stages,
            vec![
                (Stage::WireDecode, 1),
                (Stage::QueueWait, 2),
                (Stage::Predict, 1)
            ]
        );
        for s in &r.stages {
            assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
            assert!(s.p99 > Duration::ZERO);
            assert!(!s.sum_saturated);
        }
        // Stamps record no tenant row: only submissions and replies do.
        assert!(r.per_model.is_empty());
        let text = r.to_string();
        assert!(text.contains("queue_wait"), "{text}");
    }

    #[test]
    fn edges_are_strictly_increasing() {
        let edges = latency_edges();
        assert_eq!(edges[0], LATENCY_BASE_NS as u64);
        for w in edges.windows(2) {
            assert!(w[0] < w[1], "{w:?}");
        }
    }

    #[test]
    fn sub_microsecond_samples_report_sub_microsecond_quantiles() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(200));
        let p50 = h.quantile(0.5);
        assert!(p50 >= Duration::from_nanos(200), "{p50:?}");
        assert!(p50 < Duration::from_micros(1), "{p50:?}");
        // The top edge still reaches past half a minute.
        let top = latency_edges()[LATENCY_BUCKETS - 1];
        assert!(top >= 33_000_000_000, "{top} ns");
    }

    #[test]
    fn overflow_observations_land_in_last_bucket() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_secs(3_600));
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) > Duration::from_millis(1));
    }

    #[test]
    fn report_derives_rates() {
        let m = ServeMetrics::new();
        let id = ModelId::default();
        for _ in 0..10 {
            m.on_submit(&id);
        }
        m.on_reject();
        m.on_batch(4);
        m.on_batch(6);
        let row = m.model_counters(&id);
        for _ in 0..10 {
            m.on_done(&row, true, Duration::from_micros(100));
        }
        let r = m.report(Duration::from_secs(2));
        assert_eq!(r.submitted, 10);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.completed, 10);
        assert_eq!(r.batches, 2);
        assert!((r.mean_batch_size - 5.0).abs() < 1e-12);
        assert!((r.throughput_qps - 5.0).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("throughput"), "{text}");
        assert!(text.contains("model default"), "{text}");
    }

    #[test]
    fn per_model_counters_are_isolated() {
        let m = ServeMetrics::new();
        let (a, b) = (ModelId::new("a"), ModelId::new("b"));
        m.on_submit(&a);
        m.on_submit(&a);
        m.on_submit(&b);
        let (row_a, row_b) = (m.model_counters(&a), m.model_counters(&b));
        m.on_done(&row_a, true, Duration::from_micros(50));
        m.on_done(&row_a, false, Duration::from_micros(60));
        m.on_done(&row_b, true, Duration::from_micros(70));
        let r = m.report(Duration::from_secs(1));
        assert_eq!(r.per_model.len(), 2);
        let (ra, rb) = (&r.per_model[0], &r.per_model[1]);
        assert_eq!(
            (ra.model.as_str(), ra.submitted, ra.completed, ra.failed),
            ("a", 2, 1, 1)
        );
        assert_eq!(
            (rb.model.as_str(), rb.submitted, rb.completed, rb.failed),
            ("b", 1, 1, 0)
        );
        // Global counters aggregate across models.
        assert_eq!((r.submitted, r.completed, r.failed), (3, 2, 1));
    }

    #[test]
    fn memory_gauges_overwrite_not_accumulate() {
        let m = ServeMetrics::new();
        let id = ModelId::new("gauged");
        let row = m.model_counters(&id);
        let r = m.report(Duration::from_secs(1));
        assert!(r.per_model.is_empty() || r.per_model[0].memory_dense_bytes == 0);
        m.set_model_memory(&row, 80_000, 1_250);
        m.set_model_memory(&row, 80_000, 1_250);
        m.on_submit(&id);
        let r = m.report(Duration::from_secs(1));
        let row_report = &r.per_model[0];
        // Two stores, one value: gauges overwrite rather than add.
        assert_eq!(row_report.memory_dense_bytes, 80_000);
        assert_eq!(row_report.memory_packed_bytes, 1_250);
        // A republish with a packed-incompatible model zeroes the gauge.
        m.set_model_memory(&row, 80_000, 0);
        let r = m.report(Duration::from_secs(1));
        assert_eq!(r.per_model[0].memory_packed_bytes, 0);
    }

    #[test]
    fn model_rows_are_capped_and_overflow_aggregates() {
        let m = ServeMetrics::new();
        // Far more distinct ids than the cap allows…
        for i in 0..MAX_MODEL_ROWS + 50 {
            m.on_submit(&ModelId::new(format!("id-{i}")));
        }
        let r = m.report(Duration::from_secs(1));
        // …but the table stops at the cap plus the shared overflow row,
        assert_eq!(r.per_model.len(), MAX_MODEL_ROWS + 1);
        assert_eq!(r.submitted as usize, MAX_MODEL_ROWS + 50);
        // which sorts last and carries everything past the cap.
        let overflow = r.per_model.last().unwrap();
        assert_eq!(overflow.model.as_str(), MODEL_OVERFLOW_NAME);
        assert_eq!(overflow.submitted, 50);
        // The overflow name is reserved: a client submitting under it
        // shares the overflow row instead of minting a table row.
        m.on_submit(&ModelId::new(MODEL_OVERFLOW_NAME));
        let r = m.report(Duration::from_secs(1));
        assert_eq!(r.per_model.len(), MAX_MODEL_ROWS + 1);
        assert_eq!(r.per_model.last().unwrap().submitted, 51);
        // The default id keeps its own (cap-exempt) row even when the
        // spray filled the table first.
        m.on_submit(&ModelId::default());
        let r = m.report(Duration::from_secs(1));
        assert_eq!(r.per_model.len(), MAX_MODEL_ROWS + 2);
        let default_row = r
            .per_model
            .iter()
            .find(|row| row.model == ModelId::default())
            .expect("default row present");
        assert_eq!(default_row.submitted, 1);
    }
}
