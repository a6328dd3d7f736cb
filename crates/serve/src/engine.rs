//! The serving engine: per-tenant admission queues served directly by a
//! worker pool, one deficit-round-robin turn per batch.
//!
//! ```text
//!  clients ──submit──▶ [per-ModelId queue] [per-ModelId queue] …
//!            (ModelId,       │ quota-bounded     │
//!             query)         ▼                   ▼
//!              worker pool: an idle worker takes one deficit-round-
//!              robin turn straight off the queues — that turn is its
//!              batch (one ModelId, ≤ max_batch; opt-in max_delay linger)
//!                     │    │    │
//!                     ▼    ▼    ▼
//!                   predict over the batch's model snapshot
//!                     │
//!                     ▼  per-request reply slot, delivered exactly once
//!                   ServedPrediction / ServeError
//! ```
//!
//! ## Admission and fairness
//!
//! Every tenant ([`ModelId`]) owns its own bounded queue. A submission
//! is refused with [`ServeError::TenantOverQuota`] once its tenant
//! already has [`ServeConfig::tenant_quota`] requests waiting, and with
//! [`ServeError::QueueFull`] once the engine-wide total reaches
//! [`ServeConfig::queue_depth`] — so one tenant's flood sheds *that
//! tenant's* load while everyone else keeps being admitted.
//!
//! Workers drain the queues with deficit round-robin: each tenant with
//! waiting requests sits in an active ring, and each turn grants it
//! [`ServeConfig::drr_quantum`] units of credit (capped at
//! [`ServeConfig::max_batch`]), serving at most that many requests
//! before the next tenant's turn. A flooding tenant therefore gets at
//! most a quantum ahead of a victim per round regardless of how deep its
//! backlog is.
//!
//! ## Batching
//!
//! Batching is *backlog* batching, as in Clipper (Crankshaw et al.,
//! NSDI '17): a worker's turn takes whatever its tenant has queued, up
//! to the turn's credit, and that is the batch. A lone request on an
//! idle engine is served at once, while a saturated queue forms full
//! batches. [`ServeConfig::max_delay`] is an opt-in linger (zero by
//! default): a worker whose turn came up short waits up to that long for
//! more of the same tenant's requests, flushing early when the batch
//! fills or the engine stops. Every batch holds requests for exactly one
//! model, resolved against one registry snapshot when it executes. A hot
//! swap ([`ShardedRegistry::publish`]) never drops or corrupts in-flight
//! requests — they complete on the version that was live when their
//! batch started.
//!
//! ## Fault containment
//!
//! Each request is served under `catch_unwind`: a panic before its reply
//! is delivered answers it [`ServeError::Internal`], a panic inside its
//! reply callback is never followed by a second delivery, and the worker
//! carries on with the rest of its batch.
//!
//! ## Shutdown contract
//!
//! [`ServeEngine::shutdown`] (and `Drop`) first marks the engine
//! closed — subsequent [`SubmitHandle::submit`] calls return
//! [`ServeError::Closed`] — then wakes every worker. Workers cut any
//! linger short, drain every queue and exit, so requests accepted before
//! shutdown get real results. Shutdown therefore completes even while
//! clones of [`SubmitHandle`] are still alive on other threads. A
//! request that loses the race with shutdown is answered with
//! [`ServeError::Closed`] through its [`PendingPrediction`].

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use privehd_core::telemetry::{Stage, TelemetryConfig, TraceCtx, Tracer};
use privehd_core::{BipolarHv, Hypervector, Prediction};

use crate::error::ServeError;
use crate::metrics::{ServeMetrics, ServeReport};
use crate::registry::{ModelId, ServedModel, ShardedRegistry};

/// Tuning knobs of the serving engine.
///
/// Construct with struct-update syntax over [`ServeConfig::default`],
/// or with [`ServeConfig::builder`] for build-time validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest batch a worker executes: one deficit-round-robin turn
    /// takes at most this many requests (and at most
    /// [`ServeConfig::drr_quantum`]).
    pub max_batch: usize,
    /// Opt-in linger, zero (off) by default. When set, a worker whose
    /// turn took fewer requests than its credit waits up to this long,
    /// counted from taking the turn, for more of the same tenant's
    /// requests; it flushes early once the batch is full or the engine
    /// shuts down. An idle worker is never kept from a request by
    /// another worker's linger.
    pub max_delay: Duration,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Engine-wide cap on waiting requests across every tenant; at the
    /// cap the engine sheds load with [`ServeError::QueueFull`] instead
    /// of buffering unboundedly.
    pub queue_depth: usize,
    /// Per-tenant cap on waiting requests: one [`ModelId`]'s queue
    /// refuses further submissions with [`ServeError::TenantOverQuota`]
    /// at this depth, while other tenants keep being admitted. The wire
    /// front-end reports it as `Busy`.
    pub tenant_quota: usize,
    /// Deficit-round-robin quantum: how many requests one tenant may
    /// dequeue per turn before the next tenant's turn. A turn is one
    /// worker's batch, so the credit is capped at
    /// [`ServeConfig::max_batch`]. Smaller values interleave tenants
    /// more finely (fairer under flood), larger values favor per-tenant
    /// batch density.
    pub drr_quantum: usize,
    /// When set, queries whose components are all exactly `±1` (i.e.
    /// bipolar-obfuscated queries) are bit-packed and classified through
    /// the compiled plan's popcount kernel
    /// ([`privehd_core::ModelPlan::predict_dense_auto`]). Scores then
    /// differ from the dense path only in floating-point summation
    /// order. Leave unset when bit-identical results to the dense path
    /// ([`privehd_core::ModelPlan::predict_dense`]) are required.
    pub packed_fastpath: bool,
    /// Request-tracing configuration: 1-in-N span sampling plus
    /// always-capture for slow requests. Stage *histograms* record
    /// regardless (they are counters); this only controls the trace
    /// ring. [`TelemetryConfig::disabled`] turns span capture off
    /// entirely — the overhead-measurement baseline.
    pub telemetry: TelemetryConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_delay: Duration::ZERO,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_depth: 1_024,
            tenant_quota: 256,
            drr_quantum: 32,
            packed_fastpath: false,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServeConfig {
    /// A builder over the defaults; [`ServeConfigBuilder::build`]
    /// validates the combination before any thread spawns.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::new()
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be ≥ 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be ≥ 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig("queue_depth must be ≥ 1".into()));
        }
        if self.tenant_quota == 0 {
            return Err(ServeError::InvalidConfig("tenant_quota must be ≥ 1".into()));
        }
        if self.drr_quantum == 0 {
            return Err(ServeError::InvalidConfig("drr_quantum must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// Builder for [`ServeConfig`] with build-time validation.
///
/// # Examples
///
/// ```
/// use privehd_serve::ServeConfig;
///
/// let config = ServeConfig::builder()
///     .max_batch(32)
///     .tenant_quota(64)
///     .drr_quantum(8)
///     .build()
///     .unwrap();
/// assert_eq!(config.max_batch, 32);
///
/// // Invalid knobs fail at build(), before any thread spawns.
/// assert!(ServeConfig::builder().drr_quantum(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Starts from [`ServeConfig::default`].
    pub fn new() -> Self {
        Self {
            config: ServeConfig::default(),
        }
    }

    /// Sets [`ServeConfig::max_batch`].
    pub fn max_batch(mut self, v: usize) -> Self {
        self.config.max_batch = v;
        self
    }

    /// Sets [`ServeConfig::max_delay`].
    pub fn max_delay(mut self, v: Duration) -> Self {
        self.config.max_delay = v;
        self
    }

    /// Sets [`ServeConfig::workers`].
    pub fn workers(mut self, v: usize) -> Self {
        self.config.workers = v;
        self
    }

    /// Sets [`ServeConfig::queue_depth`].
    pub fn queue_depth(mut self, v: usize) -> Self {
        self.config.queue_depth = v;
        self
    }

    /// Sets [`ServeConfig::tenant_quota`].
    pub fn tenant_quota(mut self, v: usize) -> Self {
        self.config.tenant_quota = v;
        self
    }

    /// Sets [`ServeConfig::drr_quantum`].
    pub fn drr_quantum(mut self, v: usize) -> Self {
        self.config.drr_quantum = v;
        self
    }

    /// Sets [`ServeConfig::packed_fastpath`].
    pub fn packed_fastpath(mut self, v: bool) -> Self {
        self.config.packed_fastpath = v;
        self
    }

    /// Sets [`ServeConfig::telemetry`].
    pub fn telemetry(mut self, v: TelemetryConfig) -> Self {
        self.config.telemetry = v;
        self
    }

    /// Validates and returns the finished config.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for zero-valued knobs.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A query in whichever representation the client submitted: dense
/// `f64`-per-dimension, or bit-packed bipolar (1 bit/dim).
///
/// The packed variant flows through the queue and the workers as-is
/// and is scored by the compiled plan's popcount kernel
/// ([`privehd_core::ModelPlan::predict_packed`]) — never densified. That
/// is the packed-native serving contract: a 10k-dim packed query costs
/// ~1.25 KiB on the queue instead of ~78 KiB dense, and classification
/// runs on `XOR`+`POPCNT` words instead of `f64` lanes.
///
/// Both [`Hypervector`] and [`BipolarHv`] convert with `From`/`Into`,
/// so [`ServeEngine::submit`] accepts either directly.
#[derive(Debug, Clone)]
pub enum QueryVec {
    /// Dense real-valued query (one `f64` per dimension).
    Dense(Hypervector),
    /// Bit-packed bipolar query (one bit per dimension).
    Packed(BipolarHv),
}

impl QueryVec {
    /// Dimensionality of the query in either representation.
    pub fn dim(&self) -> usize {
        match self {
            QueryVec::Dense(q) => q.dim(),
            QueryVec::Packed(q) => q.dim(),
        }
    }
}

impl From<Hypervector> for QueryVec {
    fn from(q: Hypervector) -> Self {
        QueryVec::Dense(q)
    }
}

impl From<BipolarHv> for QueryVec {
    fn from(q: BipolarHv) -> Self {
        QueryVec::Packed(q)
    }
}

/// A completed prediction plus its serving context.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedPrediction {
    /// The classification result.
    pub prediction: Prediction,
    /// The model this request was routed to.
    pub model: ModelId,
    /// Registry version of the model that served this request.
    pub model_version: u64,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// End-to-end latency: submission to response.
    pub latency: Duration,
}

/// Where a finished request's outcome is delivered: a oneshot channel
/// behind a [`PendingPrediction`], or an in-process callback (the wire
/// front-end's completion pipeline). Delivered exactly once per
/// request by the worker that classified it.
enum ReplySlot {
    Oneshot(SyncSender<Result<ServedPrediction, ServeError>>),
    Callback(Box<dyn Fn(Result<ServedPrediction, ServeError>) + Send + Sync>),
}

impl ReplySlot {
    fn deliver(&self, outcome: Result<ServedPrediction, ServeError>) {
        match self {
            // A submitter that dropped its PendingPrediction is not an
            // engine error; ignore the closed reply channel. Capacity 1
            // and a single delivery mean try_send never reports Full.
            ReplySlot::Oneshot(tx) => {
                let _ = tx.try_send(outcome);
            }
            ReplySlot::Callback(f) => f(outcome),
        }
    }
}

/// One queued request: the target model, the query, and its reply slot.
struct Request {
    model: ModelId,
    query: QueryVec,
    trace: TraceCtx,
    submitted_at: Instant,
    /// Stamped by the worker that takes the request off its queue
    /// (equal to `submitted_at` until then): `submitted_at..taken_at`
    /// is the queue-wait stage, `taken_at..execution` the linger.
    taken_at: Instant,
    reply: ReplySlot,
}

/// One tenant's waiting requests plus its deficit-round-robin state.
#[derive(Default)]
struct TenantQueue {
    items: VecDeque<Request>,
    /// Unspent scheduling credit. With unit-cost requests this is
    /// always zero between turns (a turn either spends the whole
    /// quantum or empties the queue and the entry is removed); kept in
    /// deficit form so weighted request costs stay a local change.
    deficit: usize,
    /// Whether this tenant currently sits in the active ring (guards
    /// against double insertion when submissions race a turn).
    in_active: bool,
}

/// The engine's shared scheduling state: every tenant's queue plus the
/// active ring the deficit-round-robin walks.
#[derive(Default)]
struct SchedState {
    queues: HashMap<ModelId, TenantQueue>,
    /// Tenants with waiting requests, in turn order.
    active: VecDeque<ModelId>,
    /// Waiting requests across every tenant (the `queue_depth` gauge).
    queued_total: usize,
    /// Workers holding a short batch open (`max_delay`). While any
    /// linger, admission wakes every waiter, so a lingering worker can
    /// never absorb the wakeup an idle worker needed.
    lingering: usize,
    stopped: bool,
}

/// The shared queue: per-tenant queues behind one mutex, the condvar
/// workers wait on (idle or lingering), and the admission limits.
struct SharedQueue {
    state: Mutex<SchedState>,
    ready: Condvar,
    queue_depth: usize,
    tenant_quota: usize,
}

impl SharedQueue {
    /// Locks the scheduler state, recovering from a poisoned mutex: the
    /// queue data is a plain container that stays structurally valid
    /// even if a panicking thread held the lock, and refusing service
    /// forever would turn one request's panic into a full outage.
    fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for SharedQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedQueue")
            .field("queue_depth", &self.queue_depth)
            .field("tenant_quota", &self.tenant_quota)
            .finish_non_exhaustive()
    }
}

/// Admission: checks closed/stopped, then the tenant's quota, then the
/// global depth, and only then enqueues and wakes a worker.
///
/// Quota is checked before depth deliberately: a flooding tenant that
/// fills the global queue still reads `TenantOverQuota` (back off —
/// *you* are the problem) rather than `QueueFull` (everyone is).
fn submit_slot(
    shared: &SharedQueue,
    metrics: &ServeMetrics,
    closed: &AtomicBool,
    model: &ModelId,
    query: QueryVec,
    trace: TraceCtx,
    reply: ReplySlot,
) -> Result<(), ServeError> {
    // Acquire: pairs with the Release store in `join_threads` so a
    // submitter that observes `closed` also observes the stop flag the
    // workers are draining under.
    if closed.load(Ordering::Acquire) {
        return Err(ServeError::Closed);
    }
    let now = Instant::now();
    let request = Request {
        model: model.clone(),
        query,
        trace,
        submitted_at: now,
        taken_at: now,
        reply,
    };
    let mut st = shared.lock_state();
    if st.stopped {
        return Err(ServeError::Closed);
    }
    let tenant_len = st.queues.get(model).map_or(0, |q| q.items.len());
    if tenant_len >= shared.tenant_quota {
        drop(st);
        metrics.on_reject();
        return Err(ServeError::TenantOverQuota);
    }
    if st.queued_total >= shared.queue_depth {
        drop(st);
        metrics.on_reject();
        return Err(ServeError::QueueFull);
    }
    let newly_active = {
        let tq = st.queues.entry(model.clone()).or_default();
        tq.items.push_back(request);
        if tq.in_active {
            false
        } else {
            tq.in_active = true;
            true
        }
    };
    if newly_active {
        st.active.push_back(model.clone());
    }
    st.queued_total += 1;
    let lingering = st.lingering > 0;
    drop(st);
    metrics.on_submit(model);
    if lingering {
        shared.ready.notify_all();
    } else {
        shared.ready.notify_one();
    }
    Ok(())
}

/// One deficit-round-robin turn: the tenant at the head of the active
/// ring earns `quantum` credit, dequeues at most that many requests
/// into `out`, and either rejoins the ring (backlog left) or leaves the
/// map entirely (emptied — which also resets its deficit, the classic
/// DRR rule that an idle flow keeps no credit).
fn drr_round(st: &mut SchedState, quantum: usize, out: &mut Vec<Request>) {
    let Some(id) = st.active.pop_front() else {
        return;
    };
    let (take, now_empty) = {
        let Some(tq) = st.queues.get_mut(&id) else {
            return;
        };
        tq.deficit += quantum;
        let take = tq.deficit.min(tq.items.len());
        for _ in 0..take {
            if let Some(r) = tq.items.pop_front() {
                out.push(r);
            }
        }
        tq.deficit -= take;
        (take, tq.items.is_empty())
    };
    st.queued_total -= take;
    if now_empty {
        st.queues.remove(&id);
    } else {
        st.active.push_back(id);
    }
}

/// Tops up a lingering batch with `model`'s newly queued requests, at
/// most `room` of them: still the same turn, spending the credit the
/// turn left unused. A tenant emptied here leaves the map and the
/// active ring, as in [`drr_round`].
fn top_up(st: &mut SchedState, model: &ModelId, room: usize, out: &mut Vec<Request>) {
    let Some(tq) = st.queues.get_mut(model) else {
        return;
    };
    let take = room.min(tq.items.len());
    let now = Instant::now();
    out.extend(tq.items.drain(..take).map(|mut r| {
        r.taken_at = now;
        r
    }));
    let now_empty = tq.items.is_empty();
    st.queued_total -= take;
    if now_empty {
        st.queues.remove(model);
        st.active.retain(|id| id != model);
    }
}

/// A submitted request's future result.
///
/// Obtained from [`ServeEngine::submit`] / [`SubmitHandle::submit`];
/// resolve it with [`PendingPrediction::wait`].
#[derive(Debug)]
pub struct PendingPrediction {
    rx: Receiver<Result<ServedPrediction, ServeError>>,
}

impl PendingPrediction {
    /// Blocks until the prediction is ready.
    ///
    /// # Errors
    ///
    /// Returns the serving-side error for this request, or
    /// [`ServeError::Closed`] if the engine shut down before answering.
    pub fn wait(self) -> Result<ServedPrediction, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Non-blocking poll: `None` while the prediction is still in
    /// flight, `Some(outcome)` once it resolved (or once the engine
    /// dropped the request's reply channel, which reads as
    /// [`ServeError::Closed`]).
    pub fn try_wait(&self) -> Option<Result<ServedPrediction, ServeError>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

/// A cloneable, `Send` submission handle for multi-threaded clients.
///
/// Handles stay valid across [`ServeEngine::shutdown`]: submissions
/// after shutdown simply return [`ServeError::Closed`] (they no longer
/// block shutdown itself).
#[derive(Debug, Clone)]
pub struct SubmitHandle {
    shared: Arc<SharedQueue>,
    metrics: Arc<ServeMetrics>,
    tracer: Arc<Tracer>,
    closed: Arc<AtomicBool>,
}

impl SubmitHandle {
    /// Submits a query routed to `model`; see [`ServeEngine::submit`].
    ///
    /// # Errors
    ///
    /// [`ServeError::TenantOverQuota`] when this tenant's queue is at
    /// its quota, [`ServeError::QueueFull`] when the engine-wide queue
    /// is at capacity, [`ServeError::Closed`] when the engine has shut
    /// down.
    pub fn submit(
        &self,
        model: &ModelId,
        query: impl Into<QueryVec>,
    ) -> Result<PendingPrediction, ServeError> {
        self.submit_traced(model, query.into(), self.tracer.begin())
    }

    /// Submits a query to the default model
    /// ([`ModelId::default`]); see [`ServeEngine::submit_default`].
    ///
    /// # Errors
    ///
    /// Same contract as [`SubmitHandle::submit`].
    pub fn submit_default(
        &self,
        query: impl Into<QueryVec>,
    ) -> Result<PendingPrediction, ServeError> {
        self.submit(&ModelId::default(), query)
    }

    /// Submits with a caller-provided trace context, so a front-end
    /// that began the trace earlier (e.g. at wire decode) keeps one id
    /// across its spans and the engine's.
    pub(crate) fn submit_traced(
        &self,
        model: &ModelId,
        query: QueryVec,
        trace: TraceCtx,
    ) -> Result<PendingPrediction, ServeError> {
        let (reply, rx) = mpsc::sync_channel(1);
        submit_slot(
            &self.shared,
            &self.metrics,
            &self.closed,
            model,
            query,
            trace,
            ReplySlot::Oneshot(reply),
        )?;
        Ok(PendingPrediction { rx })
    }

    /// Submits with an in-process completion callback instead of a
    /// [`PendingPrediction`]: the wire front-end's reactors use this to
    /// route finished predictions straight back to their connection's
    /// completion inbox without a polling hop. The callback runs on a
    /// worker (or pool) thread and is invoked exactly once.
    pub(crate) fn submit_with(
        &self,
        model: &ModelId,
        query: QueryVec,
        trace: TraceCtx,
        on_done: Box<dyn Fn(Result<ServedPrediction, ServeError>) + Send + Sync>,
    ) -> Result<(), ServeError> {
        submit_slot(
            &self.shared,
            &self.metrics,
            &self.closed,
            model,
            query,
            trace,
            ReplySlot::Callback(on_done),
        )
    }

    /// The engine's live metrics (the wire front-end records its stages
    /// and builds the stats exposition through this).
    pub(crate) fn serve_metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The engine's tracer.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// The running serving engine. See the [module docs](self) for the
/// pipeline layout, the fairness model and the shutdown contract.
///
/// # Examples
///
/// Single model — publish under the default id and use
/// [`ServeEngine::submit_default`]:
///
/// ```
/// use std::sync::Arc;
/// use privehd_core::{HdModel, Hypervector};
/// use privehd_serve::{ServeConfig, ServeEngine, ShardedRegistry};
///
/// # fn main() -> Result<(), privehd_serve::ServeError> {
/// let mut model = HdModel::new(2, 64)?;
/// model.bundle(0, &Hypervector::from_vec(vec![1.0; 64]))?;
/// model.bundle(1, &Hypervector::from_vec(vec![-1.0; 64]))?;
/// let registry = Arc::new(ShardedRegistry::with_model(model, "demo")?);
///
/// let engine = ServeEngine::start(registry, ServeConfig::default())?;
/// let served = engine
///     .submit_default(Hypervector::from_vec(vec![1.0; 64]))?
///     .wait()?;
/// assert_eq!(served.prediction.class, 0);
/// assert_eq!(served.model_version, 1);
/// let report = engine.shutdown();
/// assert_eq!(report.completed, 1);
/// # Ok(())
/// # }
/// ```
///
/// Many models behind one engine, routed per submission:
///
/// ```
/// use std::sync::Arc;
/// use privehd_core::{HdModel, Hypervector};
/// use privehd_serve::{ModelId, ServeConfig, ServeEngine, ShardedRegistry};
///
/// # fn main() -> Result<(), privehd_serve::ServeError> {
/// let mut model = HdModel::new(2, 64)?;
/// model.bundle(0, &Hypervector::from_vec(vec![1.0; 64]))?;
/// model.bundle(1, &Hypervector::from_vec(vec![-1.0; 64]))?;
///
/// let registry = Arc::new(ShardedRegistry::new());
/// let tenant = ModelId::new("tenant-a");
/// registry.publish(&tenant, model, "a-v1")?;
///
/// let config = ServeConfig::builder().tenant_quota(64).build()?;
/// let engine = ServeEngine::start(registry, config)?;
/// let served = engine
///     .submit(&tenant, Hypervector::from_vec(vec![-1.0; 64]))?
///     .wait()?;
/// assert_eq!(served.prediction.class, 1);
/// assert_eq!(served.model, tenant);
/// let report = engine.shutdown();
/// assert_eq!(report.per_model.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    shared: Arc<SharedQueue>,
    closed: Arc<AtomicBool>,
    registry: Arc<ShardedRegistry>,
    metrics: Arc<ServeMetrics>,
    tracer: Arc<Tracer>,
    started_at: Instant,
    workers: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// Spawns the worker threads serving every model of `registry`.
    /// Single-model deployments publish under [`ModelId::default`] (see
    /// [`ShardedRegistry::with_model`]) and use
    /// [`ServeEngine::submit_default`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero-valued knobs.
    pub fn start(registry: Arc<ShardedRegistry>, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let metrics = Arc::new(ServeMetrics::new());
        let tracer = Arc::new(Tracer::new(config.telemetry.clone()));
        let closed = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(SharedQueue {
            state: Mutex::new(SchedState::default()),
            ready: Condvar::new(),
            queue_depth: config.queue_depth,
            tenant_quota: config.tenant_quota,
        });

        let worker = Arc::new(Worker {
            shared: Arc::clone(&shared),
            registry: Arc::clone(&registry),
            metrics: Arc::clone(&metrics),
            tracer: Arc::clone(&tracer),
            config: config.clone(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let worker = Arc::clone(&worker);
                std::thread::Builder::new()
                    .name(format!("privehd-worker-{i}"))
                    .spawn(move || worker.run())
                    .map_err(|e| {
                        ServeError::Transport(format!("failed to spawn worker thread: {e}"))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(Self {
            shared,
            closed,
            registry,
            metrics,
            tracer,
            started_at: Instant::now(),
            workers,
        })
    }

    /// Submits one query routed to `model` for batched classification.
    /// Accepts dense ([`Hypervector`]) and bit-packed ([`BipolarHv`])
    /// queries alike; packed queries stay packed end to end and are
    /// scored through the published snapshot's compiled plan
    /// ([`privehd_core::ModelPlan::predict_packed`] — the popcount
    /// path) with no dense conversion anywhere.
    ///
    /// Requests for different models accumulate in separate batches; a
    /// model nobody published answers with [`ServeError::NoModel`]
    /// through the [`PendingPrediction`].
    ///
    /// # Errors
    ///
    /// [`ServeError::TenantOverQuota`] when `model`'s queue is at its
    /// per-tenant quota (this tenant should back off; others keep being
    /// served), [`ServeError::QueueFull`] when the engine-wide queue is
    /// at capacity (shed load, retry with backoff),
    /// [`ServeError::Closed`] after shutdown.
    pub fn submit(
        &self,
        model: &ModelId,
        query: impl Into<QueryVec>,
    ) -> Result<PendingPrediction, ServeError> {
        let (reply, rx) = mpsc::sync_channel(1);
        submit_slot(
            &self.shared,
            &self.metrics,
            &self.closed,
            model,
            query.into(),
            self.tracer.begin(),
            ReplySlot::Oneshot(reply),
        )?;
        Ok(PendingPrediction { rx })
    }

    /// Submits one query to the default model ([`ModelId::default`]) —
    /// the single-model convenience over [`ServeEngine::submit`].
    ///
    /// # Errors
    ///
    /// Same contract as [`ServeEngine::submit`].
    pub fn submit_default(
        &self,
        query: impl Into<QueryVec>,
    ) -> Result<PendingPrediction, ServeError> {
        self.submit(&ModelId::default(), query)
    }

    /// Convenience: submit to the default model and block for the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeEngine::submit`] and
    /// [`PendingPrediction::wait`] errors.
    pub fn predict(&self, query: impl Into<QueryVec>) -> Result<ServedPrediction, ServeError> {
        self.submit_default(query)?.wait()
    }

    /// Convenience: submit to `model` and block for the result.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeEngine::submit`] and
    /// [`PendingPrediction::wait`] errors.
    pub fn predict_for(
        &self,
        model: &ModelId,
        query: impl Into<QueryVec>,
    ) -> Result<ServedPrediction, ServeError> {
        self.submit(model, query)?.wait()
    }

    /// A cloneable submission handle for client threads.
    pub fn handle(&self) -> SubmitHandle {
        SubmitHandle {
            shared: Arc::clone(&self.shared),
            metrics: Arc::clone(&self.metrics),
            tracer: Arc::clone(&self.tracer),
            closed: Arc::clone(&self.closed),
        }
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Arc<ShardedRegistry> {
        &self.registry
    }

    /// Live serving counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The engine's request tracer: sampling decisions plus the
    /// slow-request span ring ([`Tracer::snapshot`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Metrics snapshot over the engine's lifetime so far.
    pub fn report(&self) -> ServeReport {
        self.metrics.report(self.started_at.elapsed())
    }

    /// Stops accepting submissions, drains the queued requests, joins
    /// all threads and returns the final report.
    ///
    /// Completes even while cloned [`SubmitHandle`]s are still alive;
    /// their later submissions return [`ServeError::Closed`].
    pub fn shutdown(mut self) -> ServeReport {
        self.join_threads();
        self.metrics.report(self.started_at.elapsed())
    }

    fn join_threads(&mut self) {
        // Release: pairs with the Acquire load in `submit_slot`;
        // everything sequenced before shutdown is visible to any
        // submitter that sees the flag.
        self.closed.store(true, Ordering::Release);
        {
            let mut st = self.shared.lock_state();
            st.stopped = true;
        }
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            // analyze::allow(no-panic-path): requests are served under
            // `catch_unwind`, so a dead worker means an engine bug
            // outside any request; re-raise it rather than hide it in a
            // clean report.
            w.join().expect("worker thread panicked");
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.join_threads();
    }
}

/// The engine handles every worker thread serves with; the threads
/// share one.
struct Worker {
    shared: Arc<SharedQueue>,
    registry: Arc<ShardedRegistry>,
    metrics: Arc<ServeMetrics>,
    tracer: Arc<Tracer>,
    config: ServeConfig,
}

/// Batches at least this large additionally fan their per-request
/// classification out over the persistent `privehd_core` worker pool.
const POOL_FANOUT_MIN: usize = 16;

impl Worker {
    /// The worker loop: sleep until a request is queued, take one
    /// deficit-round-robin turn straight from the shared state — that
    /// turn is the batch, optionally topped up by a linger — and execute
    /// it. Once stopped, keep taking turns until every queue is empty
    /// (requests accepted before shutdown get real results), then exit.
    fn run(&self) {
        // One turn is one batch, so the credit never exceeds `max_batch`.
        let credit = self.config.drr_quantum.min(self.config.max_batch);
        let mut batch: Vec<Request> = Vec::with_capacity(credit);
        loop {
            let model = {
                let mut st = self.shared.lock_state();
                while st.queued_total == 0 {
                    if st.stopped {
                        return;
                    }
                    let woken = self.shared.ready.wait(st);
                    st = woken.unwrap_or_else(PoisonError::into_inner);
                }
                drr_round(&mut st, credit, &mut batch);
                let Some(model) = batch.first().map(|r| r.model.clone()) else {
                    continue;
                };
                // End of the queue-wait stage for everything the turn took.
                let taken_at = Instant::now();
                for request in &mut batch {
                    request.taken_at = taken_at;
                }
                if batch.len() < credit && !self.config.max_delay.is_zero() {
                    let deadline = taken_at + self.config.max_delay;
                    self.linger(st, &model, credit, deadline, &mut batch);
                }
                model
            };
            self.execute_batch(&model, &batch);
            batch.clear();
        }
    }

    /// Holds a short batch open for more of `model`'s requests until it
    /// reaches `credit`, `deadline` passes, or the engine stops. It waits
    /// on the idle workers' condvar; admission wakes every waiter while
    /// any worker lingers, so a linger never absorbs an idle worker's
    /// wakeup.
    fn linger(
        &self,
        mut st: MutexGuard<'_, SchedState>,
        model: &ModelId,
        credit: usize,
        deadline: Instant,
        batch: &mut Vec<Request>,
    ) {
        st.lingering += 1;
        loop {
            top_up(&mut st, model, credit.saturating_sub(batch.len()), batch);
            let now = Instant::now();
            if batch.len() >= credit || st.stopped || now >= deadline {
                break;
            }
            let waited = self.shared.ready.wait_timeout(st, deadline - now);
            st = waited.unwrap_or_else(PoisonError::into_inner).0;
        }
        st.lingering -= 1;
    }

    fn execute_batch(&self, model: &ModelId, requests: &[Request]) {
        let (metrics, tracer) = (&*self.metrics, &*self.tracer);
        let packed_fastpath = self.config.packed_fastpath;
        let size = requests.len();
        metrics.on_batch(size);
        // One snapshot per batch: a concurrent publish (or withdraw) of
        // this model affects later batches, never this one, and other
        // models' batches resolve their own snapshots independently. The
        // per-model metrics row is likewise fetched once per batch.
        let resolve_start = Instant::now();
        let snapshot: Option<Arc<ServedModel>> = self.registry.get(model);
        let resolve_end = Instant::now();
        let model_counters = metrics.model_counters(model);
        if let Some(served) = &snapshot {
            // Snapshot footprint gauges: publish compiled the plan, so
            // these accessors only read cached sizes — no serving work.
            let plan = served.plan();
            metrics.set_model_memory(
                &model_counters,
                plan.dense_memory_bytes() as u64,
                plan.packed_memory_bytes().unwrap_or(0) as u64,
            );
        }

        // Classification stays per-request (so one bad query fails only
        // its own reply), and each reply is delivered — and its latency
        // measured — the moment its own classification finishes, whether
        // that happens on this worker or on a pool lane.
        let answer = |request: &Request| {
            let work_start = Instant::now();
            let outcome: Result<Prediction, ServeError> = match &snapshot {
                None => Err(ServeError::NoModel),
                Some(served) => {
                    // Dispatch through the plan compiled at publish time:
                    // kernel selection (packed vs dense snapshot, SIMD
                    // arm, block size) happened once, when the plan was
                    // built — nothing is re-probed here.
                    let plan = served.plan();
                    match &request.query {
                        // Packed-native path: the query arrived bit-packed
                        // and is scored by the popcount kernels without
                        // ever materializing a dense form.
                        QueryVec::Packed(hv) => plan.predict_packed(hv),
                        // The auto bridge repacks strictly-bipolar dense
                        // queries onto the popcount kernel.
                        QueryVec::Dense(q) if packed_fastpath => plan.predict_dense_auto(q),
                        QueryVec::Dense(q) => plan.predict_dense(q),
                    }
                    .map_err(ServeError::Model)
                }
            };
            let done_at = Instant::now();
            let (submitted_at, taken_at) = (request.submitted_at, request.taken_at);
            let latency = done_at.saturating_duration_since(submitted_at);
            // End-to-end first, stage rows after: a reader snapshotting
            // mid-request then always observes per-stage counts ≤ the
            // end-to-end count — the invariant the consistency test pins.
            metrics.on_done(&model_counters, outcome.is_ok(), latency);
            let queue_wait = taken_at.saturating_duration_since(submitted_at);
            let batch_wait = work_start.saturating_duration_since(taken_at);
            metrics.on_stage_for(&model_counters, Stage::QueueWait, queue_wait);
            metrics.on_stage_for(&model_counters, Stage::BatchWait, batch_wait);
            metrics.on_stage_for(&model_counters, Stage::Predict, done_at - work_start);
            let ctx = request.trace;
            tracer.record(ctx, Stage::QueueWait, submitted_at, taken_at);
            tracer.record(ctx, Stage::BatchWait, taken_at, work_start);
            tracer.record(ctx, Stage::Predict, work_start, done_at);
            tracer.record(ctx, Stage::EndToEnd, submitted_at, done_at);
            outcome.map(|prediction| ServedPrediction {
                prediction,
                model: model.clone(),
                model_version: snapshot.as_ref().map_or(0, |s| s.version),
                batch_size: size,
                latency,
            })
        };
        let serve_one = |request: &Request| {
            // Exactly-once guard, set just before the reply is handed to
            // its slot: a panic before that still owes the request its
            // answer; a panic after it came from the slot itself (a reply
            // callback), which has had its one delivery.
            let mut handed_over = false;
            let served = panic::catch_unwind(AssertUnwindSafe(|| {
                let reply = answer(request);
                handed_over = true;
                request.reply.deliver(reply);
            }));
            if served.is_err() && !handed_over {
                metrics.on_done(&model_counters, false, request.submitted_at.elapsed());
                let fault = Err(ServeError::Internal);
                let _ = panic::catch_unwind(AssertUnwindSafe(|| request.reply.deliver(fault)));
            }
        };

        let pool = privehd_core::pool::global();
        if size >= POOL_FANOUT_MIN && pool.threads() > 0 {
            pool.run(size, |i| requests.get(i).into_iter().for_each(serve_one));
        } else {
            requests.iter().for_each(serve_one);
        }
        // Recorded after the batch is served, so the stage's count stays
        // ≤ the end-to-end count at any snapshot (one resolve per batch,
        // and batches ≤ requests).
        let resolve = resolve_end.saturating_duration_since(resolve_start);
        metrics.on_stage_for(&model_counters, Stage::SnapshotResolve, resolve);
        if let Some(first) = requests.first() {
            tracer.record(
                first.trace,
                Stage::SnapshotResolve,
                resolve_start,
                resolve_end,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privehd_core::HdModel;

    fn trained_model(dim: usize) -> HdModel {
        let mut model = HdModel::new(2, dim).unwrap();
        let up: Vec<f64> = (0..dim)
            .map(|j| if j % 2 == 0 { 2.0 } else { 1.0 })
            .collect();
        let down: Vec<f64> = up.iter().map(|v| -v).collect();
        model.bundle(0, &Hypervector::from_vec(up)).unwrap();
        model.bundle(1, &Hypervector::from_vec(down)).unwrap();
        model
    }

    fn registry(dim: usize) -> Arc<ShardedRegistry> {
        Arc::new(ShardedRegistry::with_model(trained_model(dim), "test").unwrap())
    }

    /// A 2-class model: an all-positive query resolves to class
    /// `positive_class`, so tenants with different layouts are
    /// distinguishable by their answers.
    fn oriented_model(dim: usize, positive_class: usize) -> HdModel {
        let mut model = HdModel::new(2, dim).unwrap();
        model
            .bundle(positive_class, &Hypervector::from_vec(vec![1.0; dim]))
            .unwrap();
        model
            .bundle(1 - positive_class, &Hypervector::from_vec(vec![-1.0; dim]))
            .unwrap();
        model
    }

    fn query(dim: usize, sign: f64) -> Hypervector {
        Hypervector::from_vec(vec![sign; dim])
    }

    /// A throwaway request for scheduler-state unit tests.
    fn test_request(model: &ModelId) -> Request {
        let (reply, _rx) = mpsc::sync_channel(1);
        let now = Instant::now();
        Request {
            model: model.clone(),
            query: QueryVec::Dense(query(8, 1.0)),
            trace: Tracer::new(TelemetryConfig::default()).begin(),
            submitted_at: now,
            taken_at: now,
            reply: ReplySlot::Oneshot(reply),
        }
    }

    #[test]
    fn config_validation_rejects_zeros() {
        let reg = registry(32);
        for bad in [
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_depth: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                tenant_quota: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                drr_quantum: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(matches!(
                ServeEngine::start(Arc::clone(&reg), bad),
                Err(ServeError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn config_builder_validates_at_build_time() {
        let cfg = ServeConfig::builder()
            .max_batch(8)
            .max_delay(Duration::from_millis(2))
            .workers(3)
            .queue_depth(128)
            .tenant_quota(16)
            .drr_quantum(4)
            .packed_fastpath(true)
            .build()
            .unwrap();
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.max_delay, Duration::from_millis(2));
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 128);
        assert_eq!(cfg.tenant_quota, 16);
        assert_eq!(cfg.drr_quantum, 4);
        assert!(cfg.packed_fastpath);
        // Backlog batching: no linger unless asked for.
        assert_eq!(ServeConfig::default().max_delay, Duration::ZERO);

        assert!(ServeConfig::builder().max_batch(0).build().is_err());
        assert!(ServeConfig::builder().workers(0).build().is_err());
        assert!(ServeConfig::builder().queue_depth(0).build().is_err());
        assert!(ServeConfig::builder().tenant_quota(0).build().is_err());
        assert!(ServeConfig::builder().drr_quantum(0).build().is_err());
    }

    #[test]
    fn drr_rounds_account_quantum_across_uneven_queues() {
        // Tenants a/b/c with 10/3/1 waiting requests and quantum 4:
        // turn order must be a:4, b:3 (emptied — leaves the map,
        // deficit reset), c:1, a:4, a:2.
        let (a, b, c) = (ModelId::new("a"), ModelId::new("b"), ModelId::new("c"));
        let mut st = SchedState::default();
        for (id, n) in [(&a, 10usize), (&b, 3), (&c, 1)] {
            let tq = st.queues.entry(id.clone()).or_default();
            for _ in 0..n {
                tq.items.push_back(test_request(id));
            }
            tq.in_active = true;
            st.active.push_back(id.clone());
            st.queued_total += n;
        }

        let quantum = 4;
        let mut out = Vec::new();

        drr_round(&mut st, quantum, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r.model == a), "first turn is a's");
        assert_eq!(st.queued_total, 10);

        out.clear();
        drr_round(&mut st, quantum, &mut out);
        assert_eq!(out.len(), 3, "b takes only its backlog, not the quantum");
        assert!(out.iter().all(|r| r.model == b));
        assert!(
            !st.queues.contains_key(&b),
            "an emptied tenant leaves the map (deficit reset)"
        );

        out.clear();
        drr_round(&mut st, quantum, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out.iter().all(|r| r.model == c));

        out.clear();
        drr_round(&mut st, quantum, &mut out);
        assert_eq!(out.len(), 4, "a's second turn earns a fresh quantum");
        out.clear();
        drr_round(&mut st, quantum, &mut out);
        assert_eq!(out.len(), 2, "a's remainder");

        assert_eq!(st.queued_total, 0);
        assert!(st.queues.is_empty());
        assert!(st.active.is_empty());

        // A further round on empty state is a no-op.
        out.clear();
        drr_round(&mut st, quantum, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tenant_quota_is_checked_before_global_depth() {
        let shared = SharedQueue {
            state: Mutex::new(SchedState::default()),
            ready: Condvar::new(),
            queue_depth: 4,
            tenant_quota: 2,
        };
        let metrics = ServeMetrics::new();
        let closed = AtomicBool::new(false);
        let tracer = Tracer::new(TelemetryConfig::default());
        let (a, b, c) = (ModelId::new("a"), ModelId::new("b"), ModelId::new("c"));
        let submit = |id: &ModelId| {
            let (reply, _rx) = mpsc::sync_channel(1);
            submit_slot(
                &shared,
                &metrics,
                &closed,
                id,
                QueryVec::Dense(query(8, 1.0)),
                tracer.begin(),
                ReplySlot::Oneshot(reply),
            )
        };

        assert!(submit(&a).is_ok());
        assert!(submit(&a).is_ok());
        assert_eq!(submit(&a).unwrap_err(), ServeError::TenantOverQuota);
        assert!(submit(&b).is_ok());
        assert!(submit(&b).is_ok());
        // Queue is now globally full AND a is over quota: the flooding
        // tenant still reads TenantOverQuota (quota checked first)…
        assert_eq!(submit(&a).unwrap_err(), ServeError::TenantOverQuota);
        // …while an under-quota tenant reads the global condition.
        assert_eq!(submit(&c).unwrap_err(), ServeError::QueueFull);

        let report = metrics.report(Duration::from_secs(1));
        assert_eq!(report.submitted, 4);
        assert_eq!(report.rejected, 3);

        // Stopped state refuses everything (and does not count as a
        // shed: the engine is going away, not overloaded).
        shared.lock_state().stopped = true;
        assert_eq!(submit(&c).unwrap_err(), ServeError::Closed);
    }

    #[test]
    fn serves_simple_queries() {
        let engine = ServeEngine::start(registry(64), ServeConfig::default()).unwrap();
        let a = engine.predict(query(64, 1.0)).unwrap();
        let b = engine.predict(query(64, -1.0)).unwrap();
        assert_eq!(a.prediction.class, 0);
        assert_eq!(b.prediction.class, 1);
        assert_eq!(a.model_version, 1);
        assert_eq!(a.model, ModelId::default());
        assert!(a.batch_size >= 1);
        let report = engine.shutdown();
        assert_eq!(report.completed, 2);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn empty_registry_yields_no_model() {
        let reg = Arc::new(ShardedRegistry::new());
        let engine = ServeEngine::start(reg, ServeConfig::default()).unwrap();
        assert_eq!(
            engine.predict(query(16, 1.0)).unwrap_err(),
            ServeError::NoModel
        );
        let report = engine.shutdown();
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn wrong_dimension_is_reported_per_request() {
        let engine = ServeEngine::start(registry(64), ServeConfig::default()).unwrap();
        let err = engine.predict(query(32, 1.0)).unwrap_err();
        assert!(matches!(err, ServeError::Model(_)), "{err}");
        // The engine keeps serving afterwards.
        assert_eq!(engine.predict(query(64, 1.0)).unwrap().prediction.class, 0);
        engine.shutdown();
    }

    #[test]
    fn nan_query_answers_a_model_error_and_the_worker_survives() {
        // A NaN score must fail only its own request: with one worker,
        // a panic would leave every later request unanswered.
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let mut poisoned = vec![1.0; 64];
        poisoned[5] = f64::NAN;
        assert_eq!(
            engine.predict(Hypervector::from_vec(poisoned)).unwrap_err(),
            ServeError::Model(privehd_core::HdError::NonFinite("similarity scores"))
        );
        assert_eq!(engine.predict(query(64, 1.0)).unwrap().prediction.class, 0);
        let report = engine.shutdown();
        assert_eq!((report.completed, report.failed), (1, 1));
    }

    #[test]
    fn queue_overflow_sheds_load() {
        // One worker, tiny queue, and a batch window long enough that
        // floods back up into the queue. tenant_quota exceeds
        // queue_depth so the global limit is what trips.
        let config = ServeConfig {
            max_batch: 2,
            max_delay: Duration::from_millis(50),
            workers: 1,
            queue_depth: 2,
            packed_fastpath: false,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let mut pending = Vec::new();
        let mut saw_full = false;
        for _ in 0..200 {
            match engine.submit_default(query(64, 1.0)) {
                Ok(p) => pending.push(p),
                Err(ServeError::QueueFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_full, "queue never filled");
        for p in pending {
            assert!(p.wait().is_ok());
        }
        let report = engine.shutdown();
        assert!(report.rejected >= 1);
    }

    #[test]
    fn tenant_flood_hits_its_quota_before_the_global_queue() {
        // Quota far below the global depth: a single flooding tenant
        // reads TenantOverQuota while the engine-wide queue still has
        // room for everyone else.
        let config = ServeConfig {
            max_batch: 2,
            max_delay: Duration::from_millis(50),
            workers: 1,
            queue_depth: 1_024,
            tenant_quota: 4,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let mut pending = Vec::new();
        let mut saw_quota = false;
        for _ in 0..400 {
            match engine.submit_default(query(64, 1.0)) {
                Ok(p) => pending.push(p),
                Err(ServeError::TenantOverQuota) => {
                    saw_quota = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_quota, "tenant quota never tripped");
        // A different tenant is still admitted (NoModel is a serving
        // answer, not an admission refusal).
        assert_eq!(
            engine
                .predict_for(&ModelId::new("other"), query(64, 1.0))
                .unwrap_err(),
            ServeError::NoModel
        );
        for p in pending {
            assert!(p.wait().is_ok());
        }
        let report = engine.shutdown();
        assert!(report.rejected >= 1);
    }

    #[test]
    fn batches_fill_under_load() {
        let config = ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(20),
            workers: 2,
            queue_depth: 256,
            packed_fastpath: false,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(256), config).unwrap();
        let pending: Vec<_> = (0..64)
            .map(|i| {
                engine
                    .submit_default(query(256, if i % 2 == 0 { 1.0 } else { -1.0 }))
                    .unwrap()
            })
            .collect();
        let mut max_batch_seen = 0;
        for (i, p) in pending.into_iter().enumerate() {
            let served = p.wait().unwrap();
            assert_eq!(served.prediction.class, i % 2);
            max_batch_seen = max_batch_seen.max(served.batch_size);
        }
        assert!(
            max_batch_seen > 1,
            "64 concurrent queries never co-batched (max batch {max_batch_seen})"
        );
        let report = engine.shutdown();
        assert_eq!(report.completed, 64);
        assert!(report.mean_batch_size > 1.0, "{report}");
    }

    #[test]
    fn packed_fastpath_agrees_with_dense_path() {
        let config = ServeConfig {
            packed_fastpath: true,
            ..ServeConfig::default()
        };
        let reg = registry(128);
        let engine = ServeEngine::start(Arc::clone(&reg), config).unwrap();
        let model = reg.get(&ModelId::default()).unwrap();
        for seed in 0..20u64 {
            let packed = BipolarHv::random(128, seed);
            let q = packed.to_dense();
            let served = engine.predict(q.clone()).unwrap();
            let direct = model.model().predict(&q).unwrap();
            assert_eq!(served.prediction.class, direct.class, "seed {seed}");
        }
        engine.shutdown();
    }

    #[test]
    fn packed_submit_matches_dense_submit() {
        // A bipolar-quantized (sign-only) model: packed-native scoring
        // is bit-identical to the dense path, so the predictions must
        // agree query for query.
        let mut model = trained_model(128);
        model.quantize_classes(privehd_core::QuantScheme::Bipolar);
        let reg = Arc::new(ShardedRegistry::with_model(model, "signed").unwrap());
        let engine = ServeEngine::start(Arc::clone(&reg), ServeConfig::default()).unwrap();
        let handle = engine.handle();
        for seed in 0..20u64 {
            let packed = BipolarHv::random(128, seed);
            let dense = engine.predict(packed.to_dense()).unwrap();
            let native = engine
                .submit_default(packed.clone())
                .unwrap()
                .wait()
                .unwrap();
            let via_handle = handle.submit_default(packed).unwrap().wait().unwrap();
            assert_eq!(
                native.prediction.class, dense.prediction.class,
                "seed {seed}"
            );
            assert_eq!(native.prediction.class, via_handle.prediction.class);
            assert_eq!(native.model_version, 1);
        }
        let report = engine.shutdown();
        assert_eq!(report.completed, 60);
    }

    #[test]
    fn packed_submit_reports_dimension_mismatch_per_request() {
        let engine = ServeEngine::start(registry(64), ServeConfig::default()).unwrap();
        let err = engine
            .submit_default(BipolarHv::random(32, 1))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, ServeError::Model(_)), "{err}");
        // The engine keeps serving afterwards.
        assert_eq!(engine.predict(query(64, 1.0)).unwrap().prediction.class, 0);
        engine.shutdown();
    }

    #[test]
    fn handles_submit_from_other_threads() {
        let engine = ServeEngine::start(registry(64), ServeConfig::default()).unwrap();
        let mut joins = Vec::new();
        for t in 0..4 {
            let h = engine.handle();
            joins.push(std::thread::spawn(move || {
                (0..25)
                    .map(|i| {
                        let sign = if (t + i) % 2 == 0 { 1.0 } else { -1.0 };
                        let served = h.submit_default(query(64, sign)).unwrap().wait().unwrap();
                        (served.prediction.class, (t + i) % 2)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for j in joins {
            for (got, want) in j.join().unwrap() {
                assert_eq!(got, want);
            }
        }
        let report = engine.shutdown();
        assert_eq!(report.completed, 100);
    }

    #[test]
    fn shutdown_completes_with_a_live_handle() {
        // Regression: shutdown used to join the batcher, which only
        // exited when every cloned SubmitHandle was dropped — a live
        // handle on another thread blocked shutdown forever.
        let engine = ServeEngine::start(registry(64), ServeConfig::default()).unwrap();
        let leaked = engine.handle();
        assert_eq!(engine.predict(query(64, 1.0)).unwrap().prediction.class, 0);

        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let report = engine.shutdown();
            done_tx.send(report).unwrap();
        });
        let report = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown deadlocked while a SubmitHandle was alive");
        assert_eq!(report.completed, 1);

        // The leaked handle observes the closure instead of hanging.
        assert_eq!(
            leaked.submit_default(query(64, 1.0)).unwrap_err(),
            ServeError::Closed
        );
    }

    #[test]
    fn requests_accepted_before_shutdown_are_answered() {
        // Stop drains the queues: everything accepted before shutdown
        // resolves (successfully — not with Closed).
        let config = ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(100),
            workers: 1,
            queue_depth: 64,
            packed_fastpath: false,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let _live_handle = engine.handle();
        let pending: Vec<_> = (0..16)
            .map(|_| engine.submit_default(query(64, 1.0)).unwrap())
            .collect();
        let report = engine.shutdown();
        assert_eq!(report.completed, 16);
        for p in pending {
            assert_eq!(p.wait().unwrap().prediction.class, 0);
        }
    }

    #[test]
    fn sharded_engine_routes_per_model() {
        let reg = Arc::new(ShardedRegistry::new());
        let (a, b) = (ModelId::new("tenant-a"), ModelId::new("tenant-b"));
        reg.publish(&a, oriented_model(64, 0), "a1").unwrap();
        reg.publish(&b, oriented_model(64, 1), "b1").unwrap();
        let engine = ServeEngine::start(Arc::clone(&reg), ServeConfig::default()).unwrap();

        // The tenants' class layouts are opposite, so each answer proves
        // which tenant's weights served it.
        let served_a = engine.predict_for(&a, query(64, 1.0)).unwrap();
        let served_b = engine.predict_for(&b, query(64, 1.0)).unwrap();
        assert_eq!(served_a.model, a);
        assert_eq!(served_b.model, b);
        assert_eq!(served_a.prediction.class, 0);
        assert_eq!(served_b.prediction.class, 1);

        // An unpublished id fails only its own request.
        assert_eq!(
            engine
                .predict_for(&ModelId::new("ghost"), query(64, 1.0))
                .unwrap_err(),
            ServeError::NoModel
        );

        let report = engine.shutdown();
        assert_eq!(report.per_model.len(), 3);
        let ids: Vec<&str> = report.per_model.iter().map(|m| m.model.as_str()).collect();
        assert_eq!(ids, vec!["ghost", "tenant-a", "tenant-b"]);
        assert_eq!(report.per_model[1].completed, 1);
        assert_eq!(report.per_model[0].failed, 1);
    }

    #[test]
    fn sharded_engine_batches_per_model() {
        // One flush window, two models: requests must split into
        // single-model batches even though they interleave in the queue.
        let reg = Arc::new(ShardedRegistry::new());
        let (a, b) = (ModelId::new("a"), ModelId::new("b"));
        reg.publish(&a, oriented_model(64, 0), "a1").unwrap();
        reg.publish(&b, oriented_model(64, 1), "b1").unwrap();
        let config = ServeConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(20),
            workers: 2,
            queue_depth: 256,
            packed_fastpath: false,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(reg, config).unwrap();
        let pending: Vec<_> = (0..32)
            .map(|i| {
                let id = if i % 2 == 0 { &a } else { &b };
                (i, engine.submit(id, query(64, 1.0)).unwrap())
            })
            .collect();
        for (i, p) in pending {
            let served = p.wait().unwrap();
            let want = if i % 2 == 0 { &a } else { &b };
            assert_eq!(&served.model, want, "request {i} answered by wrong model");
            // The opposite class layouts prove the right weights ran.
            assert_eq!(served.prediction.class, i % 2, "request {i} cross-served");
            // A batch never mixes models, so no batch exceeds one
            // model's share of the traffic.
            assert!(served.batch_size <= 16, "batch mixed models");
        }
        engine.shutdown();
    }

    #[test]
    fn unpublished_ids_fail_without_poisoning_the_engine() {
        let engine = ServeEngine::start(registry(64), ServeConfig::default()).unwrap();
        assert_eq!(
            engine
                .predict_for(&ModelId::new("other"), query(64, 1.0))
                .unwrap_err(),
            ServeError::NoModel
        );
        assert_eq!(engine.predict(query(64, 1.0)).unwrap().prediction.class, 0);
        engine.shutdown();
    }

    #[test]
    fn registry_accessor_returns_the_backing_registry() {
        let reg = registry(32);
        let engine = ServeEngine::start(Arc::clone(&reg), ServeConfig::default()).unwrap();
        assert!(Arc::ptr_eq(engine.registry(), &reg));
        engine.shutdown();
    }

    #[test]
    fn submit_with_invokes_the_callback_exactly_once() {
        let engine = ServeEngine::start(registry(64), ServeConfig::default()).unwrap();
        let handle = engine.handle();
        let (tx, rx) = mpsc::channel();
        handle
            .submit_with(
                &ModelId::default(),
                QueryVec::Dense(query(64, 1.0)),
                handle.tracer().begin(),
                Box::new(move |outcome| {
                    tx.send(outcome).unwrap();
                }),
            )
            .unwrap();
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("callback never ran");
        assert_eq!(outcome.unwrap().prediction.class, 0);
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "callback ran more than once"
        );
        engine.shutdown();
    }

    #[test]
    fn a_panicking_reply_callback_is_contained_to_its_own_request() {
        // One worker and a 20 ms linger, so a request whose callback
        // panics rides first in the same batch as a healthy request.
        let config = ServeConfig {
            workers: 1,
            max_delay: Duration::from_millis(20),
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let handle = engine.handle();
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let counted = Arc::clone(&calls);
        handle
            .submit_with(
                &ModelId::default(),
                QueryVec::Dense(query(64, 1.0)),
                handle.tracer().begin(),
                Box::new(move |outcome| {
                    counted.fetch_add(1, Ordering::SeqCst);
                    tx.send(outcome).unwrap();
                    panic!("reply callback failed");
                }),
            )
            .unwrap();
        let healthy = engine.submit_default(query(64, -1.0)).unwrap().wait();
        let healthy = healthy.expect("the panic took the healthy request down with it");
        assert_eq!(healthy.prediction.class, 1);
        assert_eq!(healthy.batch_size, 2, "both requests rode one batch");

        let first = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("callback never ran");
        assert_eq!(first.unwrap().prediction.class, 0);
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "a panicking callback was delivered to twice"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);

        // The worker survived and keeps serving.
        assert_eq!(engine.predict(query(64, 1.0)).unwrap().prediction.class, 0);
        let report = engine.shutdown();
        assert_eq!((report.completed, report.failed), (3, 0));
    }

    /// Four classes with 1..=4 bundled random rows each: integer rows
    /// other than ±1, so the plan scores them on the dense kernel.
    fn float_row_model(dim: usize) -> HdModel {
        let mut model = HdModel::new(4, dim).unwrap();
        for class in 0..4 {
            for k in 0..=class {
                let row = BipolarHv::random(dim, (10 * class + k) as u64 + 1);
                model.bundle(class, &row.to_dense()).unwrap();
            }
        }
        model
    }

    /// A real-valued query in [-0.5, 0.5) from a xorshift stream.
    fn real_query(dim: usize, seed: u64) -> Hypervector {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let values = (0..dim)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        Hypervector::from_vec(values)
    }

    /// Queues a 48-query burst over a float-row and a sign-row tenant
    /// (packed, bipolar-dense and real-dense queries) before awaiting
    /// any reply, checks every reply bit for bit against the served
    /// plan scoring the same query alone, and returns the largest batch.
    fn burst_matches_single_query_plan(max_delay: Duration) -> usize {
        let dim = 512;
        let (float_id, sign_id) = (ModelId::new("float-rows"), ModelId::new("sign-rows"));
        let reg = Arc::new(ShardedRegistry::new());
        reg.publish(&float_id, float_row_model(dim), "f1").unwrap();
        let mut signed = float_row_model(dim);
        signed.quantize_classes(privehd_core::QuantScheme::Bipolar);
        reg.publish(&sign_id, signed, "s1").unwrap();
        let config = ServeConfig {
            workers: 2,
            max_delay,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(Arc::clone(&reg), config).unwrap();

        let burst: Vec<_> = (0..48u64)
            .map(|i| {
                let id = if i % 2 == 0 { &float_id } else { &sign_id };
                let q = match i % 3 {
                    0 => QueryVec::Packed(BipolarHv::random(dim, 1_000 + i)),
                    1 => QueryVec::Dense(BipolarHv::random(dim, 2_000 + i).to_dense()),
                    _ => QueryVec::Dense(real_query(dim, i)),
                };
                let pending = engine.submit(id, q.clone()).unwrap();
                (id.clone(), q, pending)
            })
            .collect();
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let mut largest = 0;
        for (id, q, pending) in burst {
            let served = pending.wait().unwrap();
            let snapshot = reg.get(&id).unwrap();
            let want = match &q {
                QueryVec::Packed(hv) => snapshot.plan().predict_packed(hv),
                QueryVec::Dense(d) => snapshot.plan().predict_dense(d),
            }
            .unwrap();
            let got = &served.prediction;
            assert_eq!(got.class, want.class, "{id}: {q:?}");
            assert_eq!(got.score.to_bits(), want.score.to_bits(), "{id}");
            assert_eq!(bits(&got.scores), bits(&want.scores), "{id}");
            largest = largest.max(served.batch_size);
        }
        engine.shutdown();
        largest
    }

    #[test]
    fn batched_replies_are_bit_identical_to_single_query_scoring() {
        burst_matches_single_query_plan(Duration::ZERO);
        let largest = burst_matches_single_query_plan(Duration::from_millis(50));
        assert!(largest > 1, "the 50 ms linger never batched the burst");
    }

    #[test]
    fn no_request_is_stranded_whatever_the_worker_count() {
        // Only admission's wakeup moves a queued request to a worker (no
        // timer rescues a lost one), so every reply must arrive, once,
        // within a bounded wait: with and without a linger.
        let reg = Arc::new(ShardedRegistry::new());
        let (a, b) = (ModelId::new("a"), ModelId::new("b"));
        reg.publish(&a, oriented_model(64, 0), "a1").unwrap();
        reg.publish(&b, oriented_model(64, 1), "b1").unwrap();
        for workers in [1, 2, 4] {
            for max_delay in [Duration::ZERO, Duration::from_millis(1)] {
                let config = ServeConfig {
                    workers,
                    max_delay,
                    queue_depth: 1_024,
                    tenant_quota: 1_024,
                    ..ServeConfig::default()
                };
                let engine = ServeEngine::start(Arc::clone(&reg), config).unwrap();
                let (tx, rx) = mpsc::channel();
                let submitters: Vec<_> = (0..4usize)
                    .map(|t| {
                        let (handle, tx) = (engine.handle(), tx.clone());
                        let (a, b) = (a.clone(), b.clone());
                        std::thread::spawn(move || {
                            for i in 0..200usize {
                                let (id, class) = if (t + i) % 2 == 0 { (&a, 0) } else { (&b, 1) };
                                let tx = tx.clone();
                                let key = t * 200 + i;
                                handle
                                    .submit_with(
                                        id,
                                        QueryVec::Dense(query(64, 1.0)),
                                        handle.tracer().begin(),
                                        Box::new(move |outcome| {
                                            let _ = tx.send((key, class, outcome));
                                        }),
                                    )
                                    .unwrap();
                            }
                        })
                    })
                    .collect();
                drop(tx);
                for s in submitters {
                    s.join().unwrap();
                }
                let mut answered = vec![false; 800];
                for _ in 0..800 {
                    let (key, class, outcome) = rx
                        .recv_timeout(Duration::from_secs(10))
                        .unwrap_or_else(|_| {
                            panic!("a request was stranded ({workers} workers, {max_delay:?})")
                        });
                    assert!(!answered[key], "request {key} answered twice");
                    answered[key] = true;
                    assert_eq!(outcome.unwrap().prediction.class, class);
                }
                let report = engine.shutdown();
                assert_eq!(report.completed, 800);
                assert!(rx.try_recv().is_err(), "a request was answered twice");
            }
        }
    }

    #[test]
    fn a_full_batch_never_lingers() {
        // With max_batch 1 every turn is full at once, so a 10 s linger
        // must never engage: each request rides alone, without delay.
        let config = ServeConfig {
            max_batch: 1,
            max_delay: Duration::from_secs(10),
            workers: 1,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let start = Instant::now();
        let pending: Vec<_> = (0..4)
            .map(|_| engine.submit_default(query(64, 1.0)).unwrap())
            .collect();
        for p in pending {
            assert_eq!(p.wait().unwrap().batch_size, 1);
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a full batch lingered"
        );
        engine.shutdown();
    }

    #[test]
    fn shutdown_cuts_a_long_linger_short() {
        let config = ServeConfig {
            workers: 2,
            max_delay: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let pending: Vec<_> = (0..8)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                engine.submit_default(query(64, sign)).unwrap()
            })
            .collect();
        // Shut down only once a worker provably holds the batch open.
        let held = Instant::now() + Duration::from_secs(5);
        while engine.shared.lock_state().lingering == 0 {
            assert!(Instant::now() < held, "no worker lingered");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(engine.shutdown());
        });
        let report = done_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("shutdown sat out the 10 s linger");
        assert_eq!(report.completed, 8);
        for (i, p) in pending.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().prediction.class, i % 2);
        }
    }
}
