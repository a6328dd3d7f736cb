//! The serving engine: per-tenant admission queues served directly by a
//! worker pool, one round-robin turn per batch.
//!
//! ```text
//!  clients ──submit──▶ [per-ModelId queue] [per-ModelId queue] …
//!            (ModelId,       │ quota-bounded     │
//!             query or       ▼                   ▼
//!             raw features)
//!              worker pool: an idle worker takes one round-robin
//!              turn straight off the queues — that turn is its
//!              batch (one ModelId, ≤ max_batch)
//!                     │    │    │
//!                     ▼    ▼    ▼
//!                   (raw features: edge encode ∘ obfuscate, then)
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
//! Workers drain the queues round-robin: each tenant with waiting
//! requests sits once in an active ring, and each turn serves at most
//! [`ServeConfig::max_batch`] of its requests before the next tenant's
//! turn. A flooding tenant therefore gets at most `max_batch` requests
//! ahead of a victim per round regardless of how deep its backlog is.
//! Every request costs one unit, so this is deficit round-robin (DRR)
//! with a quantum of `max_batch` and a deficit that is always zero
//! between turns.
//!
//! ## Batching
//!
//! Batching is *backlog* batching, as in Clipper (Crankshaw et al.,
//! NSDI '17): a worker's turn takes whatever its tenant has queued, up
//! to `max_batch`, and that is the batch. A lone request on an
//! idle engine is served at once, while a saturated queue forms full
//! batches; no worker waits for more requests than its turn found.
//! Every batch holds requests for exactly one model, resolved against
//! one registry snapshot when it executes. A hot swap
//! ([`ShardedRegistry::publish`]) never drops or corrupts in-flight
//! requests — they complete on the version that was live when their
//! batch started.
//!
//! A batch's packed queries, one or many, are scored together by one
//! [`privehd_core::ModelPlan::predict_packed_batch`] call, which reads
//! float class rows once per block instead of once per query; every
//! score still bit-matches the query scored alone. Their replies go out
//! in batch order when the call returns. Dense and raw requests are then
//! scored one at a time, each reply delivered the moment its own scoring
//! finishes. The plan was compiled at publish; which SIMD arm each
//! kernel takes is a memoized CPUID check inside the kernel call.
//!
//! ## Raw features
//!
//! The wire front-end submits a raw-features frame as its features plus
//! the tenant's server-side [`ClientEdge`], into the same tenant queue
//! as a packed query: it is charged to the tenant's quota and
//! round-robin turn like any other request. The worker whose
//! turn serves it runs [`ClientEdge::prepare`] (the
//! [`Stage::Encode`] stage) and then scores the dense result. In-process
//! callers submit [`QueryVec`]s only.
//!
//! ## Fault containment
//!
//! Each request is served under `catch_unwind`: a panic before its reply
//! is delivered (in a raw request's edge as well as in scoring) answers
//! it [`ServeError::Internal`], a panic inside its reply callback is
//! never followed by a second delivery, and the worker carries on with
//! the rest of its batch. A batch's packed queries are scored under one
//! more `catch_unwind`: a panic there answers each of them
//! [`ServeError::Internal`]. Every caught panic is counted in
//! [`ServeReport::panics_contained`].
//!
//! ## Shutdown contract
//!
//! [`ServeEngine::shutdown`] (and `Drop`) first marks the engine
//! closed — subsequent [`SubmitHandle::submit`] calls return
//! [`ServeError::Closed`] — then wakes every worker. Workers finish the
//! batch in hand, drain every queue and exit, so requests accepted before
//! shutdown get real results. Shutdown therefore completes even while
//! clones of [`SubmitHandle`] are still alive on other threads. A
//! request that loses the race with shutdown is answered with
//! [`ServeError::Closed`] through its [`PendingPrediction`].

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use privehd_core::telemetry::{Stage, TraceCtx, Tracer};
use privehd_core::{BipolarHv, Hypervector, Prediction};

use crate::edge::ClientEdge;
use crate::error::ServeError;
use crate::metrics::{ModelCounters, ServeMetrics, ServeReport};
use crate::registry::{ModelId, ServedModel, ShardedRegistry};

/// Tuning knobs of the serving engine.
///
/// Construct with struct-update syntax over [`ServeConfig::default`];
/// [`ServeEngine::start`] validates the config before any thread
/// spawns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest batch a worker executes, and the round-robin quantum:
    /// one tenant's turn takes at most this many of its requests before
    /// the next tenant's turn. Smaller values interleave tenants more
    /// finely (fairer under flood), larger values favor per-tenant
    /// batch density.
    pub max_batch: usize,
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
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_depth: 1_024,
            tenant_quota: 256,
        }
    }
}

impl ServeConfig {
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
        Ok(())
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
/// runs on `XOR`+popcount words instead of `f64` lanes.
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

/// What a request carries through its tenant's queue: a query scored as
/// it is, or a wire raw-features frame's features with the server-side
/// edge that encodes ∘ obfuscates them on the worker serving the
/// request.
pub(crate) enum Payload {
    Query(QueryVec),
    Raw(Arc<ClientEdge>, Vec<f64>),
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

/// One queued request: the target model, the payload, and its reply
/// slot.
struct Request {
    model: ModelId,
    payload: Payload,
    trace: TraceCtx,
    submitted_at: Instant,
    /// Stamped by the worker that takes the request off its queue
    /// (equal to `submitted_at` until then): `submitted_at..taken_at`
    /// is the queue-wait stage, and `taken_at` until the request's own
    /// work starts is the batch-wait stage.
    taken_at: Instant,
    reply: ReplySlot,
}

/// The engine's shared scheduling state: every tenant's queue plus the
/// active ring the round-robin walks.
#[derive(Default)]
struct SchedState {
    /// Each tenant's waiting requests. A tenant has an entry exactly
    /// while its queue is non-empty: a turn that empties a queue
    /// removes it.
    queues: HashMap<ModelId, VecDeque<Request>>,
    /// Tenants with waiting requests, in turn order: exactly the keys
    /// of `queues`, each once. A tenant joins when its queue goes from
    /// empty to one request.
    active: VecDeque<ModelId>,
    /// Waiting requests across every tenant (the `queue_depth` gauge).
    queued_total: usize,
    stopped: bool,
}

/// The shared queue: per-tenant queues behind one mutex, the condvar
/// idle workers wait on, and the admission limits.
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
    payload: Payload,
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
        payload,
        trace,
        submitted_at: now,
        taken_at: now,
        reply,
    };
    let mut st = shared.lock_state();
    if st.stopped {
        return Err(ServeError::Closed);
    }
    let tenant_len = st.queues.get(model).map_or(0, VecDeque::len);
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
        let queue = st.queues.entry(model.clone()).or_default();
        queue.push_back(request);
        queue.len() == 1
    };
    if newly_active {
        st.active.push_back(model.clone());
    }
    st.queued_total += 1;
    drop(st);
    metrics.on_submit(model);
    shared.ready.notify_one();
    Ok(())
}

/// One round-robin turn: the tenant at the head of the active ring
/// dequeues `min(quantum, queued)` of its requests into `out`, and
/// either rejoins the ring (backlog left) or leaves the map (emptied).
fn drr_round(st: &mut SchedState, quantum: usize, out: &mut Vec<Request>) {
    let Some(id) = st.active.pop_front() else {
        return;
    };
    let Some(queue) = st.queues.get_mut(&id) else {
        return;
    };
    let take = quantum.min(queue.len());
    out.extend(queue.drain(..take));
    let now_empty = queue.is_empty();
    st.queued_total -= take;
    if now_empty {
        st.queues.remove(&id);
    } else {
        st.active.push_back(id);
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
            Payload::Query(query),
            trace,
            ReplySlot::Oneshot(reply),
        )?;
        Ok(PendingPrediction { rx })
    }

    /// Submits with an in-process completion callback instead of a
    /// [`PendingPrediction`]: the wire front-end's reactors use this to
    /// route finished predictions straight back to their connection's
    /// completion inbox without a polling hop, for packed and raw
    /// frames alike. The callback runs on the engine worker serving the
    /// request and is invoked exactly once.
    pub(crate) fn submit_with(
        &self,
        model: &ModelId,
        payload: Payload,
        trace: TraceCtx,
        on_done: Box<dyn Fn(Result<ServedPrediction, ServeError>) + Send + Sync>,
    ) -> Result<(), ServeError> {
        submit_slot(
            &self.shared,
            &self.metrics,
            &self.closed,
            model,
            payload,
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

    /// Records one wire stage of the request traced by `ctx`: the
    /// global stage histogram and the sampled span, from the same two
    /// instants.
    pub(crate) fn stamp(&self, ctx: TraceCtx, stage: Stage, start: Instant, end: Instant) {
        self.metrics.stamp(&self.tracer, ctx, stage, start, end);
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
/// let config = ServeConfig {
///     tenant_quota: 64,
///     ..ServeConfig::default()
/// };
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
    /// The submission side: the queues, metrics, tracer and closed flag
    /// this engine shares with every handle it hands out.
    handle: SubmitHandle,
    registry: Arc<ShardedRegistry>,
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
        let tracer = Arc::new(Tracer::new());
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
            handle: SubmitHandle {
                shared,
                metrics,
                tracer,
                closed,
            },
            registry,
            workers,
        })
    }

    /// Submits one query routed to `model` for batched classification.
    /// Accepts dense ([`Hypervector`]) and bit-packed ([`BipolarHv`])
    /// queries alike; packed queries stay packed end to end and are
    /// scored through the published snapshot's compiled plan
    /// ([`privehd_core::ModelPlan::predict_packed`], or one
    /// [`privehd_core::ModelPlan::predict_packed_batch`] call for a
    /// batch's two or more) with no dense conversion anywhere.
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
        self.handle.submit(model, query)
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
        self.handle.submit_default(query)
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
        self.handle.clone()
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Arc<ShardedRegistry> {
        &self.registry
    }

    /// Live serving counters.
    pub fn metrics(&self) -> &ServeMetrics {
        self.handle.serve_metrics()
    }

    /// Metrics snapshot over the engine's lifetime so far: the same
    /// uptime the wire `Stats` frame derives its throughput from.
    pub fn report(&self) -> ServeReport {
        let metrics = self.metrics();
        metrics.report(metrics.uptime())
    }

    /// Stops accepting submissions, drains the queued requests, joins
    /// all threads and returns the final report.
    ///
    /// Completes even while cloned [`SubmitHandle`]s are still alive;
    /// their later submissions return [`ServeError::Closed`].
    pub fn shutdown(mut self) -> ServeReport {
        self.join_threads();
        self.report()
    }

    fn join_threads(&mut self) {
        // Release: pairs with the Acquire load in `submit_slot`;
        // everything sequenced before shutdown is visible to any
        // submitter that sees the flag.
        let SubmitHandle { shared, closed, .. } = &self.handle;
        closed.store(true, Ordering::Release);
        shared.lock_state().stopped = true;
        shared.ready.notify_all();
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

impl Worker {
    /// The worker loop: sleep until a request is queued, take one
    /// round-robin turn straight from the shared state — that turn is
    /// the batch — and execute it. Once stopped, keep taking turns until
    /// every queue is empty (requests accepted before shutdown get real
    /// results), then exit.
    fn run(&self) {
        let quantum = self.config.max_batch;
        let mut batch: Vec<Request> = Vec::with_capacity(quantum);
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
                drr_round(&mut st, quantum, &mut batch);
                let Some(model) = batch.first().map(|r| r.model.clone()) else {
                    continue;
                };
                // End of the queue-wait stage for everything the turn took.
                let taken_at = Instant::now();
                for request in &mut batch {
                    request.taken_at = taken_at;
                }
                model
            };
            self.execute_batch(&model, &batch);
            batch.clear();
        }
    }

    fn execute_batch(&self, model: &ModelId, requests: &[Request]) {
        let metrics = &*self.metrics;
        metrics.on_batch(requests.len());
        // One snapshot per batch: a concurrent publish (or withdraw) of
        // this model affects later batches, never this one, and other
        // models' batches resolve their own snapshots independently. The
        // per-model metrics row is likewise fetched once per batch.
        let resolve_start = Instant::now();
        let snapshot: Option<Arc<ServedModel>> = self.registry.get(model);
        let resolve_end = Instant::now();
        // Stamped before any reply goes out, so a scrape sent after a
        // reply sees it. `on_batch` above counted the batch first, and
        // `ServeMetrics::report` reads the stages before the batch
        // counter, so the stage's count never exceeds the batch count
        // in a report. Its span goes on the first request.
        if let Some(first) = requests.first() {
            metrics.stamp(
                &self.tracer,
                first.trace,
                Stage::SnapshotResolve,
                resolve_start,
                resolve_end,
            );
        }
        let counters = metrics.model_counters(model);
        if let Some(served) = &snapshot {
            // Snapshot footprint gauges: publish compiled the plan, so
            // these accessors only read cached sizes — no serving work.
            let plan = served.plan();
            metrics.set_model_memory(
                &counters,
                plan.dense_memory_bytes() as u64,
                plan.packed_memory_bytes().unwrap_or(0) as u64,
            );
        }
        let batch = Batch {
            metrics,
            tracer: &self.tracer,
            model,
            snapshot,
            counters,
            size: requests.len(),
        };

        // The batch's packed queries, one or many, are scored by one
        // `predict_packed_batch` call, which reads float class rows once
        // per block; their replies go out in batch order when it returns.
        // Dense and raw requests are then scored one at a time, so each
        // reply is delivered — and its latency measured — the moment its
        // own classification finishes. Either way a bad query fails only
        // its own reply.
        let (packed, queries): (Vec<&Request>, Vec<&BipolarHv>) = requests
            .iter()
            .filter_map(|request| match &request.payload {
                Payload::Query(QueryVec::Packed(hv)) => Some((request, hv)),
                _ => None,
            })
            .unzip();
        if !packed.is_empty() {
            batch.serve_packed(&packed, &queries, |queries| batch.score_packed(queries));
        }
        for request in requests {
            match &request.payload {
                Payload::Query(QueryVec::Packed(_)) => {}
                Payload::Query(QueryVec::Dense(query)) => batch.serve_guarded(request, || {
                    let start = Instant::now();
                    let outcome = batch.score_dense(query);
                    batch.finish(request, outcome, start, start, Instant::now())
                }),
                // The edge's encode is the request's encode stage; its
                // dense result is scored like any dense query.
                Payload::Raw(edge, features) => batch.serve_guarded(request, || {
                    let start = Instant::now();
                    let query = edge.prepare(features);
                    let encoded_at = Instant::now();
                    let outcome = query.and_then(|q| batch.score_dense(&q));
                    batch.finish(request, outcome, start, encoded_at, Instant::now())
                }),
            }
        }
    }
}

/// One batch's serving context: the registry snapshot its requests are
/// scored against and what their replies and metrics are stamped with.
struct Batch<'a> {
    metrics: &'a ServeMetrics,
    tracer: &'a Tracer,
    model: &'a ModelId,
    snapshot: Option<Arc<ServedModel>>,
    counters: Arc<ModelCounters>,
    size: usize,
}

impl Batch<'_> {
    /// Scores one dense query through the plan compiled at publish time.
    fn score_dense(&self, query: &Hypervector) -> Result<Prediction, ServeError> {
        let Some(served) = &self.snapshot else {
            return Err(ServeError::NoModel);
        };
        served
            .plan()
            .predict_dense(query)
            .map_err(ServeError::Model)
    }

    /// Scores the batch's packed queries through the plan in one
    /// [`privehd_core::ModelPlan::predict_packed_batch`] call: the
    /// packed-native path, which never materializes a dense form. Every
    /// query answers [`ServeError::NoModel`] when the batch's model is
    /// not published.
    fn score_packed(&self, queries: &[&BipolarHv]) -> Vec<Result<Prediction, ServeError>> {
        let Some(served) = &self.snapshot else {
            return vec![Err(ServeError::NoModel); queries.len()];
        };
        let scored = served.plan().predict_packed_batch(queries).into_iter();
        scored.map(|r| r.map_err(ServeError::Model)).collect()
    }

    /// Scores the packed `queries` of the `packed` requests (paired in
    /// batch order) with one call of `score`, then delivers each request
    /// its reply, in order. Each request's `batch_wait` ends when the
    /// call starts and its `predict` spans the whole call. A panic in
    /// `score` is counted once and answers every request
    /// [`ServeError::Internal`].
    fn serve_packed(
        &self,
        packed: &[&Request],
        queries: &[&BipolarHv],
        score: impl FnOnce(&[&BipolarHv]) -> Vec<Result<Prediction, ServeError>>,
    ) {
        let start = Instant::now();
        let scored = panic::catch_unwind(AssertUnwindSafe(|| score(queries)));
        let done_at = Instant::now();
        let Ok(results) = scored else {
            self.metrics.on_panic_contained();
            for request in packed {
                self.answer_internal(request);
            }
            return;
        };
        let mut results = results.into_iter();
        for request in packed {
            let outcome = results.next().unwrap_or(Err(ServeError::Internal));
            self.serve_guarded(request, || {
                self.finish(request, outcome, start, start, done_at)
            });
        }
    }

    /// Stamps a served request's metrics and spans and builds its reply:
    /// `work_start..predict_start` is its encode stage (raw payloads
    /// only), `predict_start..done_at` its predict stage.
    fn finish(
        &self,
        request: &Request,
        outcome: Result<Prediction, ServeError>,
        work_start: Instant,
        predict_start: Instant,
        done_at: Instant,
    ) -> Result<ServedPrediction, ServeError> {
        let (submitted_at, ctx) = (request.submitted_at, request.trace);
        let latency = done_at.saturating_duration_since(submitted_at);
        // End-to-end first, stage rows after: a reader snapshotting
        // mid-request then always observes per-stage counts ≤ the
        // end-to-end count — the invariant the consistency test pins.
        self.metrics
            .on_done(&self.counters, outcome.is_ok(), latency);
        self.stamp(ctx, Stage::QueueWait, submitted_at, request.taken_at);
        self.stamp(ctx, Stage::BatchWait, request.taken_at, work_start);
        if let Payload::Raw(..) = request.payload {
            self.stamp(ctx, Stage::Encode, work_start, predict_start);
        }
        self.stamp(ctx, Stage::Predict, predict_start, done_at);
        // Span only: the end-to-end histogram is `on_done`'s.
        self.tracer
            .record(ctx, Stage::EndToEnd, submitted_at, done_at);
        outcome.map(|prediction| ServedPrediction {
            prediction,
            model: self.model.clone(),
            model_version: self.snapshot.as_ref().map_or(0, |s| s.version),
            batch_size: self.size,
            latency,
        })
    }

    /// Records one engine stage of the request traced by `ctx`: the
    /// global stage histogram and the sampled span, from the same two
    /// instants.
    fn stamp(&self, ctx: TraceCtx, stage: Stage, start: Instant, end: Instant) {
        self.metrics.stamp(self.tracer, ctx, stage, start, end);
    }

    /// Delivers `request` the reply `produce` builds, exactly once.
    /// The guard is set just before the reply is handed to its slot: a
    /// panic before that still owes the request its answer
    /// ([`ServeError::Internal`]); a panic after it came from the slot
    /// itself (a reply callback), which has had its one delivery. Every
    /// caught panic is counted.
    fn serve_guarded(
        &self,
        request: &Request,
        produce: impl FnOnce() -> Result<ServedPrediction, ServeError>,
    ) {
        let mut handed_over = false;
        let served = panic::catch_unwind(AssertUnwindSafe(|| {
            let reply = produce();
            handed_over = true;
            request.reply.deliver(reply);
        }));
        if served.is_err() {
            self.metrics.on_panic_contained();
            if !handed_over {
                self.answer_internal(request);
            }
        }
    }

    /// Answers `request` [`ServeError::Internal`] after a panic cost it
    /// its real reply.
    fn answer_internal(&self, request: &Request) {
        let latency = request.submitted_at.elapsed();
        self.metrics.on_done(&self.counters, false, latency);
        let fault = Err(ServeError::Internal);
        if panic::catch_unwind(AssertUnwindSafe(|| request.reply.deliver(fault))).is_err() {
            self.metrics.on_panic_contained();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use privehd_core::HdModel;

    /// Parks engine workers, so a test forms batches without a timer.
    /// Each parked worker serves one of the gate's requests, whose reply
    /// callback reports that it entered and then blocks until the gate
    /// opens. Whatever is submitted meanwhile queues, so once the gate
    /// opens the next round-robin turn takes `min(max_batch, queued)` of
    /// its tenant's requests as one batch. Dropping the gate opens it, so
    /// a failing test never leaves a worker parked behind its engine's
    /// shutdown.
    pub(crate) struct Gate {
        state: Arc<(Mutex<GateState>, Condvar)>,
    }

    #[derive(Default)]
    struct GateState {
        entered: usize,
        open: bool,
    }

    impl Gate {
        /// Parks `workers` of `handle`'s engine's workers, one at a
        /// time, each on one `query` for `model`: the engine's counts
        /// grow by those `workers` requests. Each worker is seen to
        /// enter before the next request is submitted, so no two of the
        /// gate's requests share a batch.
        pub(crate) fn park(
            handle: &SubmitHandle,
            workers: usize,
            model: &ModelId,
            query: &QueryVec,
        ) -> Self {
            let gate = Self {
                state: Arc::default(),
            };
            for parked in 1..=workers {
                let state = Arc::clone(&gate.state);
                let on_done = move |_: Result<ServedPrediction, ServeError>| {
                    let (lock, changed) = &*state;
                    let mut st = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    st.entered += 1;
                    changed.notify_all();
                    while !st.open {
                        st = changed.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                let payload = Payload::Query(query.clone());
                handle
                    .submit_with(model, payload, handle.tracer().begin(), Box::new(on_done))
                    .expect("the gate's request is admitted");
                let (lock, changed) = &*gate.state;
                let st = lock.lock().unwrap_or_else(PoisonError::into_inner);
                let (_st, waited) = changed
                    .wait_timeout_while(st, Duration::from_secs(10), |st| st.entered < parked)
                    .unwrap_or_else(PoisonError::into_inner);
                assert!(!waited.timed_out(), "worker {parked} never parked");
            }
            gate
        }

        /// Opens the gate: each parked worker finishes its gate request
        /// and takes its next turn.
        pub(crate) fn release(self) {}
    }

    impl Drop for Gate {
        fn drop(&mut self) {
            let (lock, changed) = &*self.state;
            lock.lock().unwrap_or_else(PoisonError::into_inner).open = true;
            changed.notify_all();
        }
    }

    /// Parks `workers` workers of `engine` on the default model.
    fn park(engine: &ServeEngine, workers: usize, query: impl Into<QueryVec>) -> Gate {
        Gate::park(&engine.handle, workers, &ModelId::default(), &query.into())
    }

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
            payload: Payload::Query(QueryVec::Dense(query(8, 1.0))),
            trace: Tracer::new().begin(),
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
        ] {
            assert!(matches!(
                ServeEngine::start(Arc::clone(&reg), bad),
                Err(ServeError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn drr_rounds_account_quantum_across_uneven_queues() {
        // Tenants a/b/c with 10/3/1 waiting requests and quantum 4:
        // turn order must be a:4, b:3 (emptied — leaves the map), c:1,
        // a:4, a:2.
        let (a, b, c) = (ModelId::new("a"), ModelId::new("b"), ModelId::new("c"));
        let mut st = SchedState::default();
        for (id, n) in [(&a, 10usize), (&b, 3), (&c, 1)] {
            st.queues
                .insert(id.clone(), (0..n).map(|_| test_request(id)).collect());
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
            "an emptied tenant leaves the map"
        );

        out.clear();
        drr_round(&mut st, quantum, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out.iter().all(|r| r.model == c));

        out.clear();
        drr_round(&mut st, quantum, &mut out);
        assert_eq!(out.len(), 4, "a's second turn takes a full quantum");
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
        let tracer = Tracer::new();
        let (a, b, c) = (ModelId::new("a"), ModelId::new("b"), ModelId::new("c"));
        let submit = |id: &ModelId| {
            let (reply, _rx) = mpsc::sync_channel(1);
            submit_slot(
                &shared,
                &metrics,
                &closed,
                id,
                Payload::Query(QueryVec::Dense(query(8, 1.0))),
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
        // One worker, parked, and a tiny queue, so a flood backs up into
        // the queue. tenant_quota exceeds queue_depth so the global
        // limit is what trips.
        let config = ServeConfig {
            max_batch: 2,
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let gate = park(&engine, 1, query(64, 1.0));
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
        assert_eq!(pending.len(), 2, "the queue admits exactly its depth");
        gate.release();
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
            workers: 1,
            queue_depth: 1_024,
            tenant_quota: 4,
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let gate = park(&engine, 1, query(64, 1.0));
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
        // A different tenant is still admitted while the flood holds its
        // quota (NoModel is a serving answer, not an admission refusal).
        let other = engine
            .submit(&ModelId::new("other"), query(64, 1.0))
            .unwrap();
        gate.release();
        assert_eq!(other.wait().unwrap_err(), ServeError::NoModel);
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
            workers: 2,
            queue_depth: 256,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(256), config).unwrap();
        let gate = park(&engine, 2, query(256, 1.0));
        let pending: Vec<_> = (0..64)
            .map(|i| {
                engine
                    .submit_default(query(256, if i % 2 == 0 { 1.0 } else { -1.0 }))
                    .unwrap()
            })
            .collect();
        gate.release();
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
        assert_eq!(report.completed, 64 + 2, "the burst and the gate's two");
        assert!(report.mean_batch_size > 1.0, "{report}");
    }

    #[test]
    fn packed_fastpath_agrees_with_dense_path() {
        // Dense ±1 queries once had a packed shortcut; they now take
        // `predict_dense` like any dense query, so the served reply is
        // exactly what `HdModel::predict` gives for the same vector.
        let reg = registry(128);
        let engine = ServeEngine::start(Arc::clone(&reg), ServeConfig::default()).unwrap();
        let model = reg.get(&ModelId::default()).unwrap();
        for seed in 0..20u64 {
            let q = BipolarHv::random(128, seed).to_dense();
            let served = engine.predict(q.clone()).unwrap();
            let direct = model.model().predict(&q).unwrap();
            assert_eq!(served.prediction.class, direct.class, "seed {seed}");
            assert_eq!(served.prediction.scores, direct.scores, "seed {seed}");
        }
        engine.shutdown();
    }

    #[test]
    fn packed_submit_matches_dense_submit() {
        // Sign-only rows are scored by the popcount kernel and float rows
        // by the sign-select kernel; on either, a packed query and its
        // dense form must agree up to summation order.
        let mut model = trained_model(128);
        model.quantize_classes(privehd_core::QuantScheme::Bipolar);
        let signed = Arc::new(ShardedRegistry::with_model(model, "signed").unwrap());
        for reg in [signed, registry(128)] {
            let engine = ServeEngine::start(reg, ServeConfig::default()).unwrap();
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
                let scores = native
                    .prediction
                    .scores
                    .iter()
                    .zip(&dense.prediction.scores);
                for (a, b) in scores {
                    assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
                }
                assert_eq!(native.prediction.class, via_handle.prediction.class);
                assert_eq!(native.model_version, 1);
            }
            let report = engine.shutdown();
            assert_eq!(report.completed, 60);
        }
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
        // resolves (successfully — not with Closed), even a backlog
        // still queued behind a parked worker when shutdown begins.
        let config = ServeConfig {
            max_batch: 4,
            workers: 1,
            queue_depth: 64,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let live_handle = engine.handle();
        let gate = park(&engine, 1, query(64, 1.0));
        let pending: Vec<_> = (0..16)
            .map(|_| engine.submit_default(query(64, 1.0)).unwrap())
            .collect();
        let shutdown = std::thread::spawn(move || engine.shutdown());
        while !live_handle.shared.lock_state().stopped {
            std::thread::yield_now();
        }
        assert_eq!(live_handle.shared.lock_state().queued_total, 16);
        gate.release();
        let report = shutdown.join().unwrap();
        assert_eq!(report.completed, 16 + 1, "the backlog and the gate's one");
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
        // One queued burst, two models: requests must split into
        // single-model batches even though they interleave in the queue.
        let reg = Arc::new(ShardedRegistry::new());
        let (a, b) = (ModelId::new("a"), ModelId::new("b"));
        reg.publish(&a, oriented_model(64, 0), "a1").unwrap();
        reg.publish(&b, oriented_model(64, 1), "b1").unwrap();
        let config = ServeConfig {
            max_batch: 32,
            workers: 2,
            queue_depth: 256,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(reg, config).unwrap();
        let gate = Gate::park(&engine.handle, 2, &a, &query(64, 1.0).into());
        let pending: Vec<_> = (0..32)
            .map(|i| {
                let id = if i % 2 == 0 { &a } else { &b };
                (i, engine.submit(id, query(64, 1.0)).unwrap())
            })
            .collect();
        gate.release();
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
        // One worker, so the gate below holds every turn.
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(registry(64), config).unwrap();
        let ghost = ModelId::new("other");
        let packed = |seed: u64| QueryVec::Packed(BipolarHv::random(64, seed));
        assert_eq!(
            engine.predict_for(&ghost, query(64, 1.0)).unwrap_err(),
            ServeError::NoModel
        );
        // A lone packed query, then three queued behind the gate, which
        // the next turn takes as one batch: each answered once.
        assert_eq!(
            engine.predict_for(&ghost, packed(1)).unwrap_err(),
            ServeError::NoModel
        );
        let handle = engine.handle();
        let gate = park(&engine, 1, query(64, 1.0));
        let (tx, rx) = mpsc::channel();
        for key in 0..3u64 {
            let tx = tx.clone();
            handle
                .submit_with(
                    &ghost,
                    Payload::Query(packed(2 + key)),
                    handle.tracer().begin(),
                    Box::new(move |outcome| tx.send((key, outcome)).unwrap()),
                )
                .unwrap();
        }
        let batches = engine.report().batches;
        gate.release();
        let mut answers: Vec<_> = (0..3)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("a packed request was never answered")
            })
            .collect();
        answers.sort_by_key(|&(key, _)| key);
        let want: Vec<_> = (0..3).map(|key| (key, Err(ServeError::NoModel))).collect();
        assert_eq!(answers, want);
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "a packed request was answered twice"
        );
        assert_eq!(engine.report().batches, batches + 1, "one shared batch");
        // The engine keeps serving, dense and packed.
        assert_eq!(engine.predict(query(64, 1.0)).unwrap().prediction.class, 0);
        let served = engine.predict(BipolarHv::from_signs(&[1.0; 64])).unwrap();
        assert_eq!(served.prediction.class, 0);
        let report = engine.shutdown();
        assert_eq!(
            (report.completed, report.failed),
            (2 + 1, 5),
            "and the gate's one"
        );
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
                Payload::Query(QueryVec::Dense(query(64, 1.0))),
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

    /// One parked worker, so a request whose callback panics rides first
    /// in the same batch as a healthy request: dense queries, or packed
    /// ones scored by one plan call against float rows.
    fn panicking_callback_is_contained(packed: bool) {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let reg = registry(64);
        if packed {
            let snapshot = reg.get(&ModelId::default()).unwrap();
            assert!(snapshot.plan().packed_memory_bytes().is_none());
        }
        let q = |sign: f64| {
            if packed {
                QueryVec::Packed(BipolarHv::from_signs(&[sign; 64]))
            } else {
                QueryVec::Dense(query(64, sign))
            }
        };
        let engine = ServeEngine::start(reg, config).unwrap();
        let handle = engine.handle();
        let gate = park(&engine, 1, q(1.0));
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let counted = Arc::clone(&calls);
        handle
            .submit_with(
                &ModelId::default(),
                Payload::Query(q(1.0)),
                handle.tracer().begin(),
                Box::new(move |outcome| {
                    counted.fetch_add(1, Ordering::SeqCst);
                    tx.send(outcome).unwrap();
                    panic!("reply callback failed");
                }),
            )
            .unwrap();
        let healthy = engine.submit_default(q(-1.0)).unwrap();
        gate.release();
        let healthy = healthy
            .wait()
            .expect("the panic took the healthy request down with it");
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
        assert_eq!(engine.predict(q(1.0)).unwrap().prediction.class, 0);
        let report = engine.shutdown();
        assert_eq!(
            (report.completed, report.failed),
            (3 + 1, 0),
            "and the gate's one"
        );
        assert_eq!(report.panics_contained, 1, "packed: {packed}");
    }

    #[test]
    fn a_panicking_reply_callback_is_contained_to_its_own_request() {
        panicking_callback_is_contained(false);
        panicking_callback_is_contained(true);
    }

    #[test]
    fn a_panic_while_scoring_a_block_answers_each_request_internal_once() {
        let metrics = ServeMetrics::new();
        let tracer = Tracer::new();
        let model = ModelId::default();
        let batch = Batch {
            metrics: &metrics,
            tracer: &tracer,
            model: &model,
            snapshot: registry(64).get(&model),
            counters: metrics.model_counters(&model),
            size: 3,
        };
        let (tx, rx) = mpsc::channel();
        let requests: Vec<Request> = (0..3)
            .map(|i| {
                let tx = tx.clone();
                let mut request = test_request(&model);
                request.reply = ReplySlot::Callback(Box::new(move |outcome| {
                    tx.send((i, outcome)).unwrap();
                    // The last reply callback panics as well.
                    assert!(i < 2, "reply callback failed");
                }));
                request
            })
            .collect();
        let queries: Vec<BipolarHv> = (0..3).map(|i| BipolarHv::random(64, i)).collect();
        let packed: Vec<&Request> = requests.iter().collect();
        let refs: Vec<&BipolarHv> = queries.iter().collect();
        batch.serve_packed(&packed, &refs, |_| panic!("kernel fault"));
        let answers: Vec<_> = rx.try_iter().collect();
        assert_eq!(answers.len(), 3, "each packed request is answered once");
        for (i, (key, outcome)) in answers.into_iter().enumerate() {
            assert_eq!((key, outcome), (i, Err(ServeError::Internal)));
        }
        // The block's panic, then the panicking reply callback.
        let report = metrics.report(Duration::from_secs(1));
        assert_eq!((report.failed, report.panics_contained), (3, 2));
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
    /// Also returns the largest batch any float-row packed reply rode in.
    /// When `gated`, both workers are parked while the burst queues.
    fn burst_matches_single_query_plan(dim: usize, gated: bool) -> (usize, usize) {
        let (float_id, sign_id) = (ModelId::new("float-rows"), ModelId::new("sign-rows"));
        let reg = Arc::new(ShardedRegistry::new());
        reg.publish(&float_id, float_row_model(dim), "f1").unwrap();
        let mut signed = float_row_model(dim);
        signed.quantize_classes(privehd_core::QuantScheme::Bipolar);
        reg.publish(&sign_id, signed, "s1").unwrap();
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::start(Arc::clone(&reg), config).unwrap();
        let gate = gated.then(|| {
            let gate_query = QueryVec::Packed(BipolarHv::random(dim, 1));
            Gate::park(&engine.handle, 2, &float_id, &gate_query)
        });

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
        drop(gate);
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let (mut largest, mut blocked) = (0, 0);
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
            if id == float_id && matches!(q, QueryVec::Packed(_)) {
                blocked = blocked.max(served.batch_size);
            }
        }
        engine.shutdown();
        (largest, blocked)
    }

    #[test]
    fn batched_replies_are_bit_identical_to_single_query_scoring() {
        burst_matches_single_query_plan(512, false);
        let (largest, _) = burst_matches_single_query_plan(512, true);
        assert!(largest > 1, "the gated burst never batched");
        // 1,283 dims cross the packed block pass's 512-column tile and
        // end mid-word. A batch is a run of one tenant's queue, and every
        // third float-row request is packed, so a float-row packed reply
        // from a batch of 6 or more was scored in a block.
        burst_matches_single_query_plan(1_283, false);
        let (_, blocked) = burst_matches_single_query_plan(1_283, true);
        assert!(blocked >= 6, "no float-row packed block formed: {blocked}");
    }

    #[test]
    fn no_request_is_stranded_whatever_the_worker_count() {
        // Only admission's wakeup moves a queued request to a worker (no
        // timer rescues a lost one), so every reply must arrive, once,
        // within a bounded wait.
        let reg = Arc::new(ShardedRegistry::new());
        let (a, b) = (ModelId::new("a"), ModelId::new("b"));
        reg.publish(&a, oriented_model(64, 0), "a1").unwrap();
        reg.publish(&b, oriented_model(64, 1), "b1").unwrap();
        for workers in [1, 2, 4] {
            let config = ServeConfig {
                workers,
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
                                    Payload::Query(QueryVec::Dense(query(64, 1.0))),
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
                    .unwrap_or_else(|_| panic!("a request was stranded ({workers} workers)"));
                assert!(!answered[key], "request {key} answered twice");
                answered[key] = true;
                assert_eq!(outcome.unwrap().prediction.class, class);
            }
            let report = engine.shutdown();
            assert_eq!(report.completed, 800);
            assert!(rx.try_recv().is_err(), "a request was answered twice");
        }
    }

    #[test]
    fn a_drr_turn_over_a_backlog_is_the_batch() {
        // (max_batch, backlog) and the batch each turn over the backlog
        // takes: min(max_batch, remaining). The default cap is 32.
        let cases: [(usize, usize, &[usize]); 5] = [
            (1, 4, &[1, 1, 1, 1]),
            (8, 20, &[8, 8, 4]),
            (4, 10, &[4, 4, 2]),
            (32, 5, &[5]),
            (ServeConfig::default().max_batch, 40, &[32, 8]),
        ];
        for (max_batch, backlog, turns) in cases {
            let config = ServeConfig {
                max_batch,
                workers: 1,
                ..ServeConfig::default()
            };
            let engine = ServeEngine::start(registry(64), config).unwrap();
            let gate = park(&engine, 1, query(64, 1.0));
            let pending: Vec<_> = (0..backlog)
                .map(|_| engine.submit_default(query(64, 1.0)).unwrap())
                .collect();
            gate.release();
            // One worker takes the turns in queue order, so the replies,
            // in submission order, carry each turn's size once per
            // request it took.
            let sizes: Vec<usize> = pending
                .into_iter()
                .map(|p| p.wait().unwrap().batch_size)
                .collect();
            let want: Vec<usize> = turns
                .iter()
                .flat_map(|&turn| std::iter::repeat_n(turn, turn))
                .collect();
            let case = format!("max_batch {max_batch}, backlog {backlog}");
            assert_eq!(sizes, want, "{case}");
            let report = engine.shutdown();
            assert_eq!(
                report.batches,
                turns.len() as u64 + 1,
                "{case}: and the gate's"
            );
        }
    }

    #[test]
    fn snapshot_resolve_is_recorded_before_the_first_reply() {
        // A reply callback runs on the worker mid-batch, so what it reads
        // was recorded before its reply went out: the batch's
        // snapshot-resolve sample, and its span on the sampled trace.
        let engine = ServeEngine::start(registry(64), ServeConfig::default()).unwrap();
        let handle = engine.handle();
        let probe = handle.clone();
        let ctx = handle.tracer().begin();
        assert!(ctx.sampled, "a tracer's first trace is sampled");
        let (tx, rx) = mpsc::channel();
        handle
            .submit_with(
                &ModelId::default(),
                Payload::Query(QueryVec::Dense(query(64, 1.0))),
                ctx,
                Box::new(move |outcome| {
                    let report = probe.serve_metrics().report(Duration::from_secs(1));
                    let resolved = report
                        .stages
                        .iter()
                        .find(|row| row.stage == Stage::SnapshotResolve)
                        .map_or(0, |row| row.count);
                    let span = probe
                        .tracer()
                        .snapshot()
                        .iter()
                        .any(|e| e.trace == ctx.id && e.stage == Stage::SnapshotResolve);
                    tx.send((outcome.is_ok(), resolved, span)).unwrap();
                }),
            )
            .unwrap();
        let seen = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("callback never ran");
        assert_eq!(seen, (true, 1, true), "(served, resolve samples, span)");
        engine.shutdown();
    }

    /// The scheduler's bookkeeping after `step`: the ring and the map
    /// hold the same tenants, each once; no queue is empty; and
    /// `queued_total` is the sum of the queue lengths.
    fn assert_bookkeeping(st: &SchedState, step: usize) {
        let mut ring: Vec<&ModelId> = st.active.iter().collect();
        ring.sort_unstable();
        let mut keys: Vec<&ModelId> = st.queues.keys().collect();
        keys.sort_unstable();
        assert_eq!(ring, keys, "step {step}: ring and map disagree");
        assert!(
            st.queues.values().all(|q| !q.is_empty()),
            "step {step}: an emptied queue kept its entry"
        );
        let queued: usize = st.queues.values().map(VecDeque::len).sum();
        assert_eq!(st.queued_total, queued, "step {step}: queued_total drifted");
    }

    #[test]
    fn round_robin_bookkeeping_holds_across_interleavings() {
        // A seeded interleaving of 2,000 admissions (some refused by the
        // quota or the depth) with turns of random quanta over three
        // tenants, then a drain.
        let shared = SharedQueue {
            state: Mutex::new(SchedState::default()),
            ready: Condvar::new(),
            queue_depth: 24,
            tenant_quota: 12,
        };
        let metrics = ServeMetrics::new();
        let closed = AtomicBool::new(false);
        let tracer = Tracer::new();
        let tenants = [ModelId::new("a"), ModelId::new("b"), ModelId::new("c")];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut admitted, mut refused, mut turns) = (0u64, 0u64, 0usize);
        let mut out = Vec::new();
        let mut turn = |st: &mut SchedState, quantum: usize, step: usize| {
            let head = st.active.front().cloned();
            let queued = head.as_ref().map_or(0, |id| st.queues[id].len());
            out.clear();
            drr_round(st, quantum, &mut out);
            assert_eq!(out.len(), quantum.min(queued), "step {step}");
            assert!(
                out.iter().all(|r| Some(&r.model) == head.as_ref()),
                "step {step}: a turn took another tenant's request"
            );
        };
        let mut step = 0;
        while admitted + refused < 2_000 {
            if next(4) < 3 {
                let (reply, _rx) = mpsc::sync_channel(1);
                let submitted = submit_slot(
                    &shared,
                    &metrics,
                    &closed,
                    &tenants[next(tenants.len())],
                    Payload::Query(QueryVec::Dense(query(8, 1.0))),
                    tracer.begin(),
                    ReplySlot::Oneshot(reply),
                );
                match submitted {
                    Ok(()) => admitted += 1,
                    Err(_) => refused += 1,
                }
            } else {
                turn(&mut shared.lock_state(), 1 + next(4), step);
                turns += 1;
            }
            assert_bookkeeping(&shared.lock_state(), step);
            step += 1;
        }
        assert!(
            admitted > 0 && refused > 0,
            "{admitted} admitted, {refused} refused"
        );
        assert!(turns > 0);
        let mut st = shared.lock_state();
        while st.queued_total > 0 {
            turn(&mut st, 1 + next(4), step);
            assert_bookkeeping(&st, step);
            step += 1;
        }
        assert!(st.queues.is_empty() && st.active.is_empty());
        let report = metrics.report(Duration::from_secs(1));
        assert_eq!((report.submitted, report.rejected), (admitted, refused));
    }
}
