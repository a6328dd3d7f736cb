//! The TCP front-end: N readiness reactors feeding the engine.
//!
//! [`WireServer`] listens on a TCP socket and runs
//! [`WireConfig::reactors`] reactor threads, each driving its own
//! epoll-backed [`polling::Poller`] (the vendored readiness layer —
//! there is no async runtime in this workspace). Every reactor
//! registers the shared listener, so accepts are sharded: a reactor
//! calls `accept` only on a pass whose wait reported the listener
//! readable, whichever reactor wakes first wins the race, and the new
//! connection is pinned to reactor `fd % reactors` (handed off through
//! that reactor's inbox when another reactor accepted it). A connection
//! lives on one reactor for its whole life — no cross-thread state
//! beyond the handoff and completion inboxes.
//!
//! The heavy work never runs on a reactor: the reactor only shovels
//! and frames bytes. Packed and raw-features frames alike are submitted
//! to the engine with a completion callback that posts the finished
//! prediction into the owning reactor's inbox, and wakes its poller
//! only when that inbox held no completions: a burst of replies costs
//! the reactor one wakeup, not one per reply. A raw frame's
//! server-side encode ∘ obfuscate ([`WireConfig::edges`]) runs on the
//! engine worker whose turn serves it, so a raw flood is charged to its
//! tenant's quota and round-robin turns, never to reactor latency.
//!
//! Because completions arrive per request (not per connection pass),
//! pipelined responses on one connection may be written in completion
//! order, not submission order — clients correlate by `request_id`
//! ([`crate::wire::WireClient`] documents the same contract).
//!
//! ## Backpressure and hygiene
//!
//! * Engine queue pressure ([`ServeError::QueueFull`]), a tenant over
//!   its fair-share quota ([`ServeError::TenantOverQuota`]) and the
//!   per-connection in-flight cap ([`WireConfig::max_in_flight`]) are
//!   answered with an explicit [`WireStatus::Busy`] error frame — the
//!   socket never stalls as a side channel of queue state.
//! * Per-connection read and write buffers are bounded (one maximal
//!   frame inbound; a fixed multiple outbound — a peer that stops
//!   reading its responses is disconnected rather than buffered
//!   without bound).
//! * Malformed, oversized, or wrong-version frames get a typed error
//!   frame (with the request id salvaged from the broken frame when
//!   possible), then the connection closes: a byte stream cannot be
//!   re-synchronized after framing is lost.
//! * Idle connections (no traffic, nothing in flight) close after
//!   [`WireConfig::idle_timeout`].
//! * [`WireServer::shutdown`] drains gracefully: every reactor stops
//!   accepting (it stops watching the listener, so a connection pending
//!   in the backlog cannot keep its wait returning) and reading,
//!   finishes its in-flight requests, flushes response buffers, then
//!   closes. If the engine shuts down first, in-flight requests resolve
//!   to [`WireStatus::Closed`] faults and the drain still completes.
//!
//! ## Observability
//!
//! The reactors stamp the wire-side stages of the request path —
//! [`Stage::WireDecode`], [`Stage::Admission`] and [`Stage::WireWrite`]
//! (raw frames' [`Stage::Encode`] is the engine worker's) — into the
//! engine's [`crate::ServeMetrics`]
//! and its sampled trace ring, using one [`TraceCtx`] per request so a
//! trace id spans the transport and the engine. A `Stats` request
//! frame answers with the merged Prometheus-text exposition
//! ([`crate::stats::prometheus_text`]) of the serve report, the
//! transport counters, and the slow-span ring; stats traffic is
//! counted in [`WireReport::stats_served`] only, not in the
//! frame/response counters. See `docs/OBSERVABILITY.md`.

use std::collections::HashMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::edge::ClientEdge;
use crate::engine::{Payload, QueryVec, ServedPrediction, SubmitHandle};
use crate::error::ServeError;
use crate::registry::ModelId;
use crate::wire::frame::{
    salvage_request_id, Frame, FrameError, QueryPayload, RequestFrame, ResponseFrame,
    StatsReplyFrame, WireFault, WirePrediction, WireStatus, DEFAULT_MAX_BODY, HEADER_LEN,
    TRAILER_LEN,
};
use crate::wire::metrics::{WireMetrics, WireReport};
use polling::{Event, Poller};
use privehd_core::telemetry::{Stage, TraceCtx};

/// Tuning knobs of the wire front-end.
///
/// Construct with struct-update syntax over [`WireConfig::default`];
/// [`WireServer::start`] validates the config before a socket is bound.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Reactor (readiness loop) threads. Each runs its own poller;
    /// connections are pinned to `fd % reactors`. Defaults to the
    /// machine's available parallelism, capped at 4 — wire reactors
    /// shovel bytes and should leave cores for the engine's workers.
    pub reactors: usize,
    /// Most simultaneous connections across all reactors; further
    /// accepts are refused (closed immediately).
    pub max_connections: usize,
    /// Cap on a frame's declared body length; larger frames answer
    /// [`WireStatus::TooLarge`] and close the connection.
    pub max_body_bytes: usize,
    /// Per-connection admission cap: requests in flight beyond this
    /// answer [`WireStatus::Busy`] instead of entering the engine — a
    /// flooding connection is throttled at its own edge before it can
    /// monopolize the shared submission queues.
    pub max_in_flight: usize,
    /// Cap on the *bytes a query holds in the engine queue*, expressed
    /// as a dense dimensionality: a raw-features frame may declare at
    /// most `max_query_dim` features (it waits in the queue as its
    /// features, one `f64` each, and is encoded only by the worker
    /// serving it), while a packed frame — which rides the queue
    /// packed-native at 1 bit/dim, with no dense expansion anywhere on
    /// its path — may declare up to `64 × max_query_dim` dimensions,
    /// the same memory held. Decoding never allocates more
    /// than the frame's own size; this cap bounds what admitted queries
    /// pin in the queue, since frames within
    /// [`WireConfig::max_body_bytes`] could otherwise declare millions
    /// of dimensions. Over-cap queries answer a
    /// [`WireStatus::ModelError`] fault. Set it near your largest
    /// served model's dimensionality.
    pub max_query_dim: usize,
    /// A connection with no traffic and nothing in flight closes after
    /// this long.
    pub idle_timeout: Duration,
    /// How long [`WireServer::shutdown`] waits for in-flight requests
    /// to finish before closing connections anyway.
    pub drain_timeout: Duration,
    /// Upper bound on how long a reactor sleeps in `Poller::wait` with
    /// no readiness events; doubles as the timer tick for idle, linger
    /// and drain deadlines.
    pub poll_interval: Duration,
    /// Server-side edge pipelines for [`QueryPayload::Raw`] frames,
    /// keyed by model id: raw features for `id` are queued with
    /// `edges[id]`, and the engine worker serving them runs its encode ∘
    /// obfuscate before scoring. Models without an entry answer
    /// [`WireStatus::UnsupportedPayload`] to raw frames.
    pub edges: HashMap<ModelId, Arc<ClientEdge>>,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            reactors: default_reactors(),
            max_connections: 64,
            max_body_bytes: DEFAULT_MAX_BODY,
            max_in_flight: 32,
            max_query_dim: 65_536,
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(10),
            edges: HashMap::new(),
        }
    }
}

/// Default reactor count: available parallelism capped at 4.
fn default_reactors() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1)
}

impl WireConfig {
    /// Registers a server-side edge for `model`'s raw-features frames
    /// (see [`WireConfig::edges`]).
    #[must_use]
    pub fn with_edge(mut self, model: ModelId, edge: ClientEdge) -> Self {
        self.edges.insert(model, Arc::new(edge));
        self
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.reactors == 0 {
            return Err(ServeError::InvalidConfig("reactors must be ≥ 1".into()));
        }
        if self.max_connections == 0 {
            return Err(ServeError::InvalidConfig(
                "max_connections must be ≥ 1".into(),
            ));
        }
        if self.max_body_bytes < 64 {
            return Err(ServeError::InvalidConfig(
                "max_body_bytes must be ≥ 64".into(),
            ));
        }
        if self.max_in_flight == 0 {
            return Err(ServeError::InvalidConfig(
                "max_in_flight must be ≥ 1".into(),
            ));
        }
        if self.max_query_dim == 0 {
            return Err(ServeError::InvalidConfig(
                "max_query_dim must be ≥ 1".into(),
            ));
        }
        Ok(())
    }
}

/// The poller key every reactor registers the shared listener under.
/// Connection keys start at 1, so 0 is never ambiguous.
const LISTEN_KEY: usize = 0;

/// A finished request on its way back to the connection that issued
/// it: posted by the engine worker that served it into the owning
/// reactor's inbox.
struct Completion {
    /// The connection's poller key on its owning reactor.
    key: usize,
    request_id: u64,
    ctx: TraceCtx,
    outcome: Result<ServedPrediction, ServeError>,
}

/// Work arriving at a reactor from other threads: sockets handed off
/// by the accepting reactor, and completions posted by engine workers.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<Completion>,
}

/// A reactor's poller and inbox, shared with the other reactors (which
/// hand it sockets) and with the completion callbacks (which post it
/// replies).
struct Mailbox {
    poller: Poller,
    inbox: Mutex<Inbox>,
    metrics: Arc<WireMetrics>,
}

impl Mailbox {
    /// Locks the inbox, recovering from poisoning: an inbox holds plain
    /// `Vec`s whose partial state is safe to continue with, and a
    /// poisoned inbox must not wedge every completion behind it.
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Posts a finished request, waking the reactor only when this push
    /// made the completions non-empty. A push behind others rides the
    /// wakeup already owed to the first: the reactor takes the whole
    /// vector under this lock after its wait has consumed the wakeup,
    /// so a completion pushed after that take finds the vector empty
    /// and notifies again.
    fn post(&self, completion: Completion) {
        let first = {
            let mut inbox = self.lock();
            inbox.completions.push(completion);
            inbox.completions.len() == 1
        };
        if first {
            self.metrics.on_reply_notify();
            let _ = self.poller.notify();
        }
    }

    /// Hands an accepted socket to this reactor and wakes it.
    fn hand_off(&self, stream: TcpStream) {
        self.lock().conns.push(stream);
        let _ = self.poller.notify();
    }

    /// Takes everything posted since the last take.
    fn take(&self) -> Inbox {
        std::mem::take(&mut *self.lock())
    }
}

/// Everything one reactor thread needs, bundled so helpers take one
/// argument (and so no per-reactor `Vec` indexing is ever needed —
/// `peers.get(target)` is total).
struct ReactorCtx {
    index: usize,
    listener: Arc<TcpListener>,
    handle: SubmitHandle,
    config: Arc<WireConfig>,
    metrics: Arc<WireMetrics>,
    mailbox: Arc<Mailbox>,
    peers: Vec<Arc<Mailbox>>,
}

/// The engine completion callback for one request: posts its outcome
/// into the owning reactor's mailbox, addressed to the connection's
/// poller key. It runs on the engine worker serving the request,
/// exactly once.
fn reply_callback(
    rctx: &ReactorCtx,
    key: usize,
    request_id: u64,
    ctx: TraceCtx,
) -> Box<dyn Fn(Result<ServedPrediction, ServeError>) + Send + Sync> {
    let mailbox = Arc::clone(&rctx.mailbox);
    Box::new(move |outcome| {
        mailbox.post(Completion {
            key,
            request_id,
            ctx,
            outcome,
        });
    })
}

/// The `Event` expressing interest `want` (readable, writable) for
/// poller key `key`.
fn event_for(key: usize, want: (bool, bool)) -> Event {
    match want {
        (true, true) => Event::all(key),
        (true, false) => Event::readable(key),
        (false, true) => Event::writable(key),
        (false, false) => Event::none(key),
    }
}

/// The running TCP front-end; dropping (or [`WireServer::shutdown`])
/// stops it.
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<WireMetrics>,
    mailboxes: Vec<Arc<Mailbox>>,
    threads: Vec<JoinHandle<()>>,
}

impl fmt::Debug for WireServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.addr)
            .field("reactors", &self.mailboxes.len())
            .finish_non_exhaustive()
    }
}

impl WireServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and spawns
    /// [`WireConfig::reactors`] reactor threads serving requests into
    /// `handle`'s engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for zero-valued knobs,
    /// [`ServeError::Transport`] when the bind (or poller setup)
    /// fails.
    ///
    /// # Examples
    ///
    /// A full loopback round trip:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use privehd_core::{BipolarHv, HdModel, Hypervector};
    /// use privehd_serve::wire::{WireClient, WireConfig, WireServer};
    /// use privehd_serve::{ModelId, ServeConfig, ServeEngine, ShardedRegistry};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut model = HdModel::new(2, 64)?;
    /// model.bundle(0, &Hypervector::from_vec(vec![1.0; 64]))?;
    /// model.bundle(1, &Hypervector::from_vec(vec![-1.0; 64]))?;
    /// let registry = Arc::new(ShardedRegistry::with_model(model, "demo")?);
    /// let engine = ServeEngine::start(registry, ServeConfig::default())?;
    ///
    /// let server = WireServer::start("127.0.0.1:0", engine.handle(), WireConfig::default())?;
    /// let mut client = WireClient::connect(server.local_addr())?;
    /// let query = BipolarHv::from_signs(&vec![1.0; 64]);
    /// let served = client.call_packed(&ModelId::default(), &query)?;
    /// assert_eq!(served.class, 0);
    ///
    /// let report = server.shutdown();
    /// assert_eq!(report.responses_out, 1);
    /// engine.shutdown();
    /// # Ok(())
    /// # }
    /// ```
    pub fn start(
        addr: impl ToSocketAddrs,
        handle: SubmitHandle,
        config: WireConfig,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::Transport(format!("bind failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Transport(format!("set_nonblocking failed: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Transport(format!("local_addr failed: {e}")))?;
        let listener = Arc::new(listener);
        let config = Arc::new(config);
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(WireMetrics::new());
        let n = config.reactors;
        let mut mailboxes = Vec::with_capacity(n);
        for _ in 0..n {
            let poller = Poller::new()
                .map_err(|e| ServeError::Transport(format!("poller setup failed: {e}")))?;
            mailboxes.push(Arc::new(Mailbox {
                poller,
                inbox: Mutex::new(Inbox::default()),
                metrics: Arc::clone(&metrics),
            }));
        }
        let mut threads = Vec::with_capacity(n);
        for (index, mailbox) in mailboxes.iter().enumerate() {
            let rctx = ReactorCtx {
                index,
                listener: Arc::clone(&listener),
                handle: handle.clone(),
                config: Arc::clone(&config),
                metrics: Arc::clone(&metrics),
                mailbox: Arc::clone(mailbox),
                peers: mailboxes.clone(),
            };
            let stop_flag = Arc::clone(&stop);
            let spawned = std::thread::Builder::new()
                .name(format!("privehd-wire-{index}"))
                .spawn(move || run_reactor(rctx, &stop_flag));
            match spawned {
                Ok(t) => threads.push(t),
                Err(e) => {
                    // Release: pairs with the reactors' Acquire loads;
                    // makes this stop visible before they are woken.
                    stop.store(true, Ordering::Release);
                    for m in &mailboxes {
                        let _ = m.poller.notify();
                    }
                    for t in threads {
                        let _ = t.join();
                    }
                    return Err(ServeError::Transport(format!("spawn failed: {e}")));
                }
            }
        }
        Ok(Self {
            addr: local,
            stop,
            metrics,
            mailboxes,
            threads,
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live transport counters.
    pub fn metrics(&self) -> &WireMetrics {
        &self.metrics
    }

    /// Snapshot of the transport counters.
    pub fn report(&self) -> WireReport {
        self.metrics.report()
    }

    /// Stops accepting, drains in-flight requests (bounded by
    /// [`WireConfig::drain_timeout`]), closes every connection, joins
    /// the reactor threads, and returns the final transport report.
    pub fn shutdown(mut self) -> WireReport {
        self.join();
        self.metrics.report()
    }

    fn join(&mut self) {
        // Release: pairs with the reactors' Acquire load of `stop`;
        // writes before shutdown are visible to them.
        self.stop.store(true, Ordering::Release);
        for m in &self.mailboxes {
            let _ = m.poller.notify();
        }
        for t in self.threads.drain(..) {
            // analyze::allow(no-panic-path): re-raising a reactor
            // panic at shutdown is deliberate — it fires only on an
            // internal bug, never on peer input, and must not be
            // swallowed into a clean-looking report.
            t.join().expect("wire reactor thread panicked");
        }
        // A socket accepted on reactor A and handed to reactor B can
        // land in B's inbox after B exited its loop: release those
        // slots here so the open-connection gauge ends at zero.
        for mailbox in &self.mailboxes {
            let mut guard = mailbox.lock();
            for stream in guard.conns.drain(..) {
                drop(stream);
                self.metrics.on_conn_close();
            }
            guard.completions.clear();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.join();
    }
}

/// One live connection's state inside its owning reactor.
struct Conn {
    stream: TcpStream,
    /// This connection's poller key on its owning reactor (unique for
    /// the reactor's lifetime; never reused, so a stale completion for
    /// a dead connection cannot alias a live one).
    key: usize,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// Requests submitted and not yet answered; their results arrive as
    /// [`Completion`]s.
    in_flight: usize,
    /// The (readable, writable) interest currently registered with the
    /// poller; updated on transitions only.
    interest: (bool, bool),
    last_activity: Instant,
    /// Peer half-closed its send side; serve what's in flight, then go.
    eof: bool,
    /// Framing was lost (or the peer must go): close once the write
    /// buffer flushes.
    close_after_flush: bool,
    /// Set once the fault frame is flushed and the write side is shut
    /// down: keep *reading and discarding* the peer's in-flight bytes
    /// until EOF or this deadline, so closing with unread data in the
    /// kernel buffer does not RST away the fault frame we just sent.
    linger_until: Option<Instant>,
    dead: bool,
}

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// How long a poisoned connection lingers discarding the peer's
/// in-flight bytes after its fault frame is flushed.
const CLOSE_LINGER: Duration = Duration::from_secs(1);

// analyze: nonblocking-region — every Conn method runs on a reactor
// thread; one blocking call here stalls every peer pinned to it.
impl Conn {
    fn new(stream: TcpStream, key: usize) -> Self {
        Self {
            stream,
            key,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            in_flight: 0,
            interest: (false, false),
            last_activity: Instant::now(),
            eof: false,
            close_after_flush: false,
            linger_until: None,
            dead: false,
        }
    }

    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.written
    }

    fn settled(&self) -> bool {
        self.in_flight == 0 && self.pending_write() == 0
    }

    /// The (readable, writable) interest this connection wants
    /// registered, given its lifecycle state. Reading stops while
    /// poisoned or draining; writing is wanted only with bytes queued.
    fn desired_interest(&self, draining: bool) -> (bool, bool) {
        let want_read =
            self.linger_until.is_some() || (!draining && !self.close_after_flush && !self.eof);
        (want_read, self.pending_write() > 0)
    }

    /// One service round: read, parse/submit, write, lifecycle.
    /// Returns true when any progress was made. `draining` suppresses
    /// reading/parsing so shutdown only finishes what was already
    /// accepted. Completions are applied separately (see
    /// [`Conn::complete`]) as they arrive in the reactor inbox.
    fn pump(&mut self, rctx: &ReactorCtx, draining: bool) -> bool {
        if let Some(deadline) = self.linger_until {
            return self.linger_discard(deadline);
        }
        let mut progress = false;
        if !draining && !self.close_after_flush {
            progress |= self.fill_read_buf(&rctx.config);
            progress |= self.parse_and_submit(rctx);
        }
        progress |= self.flush(&rctx.config);
        self.update_lifecycle(&rctx.config, &rctx.metrics);
        progress
    }

    /// Post-fault lingering: the write side is already shut down (FIN
    /// sent, fault frame flushed); read and discard whatever the peer
    /// had in flight so the close never turns into an RST that
    /// destroys the fault frame on the peer's side.
    fn linger_discard(&mut self, deadline: Instant) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        let mut progress = false;
        loop {
            if Instant::now() >= deadline {
                self.dead = true;
                return true;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return true;
                }
                Ok(_) => progress = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return progress,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
    }

    /// Reads whatever the socket has, up to the bounded buffer size
    /// (header + one maximal body + trailer): a peer streaming faster
    /// than we parse backs up into TCP flow control, not into memory.
    fn fill_read_buf(&mut self, config: &WireConfig) -> bool {
        let cap = HEADER_LEN + config.max_body_bytes + TRAILER_LEN;
        let mut progress = false;
        let mut chunk = [0u8; READ_CHUNK];
        while self.read_buf.len() < cap && !self.eof && !self.dead {
            let want = READ_CHUNK.min(cap - self.read_buf.len());
            // analyze::allow(no-panic-path): `want` is clamped to
            // READ_CHUNK above and `n <= want` per the read contract.
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    // analyze::allow(no-panic-path): `n <= want <= READ_CHUNK`.
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        progress
    }

    /// Decodes every complete frame in the read buffer, answering or
    /// submitting each. A decode error answers a typed fault (request
    /// id salvaged when possible) and poisons the connection.
    fn parse_and_submit(&mut self, rctx: &ReactorCtx) -> bool {
        let handle = &rctx.handle;
        let config = &rctx.config;
        let metrics = &rctx.metrics;
        let mut consumed = 0usize;
        let mut progress = false;
        loop {
            let decode_start = Instant::now();
            // analyze::allow(no-panic-path): `consumed` only grows by
            // the decoded length of complete frames, so it never
            // exceeds `read_buf.len()`.
            match Frame::decode(&self.read_buf[consumed..], config.max_body_bytes) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    let decoded_at = Instant::now();
                    consumed += used;
                    progress = true;
                    self.last_activity = Instant::now();
                    match frame {
                        Frame::Request(req) => {
                            metrics.on_frame_in();
                            // One trace context per request, begun here
                            // so its id spans the wire stages and the
                            // engine's.
                            let ctx = handle.tracer().begin();
                            handle.stamp(ctx, Stage::WireDecode, decode_start, decoded_at);
                            self.handle_request(req, ctx, rctx);
                        }
                        Frame::StatsRequest(req) => {
                            // Metadata, not serving load: answered
                            // inline from counter snapshots, counted
                            // only in `stats_served` (before the
                            // snapshot, so a scrape sees itself).
                            metrics.on_stats_served();
                            let serve = handle.serve_metrics();
                            let report = serve.report(serve.uptime());
                            let wire = metrics.report();
                            let trace = handle.tracer().snapshot();
                            let text = crate::stats::prometheus_text(&report, Some(&wire), &trace);
                            self.queue_frame(Frame::StatsReply(StatsReplyFrame {
                                request_id: req.request_id,
                                text,
                            }));
                        }
                        Frame::Response(resp) => {
                            // Clients must not send response frames.
                            metrics.on_decode_error();
                            self.queue_fault(
                                resp.request_id,
                                WireFault::new(
                                    WireStatus::BadFrame,
                                    "response frame on the request direction",
                                ),
                                metrics,
                            );
                            self.close_after_flush = true;
                            break;
                        }
                        Frame::StatsReply(resp) => {
                            metrics.on_decode_error();
                            self.queue_fault(
                                resp.request_id,
                                WireFault::new(
                                    WireStatus::BadFrame,
                                    "stats reply frame on the request direction",
                                ),
                                metrics,
                            );
                            self.close_after_flush = true;
                            break;
                        }
                    }
                }
                Err(err) => {
                    metrics.on_decode_error();
                    // analyze::allow(no-panic-path): same bound as the
                    // decode call above; salvage_request_id is total.
                    let id = salvage_request_id(&self.read_buf[consumed..]).unwrap_or(0);
                    let status = match err {
                        FrameError::Oversized { .. } => WireStatus::TooLarge,
                        FrameError::UnsupportedVersion(_) => WireStatus::UnsupportedVersion,
                        _ => WireStatus::BadFrame,
                    };
                    self.queue_fault(id, WireFault::new(status, err.to_string()), metrics);
                    self.close_after_flush = true;
                    progress = true;
                    break;
                }
            }
        }
        if self.close_after_flush {
            // Framing is lost (or the peer is leaving): drop the rest.
            self.read_buf.clear();
        } else if consumed > 0 {
            self.read_buf.drain(..consumed);
        }
        progress
    }

    /// Admission and submission for one request.
    ///
    /// Packed and raw frames submit from the reactor with a completion
    /// callback pointing at this reactor's inbox; a raw frame carries
    /// its model's edge, which the engine worker serving it runs. On
    /// successful submission the reactor stamps [`Stage::Admission`]
    /// (frame-decoded to engine-accepted). Rejected requests stamp
    /// nothing — the stage histograms decompose served traffic.
    fn handle_request(&mut self, req: RequestFrame, ctx: TraceCtx, rctx: &ReactorCtx) {
        let admit_start = Instant::now();
        let handle = &rctx.handle;
        let config = &rctx.config;
        let metrics = &rctx.metrics;
        let RequestFrame {
            request_id,
            model,
            payload,
        } = req;
        if self.in_flight >= config.max_in_flight {
            metrics.on_busy();
            self.queue_fault(
                request_id,
                WireFault::new(WireStatus::Busy, "connection in-flight cap reached"),
                metrics,
            );
            return;
        }
        // Admission accounts for bytes *held* after submission, not a
        // frame's declared dimensionality: a packed query stays packed
        // (1 bit/dim) through the queue, so it may carry 64× the
        // dimensions of a raw frame (whose features wait in the queue
        // at one f64 each) for the same queue memory.
        let (query_dim, dim_cap) = match &payload {
            QueryPayload::Packed(hv) => (hv.dim(), config.max_query_dim.saturating_mul(64)),
            QueryPayload::Raw(features) => (features.len(), config.max_query_dim),
        };
        if query_dim > dim_cap {
            self.queue_fault(
                request_id,
                WireFault::new(
                    WireStatus::ModelError,
                    format!("query dimensionality {query_dim} exceeds the server cap {dim_cap}"),
                ),
                metrics,
            );
            return;
        }
        let payload = match payload {
            // Packed-native: the frame's bit-packed words are handed to
            // the engine as-is — no to_dense() on this path, by
            // contract (a conversion-count test pins it).
            QueryPayload::Packed(hv) => Payload::Query(QueryVec::Packed(hv)),
            QueryPayload::Raw(features) => match config.edges.get(&model) {
                Some(edge) => Payload::Raw(Arc::clone(edge), features),
                None => {
                    self.queue_fault(
                        request_id,
                        WireFault::new(
                            WireStatus::UnsupportedPayload,
                            "no server-side edge registered for this model",
                        ),
                        metrics,
                    );
                    return;
                }
            },
        };
        let on_done = reply_callback(rctx, self.key, request_id, ctx);
        match handle.submit_with(&model, payload, ctx, on_done) {
            Ok(()) => {
                self.in_flight += 1;
                handle.stamp(ctx, Stage::Admission, admit_start, Instant::now());
            }
            Err(e) => {
                if matches!(e, ServeError::QueueFull | ServeError::TenantOverQuota) {
                    metrics.on_busy();
                }
                self.queue_fault(request_id, fault_for(&e), metrics);
            }
        }
    }

    /// Applies one finished request to this connection: frames the
    /// response (stamping [`Stage::WireWrite`] — response framing into
    /// the write buffer; the socket write itself is batched across
    /// requests and not attributable to one) and releases its
    /// in-flight slot.
    fn complete(&mut self, completion: Completion, handle: &SubmitHandle, metrics: &WireMetrics) {
        let Completion {
            request_id,
            ctx,
            outcome,
            ..
        } = completion;
        self.in_flight = self.in_flight.saturating_sub(1);
        let outcome = match outcome {
            Ok(served) => Ok(wire_prediction(served)),
            Err(e) => Err(fault_for(&e)),
        };
        let write_start = Instant::now();
        self.queue_response(ResponseFrame {
            request_id,
            outcome,
        });
        handle.stamp(ctx, Stage::WireWrite, write_start, Instant::now());
        metrics.on_response_out();
    }

    fn queue_fault(&mut self, request_id: u64, fault: WireFault, metrics: &WireMetrics) {
        self.queue_response(ResponseFrame {
            request_id,
            outcome: Err(fault),
        });
        metrics.on_response_out();
    }

    fn queue_response(&mut self, resp: ResponseFrame) {
        self.queue_frame(Frame::Response(resp));
    }

    fn queue_frame(&mut self, frame: Frame) {
        // Server-built frames have bounded fields, so encoding cannot
        // fail unless the builder itself is buggy; poison just this
        // connection instead of panicking the reactor.
        if frame.encode_into(&mut self.write_buf).is_err() {
            self.dead = true;
            return;
        }
        self.last_activity = Instant::now();
    }

    /// Writes as much of the pending response bytes as the socket
    /// accepts; disconnects peers that stopped reading (bounded write
    /// buffer).
    fn flush(&mut self, config: &WireConfig) -> bool {
        let mut progress = false;
        while self.pending_write() > 0 && !self.dead {
            // analyze::allow(no-panic-path): `written` only advances by
            // bytes the socket accepted, never past `write_buf.len()`.
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.written += n;
                    self.last_activity = Instant::now();
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        if self.written > 0 && self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
        } else if self.written > 64 * 1024 {
            self.write_buf.drain(..self.written);
            self.written = 0;
        }
        // A peer that neither reads responses nor slows down would grow
        // the write buffer without bound; cut it off instead.
        if self.pending_write() > config.max_body_bytes.max(64 * 1024) * 2 {
            self.dead = true;
        }
        progress
    }

    fn update_lifecycle(&mut self, config: &WireConfig, metrics: &WireMetrics) {
        if self.dead {
            return;
        }
        let settled = self.settled();
        if settled && self.close_after_flush {
            // Fault frame flushed: half-close and linger-discard the
            // peer's in-flight bytes instead of dropping the socket
            // (which would RST away the fault we just sent).
            let _ = self.stream.shutdown(Shutdown::Write);
            self.linger_until = Some(Instant::now() + CLOSE_LINGER);
        } else if settled && self.eof {
            self.dead = true;
        } else if settled && self.last_activity.elapsed() > config.idle_timeout {
            // Covers both silent peers and peers stalled mid-frame
            // (read_buf non-empty but no bytes arriving): either way
            // the slot is reclaimed, so half-open connections cannot
            // pin the accept cap forever.
            metrics.on_idle_close();
            self.dead = true;
        }
    }
}
// analyze: end-nonblocking-region

/// Maps an engine-side error onto the wire status vocabulary.
fn fault_for(e: &ServeError) -> WireFault {
    match e {
        ServeError::QueueFull => WireFault::new(WireStatus::Busy, "engine queue full"),
        ServeError::TenantOverQuota => {
            WireFault::new(WireStatus::Busy, "per-tenant quota full — back off")
        }
        ServeError::Closed => WireFault::new(WireStatus::Closed, "engine shut down"),
        ServeError::NoModel => WireFault::new(WireStatus::NoModel, "no model published"),
        other => WireFault::new(WireStatus::ModelError, other.to_string()),
    }
}

fn wire_prediction(served: ServedPrediction) -> WirePrediction {
    WirePrediction {
        model: served.model,
        class: u32::try_from(served.prediction.class).unwrap_or(u32::MAX),
        score: served.prediction.score,
        model_version: served.model_version,
        batch_size: u32::try_from(served.batch_size).unwrap_or(u32::MAX),
        latency: served.latency,
    }
}

/// One reactor's readiness loop: wait, accept when the listener is
/// ready (shared listener race), absorb handoffs and completions from
/// the inbox, pump every pinned connection, reap the dead, drain on
/// stop.
// analyze: nonblocking-region — the loop body multiplexes all peers
// pinned to this reactor; only the poller wait below may block.
fn run_reactor(rctx: ReactorCtx, stop: &AtomicBool) {
    let poller = &rctx.mailbox.poller;
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key: usize = LISTEN_KEY + 1;
    let mut events: Vec<Event> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    // Every reactor registers the shared nonblocking listener: accept
    // readiness wakes them all, the accept() winner takes the socket,
    // the losers see WouldBlock (level-triggered, so a connection still
    // pending is reported again on the next wait).
    let _ = poller.add(&*rctx.listener, Event::readable(LISTEN_KEY));
    loop {
        // analyze::allow(nonblocking-region): the poller wait IS the
        // loop's single intended blocking point — bounded by
        // poll_interval (the timer tick for idle/linger/drain
        // deadlines) and woken early by readiness or `notify`.
        let timeout = Some(rctx.config.poll_interval);
        let _ = poller.wait(&mut events, timeout);
        rctx.metrics.on_reactor_pass();
        // Acquire: pairs with the Release store in `WireServer::join`.
        // Loaded after the wait, so the wakeup `join` sends after its
        // store always reaches a pass that sees the stop: the drain
        // never waits for the tick to begin.
        let draining = stop.load(Ordering::Acquire);
        if draining && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + rctx.config.drain_timeout);
            // A draining reactor accepts nothing, and a connection
            // pending in the backlog would report the level-triggered
            // listener readable on every wait: stop watching it.
            let _ = poller.delete(&*rctx.listener);
        }
        if !draining && events.iter().any(|e| e.key == LISTEN_KEY) {
            accept_new(&mut conns, &mut next_key, &rctx);
        }
        // Absorb the inbox: sockets handed off by other reactors, and
        // completions posted by engine workers. Taken after the wait
        // consumed any wakeup, so a completion posted after this take
        // finds the inbox empty and wakes the next wait.
        let Inbox {
            conns: handed_off,
            completions,
        } = rctx.mailbox.take();
        for stream in handed_off {
            if draining {
                // Accepted before the stop, handed off after: close it
                // instead of starting work we are draining away.
                drop(stream);
                rctx.metrics.on_conn_close();
                continue;
            }
            register_conn(stream, &mut conns, &mut next_key, &rctx);
        }
        for completion in completions {
            // A completion for a connection that died while its
            // request was in flight has nowhere to go; drop it (keys
            // are never reused, so it cannot alias a live peer).
            if let Some(conn) = conns.get_mut(&completion.key) {
                conn.complete(completion, &rctx.handle, &rctx.metrics);
            }
        }
        // Pump every connection each wake: events are wake reasons,
        // not work assignments — level-triggered readiness plus the
        // interest bookkeeping in reap_and_update prevents spinning.
        for conn in conns.values_mut() {
            conn.pump(&rctx, draining);
        }
        reap_and_update(&mut conns, &rctx, draining);
        if draining {
            let settled = conns.values().all(Conn::settled);
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if settled || expired {
                break;
            }
        }
    }
    for (_, conn) in conns.drain() {
        let _ = poller.delete(&conn.stream);
        rctx.metrics.on_conn_close();
    }
}

/// Accepts every pending connection on the shared listener: claim a
/// slot from the global cap, pin by `fd % reactors`, hand off to the
/// owning reactor (or register locally).
fn accept_new(conns: &mut HashMap<usize, Conn>, next_key: &mut usize, rctx: &ReactorCtx) {
    loop {
        match rctx.listener.accept() {
            Ok((stream, _peer)) => {
                // Claim a slot of the open-connection gauge, which
                // never passes the cap; a server at its cap refuses.
                if !rctx.metrics.try_open(rctx.config.max_connections) {
                    rctx.metrics.on_refuse();
                    drop(stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    rctx.metrics.on_conn_close();
                    drop(stream);
                    continue;
                }
                rctx.metrics.on_accept();
                let target = stream.as_raw_fd() as usize % rctx.peers.len();
                if target == rctx.index {
                    register_conn(stream, conns, next_key, rctx);
                } else if let Some(peer) = rctx.peers.get(target) {
                    peer.hand_off(stream);
                } else {
                    // Unreachable (target < peers.len() by the modulo)
                    // but total: keep the connection here.
                    register_conn(stream, conns, next_key, rctx);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Registers a freshly pinned connection with this reactor's poller
/// under the next never-reused key.
fn register_conn(
    stream: TcpStream,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
    rctx: &ReactorCtx,
) {
    let key = *next_key;
    *next_key += 1;
    let mut conn = Conn::new(stream, key);
    if rctx
        .mailbox
        .poller
        .add(&conn.stream, Event::readable(key))
        .is_err()
    {
        rctx.metrics.on_conn_close();
        return;
    }
    conn.interest = (true, false);
    conns.insert(key, conn);
}

/// Removes dead connections (deregistering and releasing their slot)
/// and re-registers interest for live ones whose wanted readiness
/// changed.
fn reap_and_update(conns: &mut HashMap<usize, Conn>, rctx: &ReactorCtx, draining: bool) {
    let poller = &rctx.mailbox.poller;
    conns.retain(|_, conn| {
        if conn.dead {
            let _ = poller.delete(&conn.stream);
            rctx.metrics.on_conn_close();
            return false;
        }
        let want = conn.desired_interest(draining);
        if want != conn.interest {
            let event = event_for(conn.key, want);
            if poller.modify(&conn.stream, event).is_err() {
                // The poller lost track of this socket; it can never
                // wake us again, so reclaim the slot.
                let _ = poller.delete(&conn.stream);
                rctx.metrics.on_conn_close();
                return false;
            }
            conn.interest = want;
        }
        true
    });
}

// analyze: end-nonblocking-region

#[cfg(test)]
mod tests;
