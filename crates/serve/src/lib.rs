//! # privehd-serve
//!
//! Concurrent, batched inference serving for the Prive-HD reproduction —
//! the cloud half of the paper's threat model turned into a
//! service-shaped engine.
//!
//! Prive-HD (*Khaleghi, Imani, Rosing — DAC 2020*) assumes an edge
//! device that encodes and obfuscates queries locally, and an untrusted
//! host that runs the associative search over the class hypervectors.
//! `privehd-core` supplies every algorithmic piece; this crate supplies
//! the serving machinery around them:
//!
//! * [`ShardedRegistry`] / [`ModelId`] — *the* model registry: many
//!   independently versioned models (per tenant, encoder basis, or
//!   privacy budget) spread over per-shard locks, each behind an atomic
//!   hot-swap (`Arc`-swap pattern) so retraining publishes a new
//!   version without pausing inference, and in-flight batches finish on
//!   the snapshot they started with. Publishing also compiles the
//!   snapshot's [`privehd_core::ModelPlan`] — the one-time kernel
//!   selection workers dispatch through. Single-model deployments
//!   publish under [`ModelId::default`] with
//!   [`ShardedRegistry::with_model`].
//! * [`ServeEngine`] — per-tenant admission queues with quotas, served
//!   directly by a worker pool: each worker takes one deficit-round-
//!   robin turn off the queues, and that turn is its single-model batch
//!   (backlog batching, at most [`ServeConfig::max_batch`] requests,
//!   with [`ServeConfig::max_delay`] as an opt-in linger). A panic
//!   while serving one request answers only that request, with
//!   [`ServeError::Internal`]. One submit surface for every
//!   representation: queries submitted bit-packed ([`QueryVec::Packed`])
//!   stay packed end to end and are scored by the compiled plan's
//!   `XOR`+`POPCNT` kernel ([`privehd_core::ModelPlan::predict_packed`]);
//!   dense submissions can opt into the same kernel via
//!   [`ServeConfig::packed_fastpath`].
//! * [`ClientEdge`] — the device-side `ScalarEncoder` ∘ `Obfuscator`
//!   composition, guaranteeing the server only ever sees obfuscated
//!   queries.
//! * [`ServeMetrics`] / [`ServeReport`] — throughput, p50/p95/p99
//!   latency from a fixed-bucket histogram, the batch-size
//!   distribution, per-model counters ([`ModelReport`]), and the
//!   stage-level latency decomposition ([`StageReport`]) fed by the
//!   engine's and wire front-end's instrumentation.
//! * [`stats`] — the Prometheus text-format exposition of all of the
//!   above, served over the wire as the `Stats` frame and fetched with
//!   [`wire::WireClient::stats`].
//!
//! See `docs/SERVE.md` in the repository for the multi-tenant API
//! walkthrough, the fairness model, and the shutdown contract. (The
//! pre-unification shims — `submit_to` / `submit_packed` /
//! `ModelRegistry` — served their one deprecation release and are
//! removed; everything submits through `submit(model, query)`.)
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use privehd_core::prelude::*;
//! use privehd_serve::{ClientEdge, ServeConfig, ServeEngine, ShardedRegistry};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Edge side: encode + obfuscate with a shared basis (seed 7).
//! let edge = ClientEdge::new(
//!     EncoderConfig::new(6, 1_024).with_seed(7),
//!     ObfuscateConfig::new(QuantScheme::Bipolar).with_masked_dims(128),
//! )?;
//!
//! // Host side: train on the same basis, publish, serve.
//! let mut model = HdModel::new(2, 1_024)?;
//! for (x, y) in [
//!     (vec![0.9, 0.8, 0.9, 0.1, 0.2, 0.1], 0usize),
//!     (vec![0.1, 0.2, 0.1, 0.9, 0.8, 0.9], 1),
//! ] {
//!     model.bundle(y, &edge.encoder().encode(&x)?)?;
//! }
//! let registry = Arc::new(ShardedRegistry::with_model(model, "demo-v1")?);
//! let engine = ServeEngine::start(registry, ServeConfig::default())?;
//!
//! let served = engine
//!     .submit_default(edge.prepare(&[0.85, 0.75, 0.9, 0.1, 0.15, 0.2])?)?
//!     .wait()?;
//! assert_eq!(served.prediction.class, 0);
//!
//! let report = engine.shutdown();
//! assert_eq!(report.completed, 1);
//! # Ok(())
//! # }
//! ```

// No unsafe: every unsafe site in the workspace lives in privehd-core
// and the vendored readiness layer, under the analyze unsafe-audit
// ledger (see docs/ANALYSIS.md).
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod edge;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod registry;
pub mod stats;
pub mod wire;

pub use edge::ClientEdge;
pub use engine::{
    PendingPrediction, QueryVec, ServeConfig, ServeConfigBuilder, ServeEngine, ServedPrediction,
    SubmitHandle,
};
pub use error::ServeError;
pub use metrics::{
    BatchSizeBucket, LatencyHistogram, ModelReport, ServeMetrics, ServeReport, StageReport,
};
pub use registry::{ModelId, ServedModel, ShardedRegistry};
pub use stats::prometheus_text;
pub use wire::{WireClient, WireConfig, WireConfigBuilder, WireServer, WireStatus};

/// Commonly used items, importable with a single `use`.
pub mod prelude {
    pub use crate::edge::ClientEdge;
    pub use crate::engine::{
        PendingPrediction, QueryVec, ServeConfig, ServeConfigBuilder, ServeEngine,
        ServedPrediction, SubmitHandle,
    };
    pub use crate::error::ServeError;
    pub use crate::metrics::{
        BatchSizeBucket, LatencyHistogram, ModelReport, ServeMetrics, ServeReport, StageReport,
    };
    pub use crate::registry::{ModelId, ServedModel, ShardedRegistry};
    pub use crate::stats::prometheus_text;
    pub use crate::wire::{
        WireClient, WireClientError, WireConfig, WireConfigBuilder, WireFault, WirePrediction,
        WireReport, WireServer, WireStatus,
    };
}
