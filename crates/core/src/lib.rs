//! # privehd-core
//!
//! Hyperdimensional (HD) computing substrate and the Prive-HD algorithms
//! from *"Prive-HD: Privacy-Preserved Hyperdimensional Computing"*
//! (Khaleghi, Imani, Rosing — DAC 2020).
//!
//! The crate provides, bottom-up:
//!
//! * [`hypervector`] — dense real hypervectors ([`Hypervector`]) and
//!   bit-packed bipolar hypervectors ([`BipolarHv`]) with the binding,
//!   bundling and similarity operations of HD computing.
//! * [`basis`] — seeded generation of the random base (location)
//!   hypervectors of Eq. (2) and the flip-chain level hypervectors used by
//!   the record encoding of Eq. (2b).
//! * [`encoder`] — the two paper encodings: the scalar-weight encoding of
//!   Eq. (2a) ([`ScalarEncoder`]) and the level-binding record encoding of
//!   Eq. (2b) ([`LevelEncoder`]).
//! * [`model`] — HD training (Eq. 3), retraining (Eq. 5) and inference
//!   (Eq. 4) through the model's cached [`ModelPlan`].
//! * [`kernels`] — the throughput layer: nibble-table encode over a
//!   byte-plane transposed item memory (dense, packed, and masked
//!   forms), word-parallel (CSA) majority accumulation for the record
//!   encoding, tiled branchless query×class scoring and `XOR`+popcount
//!   scoring of sign rows, each kernel call picking its AVX2 or scalar
//!   arm from a memoized CPUID check. The naive paths are retained as
//!   `*_reference` methods for parity testing.
//! * [`pool`] — a small worker pool: batch encode fans its chunks over
//!   scoped threads beside the caller.
//! * [`quantize`] — the Prive-HD encoding quantizations of Eq. (13):
//!   bipolar, ternary, biased ternary and 2-bit, plus the empirical value
//!   distribution used by the sensitivity formula of Eq. (14).
//! * [`prune`] — model pruning of close-to-zero class dimensions (Fig. 3)
//!   and the information-retrieval curves of Fig. 3.
//! * [`obfuscate`] — inference-privacy transformations applied to a query
//!   hypervector before offloading: quantization and dimension masking
//!   (Fig. 6).
//! * [`decode`] — the reconstruction attack of Eq. (9)–(10) together with
//!   MSE and PSNR metrics (Fig. 2).
//! * [`online`] — similarity-weighted (OnlineHD-style) training, an
//!   adaptive refinement of the Eq. (5) retraining rule.
//! * [`plan`] — compilation: [`EncodePlan`] fuses encode∘obfuscate into
//!   one table-driven pass; [`ModelPlan`], the only scorer, holds the
//!   dense class snapshot and, for sign-only models, the packed one.
//! * [`telemetry`] — sampled, lock-free request tracing ([`Tracer`],
//!   [`Stage`], [`SpanEvent`]): the capture spine the serving layer's
//!   stage-level latency decomposition is built on.
//!
//! ## Quick example
//!
//! ```
//! use privehd_core::prelude::*;
//!
//! # fn main() -> Result<(), HdError> {
//! // Three 4-feature inputs in two classes.
//! let inputs = vec![
//!     (vec![0.9, 0.8, 0.1, 0.0], 0usize),
//!     (vec![0.8, 0.9, 0.0, 0.1], 0),
//!     (vec![0.1, 0.0, 0.9, 0.8], 1),
//! ];
//! let encoder = ScalarEncoder::new(EncoderConfig::new(4, 256).with_seed(7))?;
//! let mut model = HdModel::new(2, 256)?;
//! for (x, y) in &inputs {
//!     model.bundle(*y, &encoder.encode(x)?)?;
//! }
//! let query = encoder.encode(&[0.85, 0.85, 0.05, 0.05])?;
//! assert_eq!(model.predict(&query)?.class, 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod basis;
pub mod decode;
pub mod encoder;
pub mod error;
pub mod hypervector;
pub mod kernels;
pub mod model;
pub mod obfuscate;
pub mod online;
pub mod plan;
pub mod pool;
pub mod prune;
pub mod quantize;
pub mod telemetry;

pub use basis::{BasisGenerator, ItemMemory, LevelMemory};
pub use decode::{mse, psnr, Decoder, Reconstruction};
pub use encoder::{Encoder, EncoderConfig, LevelEncoder, ScalarEncoder};
pub use error::HdError;
pub use hypervector::{BipolarHv, Hypervector};
pub use kernels::{ClassMatrix, TransposedItemMemory};
pub use model::{HdModel, Prediction, RetrainConfig, RetrainReport};
pub use obfuscate::{ObfuscateConfig, Obfuscator};
pub use online::{online_step, train_online, OnlineConfig, OnlineReport};
pub use plan::{EncodePlan, ModelPlan};
pub use pool::ThreadPool;
pub use prune::{information_curve, InformationPoint, PruneMask, PruneStrategy};
pub use quantize::{QuantScheme, ValueHistogram};
pub use telemetry::{SpanEvent, Stage, TraceCtx, TraceId, Tracer};

/// Commonly used items, importable with a single `use`.
pub mod prelude {
    pub use crate::basis::{BasisGenerator, ItemMemory, LevelMemory};
    pub use crate::decode::{mse, psnr, Decoder, Reconstruction};
    pub use crate::encoder::{Encoder, EncoderConfig, LevelEncoder, ScalarEncoder};
    pub use crate::error::HdError;
    pub use crate::hypervector::{BipolarHv, Hypervector};
    pub use crate::model::{HdModel, Prediction, RetrainConfig, RetrainReport};
    pub use crate::obfuscate::{ObfuscateConfig, Obfuscator};
    pub use crate::online::{online_step, train_online, OnlineConfig, OnlineReport};
    pub use crate::plan::{EncodePlan, ModelPlan};
    pub use crate::prune::{information_curve, PruneMask, PruneStrategy};
    pub use crate::quantize::{QuantScheme, ValueHistogram};
}

/// The hypervector dimensionality the paper uses throughout (~10,000).
pub const DEFAULT_DIMENSION: usize = 10_000;
