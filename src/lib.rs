//! # prive-hd
//!
//! Facade crate for the Prive-HD reproduction (*"Prive-HD:
//! Privacy-Preserved Hyperdimensional Computing"*, Khaleghi, Imani,
//! Rosing — DAC 2020): privacy-preserving training and inference for
//! hyperdimensional (HD) computing.
//!
//! This crate re-exports the five workspace crates:
//!
//! * [`privehd_core`] — HD substrate (hypervectors, encoders,
//!   models) and the Prive-HD algorithms (quantization, pruning, the
//!   reconstruction attack, query obfuscation).
//! * [`privehd_privacy`] — differential-privacy mechanisms,
//!   sensitivity analysis and the private training pipeline.
//! * [`privehd_data`] — synthetic surrogates for the paper's
//!   ISOLET / FACE / MNIST benchmarks.
//! * [`privehd_hw`] — bit-exact simulation of the FPGA encoder
//!   (LUT-6 majority, saturated adder trees) and platform performance
//!   models.
//! * [`privehd_serve`] — concurrent batched inference serving: a
//!   versioned, hot-swappable multi-tenant model registry, per-tenant
//!   admission queues served round-robin by a worker pool (one turn
//!   over a tenant's backlog is one batch), the edge-side
//!   encode-and-obfuscate client pipeline, the TCP wire front-end, and
//!   serving metrics (throughput, latency quantiles, mean batch size
//!   and per-stage latency, global and per model).
//!
//! ## Quickstart
//!
//! ```
//! use prive_hd::core::prelude::*;
//! use prive_hd::data::surrogates;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small ISOLET-like task and a 2,048-dimension HD model.
//! let ds = surrogates::isolet(10, 4, 0);
//! let encoder = ScalarEncoder::new(
//!     EncoderConfig::new(ds.features(), 2_048).with_seed(1),
//! )?;
//! let mut model = HdModel::new(ds.num_classes(), 2_048)?;
//! for (x, y) in ds.train_pairs() {
//!     model.bundle(y, &encoder.encode(x)?)?;
//! }
//! let test: Vec<_> = ds
//!     .test_pairs()
//!     .map(|(x, y)| Ok((encoder.encode(x)?, y)))
//!     .collect::<Result<_, HdError>>()?;
//! let acc = model.accuracy(&test)?;
//! assert!(acc > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use privehd_core as core;
pub use privehd_data as data;
pub use privehd_hw as hw;
pub use privehd_privacy as privacy;
pub use privehd_serve as serve;
