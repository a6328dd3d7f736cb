//! # privehd-bench
//!
//! Experiment harness for the Prive-HD reproduction: one binary per paper
//! table/figure (see `src/bin/fig*.rs`, `src/bin/table1.rs`) plus the
//! kernel benchmark `perfsuite` (`src/bin/perfsuite.rs`).
//!
//! The library half hosts the shared plumbing:
//!
//! * [`workbench`] — encode-once/evaluate-many experiment state. Every
//!   figure sweeps dimensionality and quantization over the *same*
//!   encodings, exploiting that hypervector dimensions are i.i.d. so a
//!   `D`-dimension model is a prefix-truncation of a 10k-dimension one.
//! * [`report`] — aligned-column table printing and JSON record output,
//!   so every harness binary emits both a human-readable table and a
//!   machine-readable line per row.

// No unsafe: every unsafe site in the workspace lives in privehd-core
// under the analyze unsafe-audit ledger (see docs/ANALYSIS.md).
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod report;
pub mod workbench;

pub use report::{print_table, Figure, SeriesPoint};
pub use workbench::Workbench;
