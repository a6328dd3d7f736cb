//! # privehd-hw
//!
//! Bit-exact functional simulation of the Prive-HD FPGA encoder (§III-D
//! of the paper) plus analytic resource and performance models.
//!
//! The paper accelerates the record encoding of Eq. (2b) — whose every
//! dimension is a sum of `d_iv` values in `{−1,+1}` — with two
//! approximate-arithmetic tricks:
//!
//! * **Bipolar quantization** (Fig. 7a): the sign of the sum is a
//!   majority vote. The first stage replaces groups of six bits with a
//!   single LUT-6 *majority* bit (ties broken by a predetermined choice);
//!   the surviving bits feed an exact adder tree plus threshold. Cost
//!   drops from `4/3·d_iv` to `≈ 7/18·d_iv` LUT-6 (Eq. 15, −70.8%) at
//!   <1% accuracy loss.
//! * **Ternary quantization** (Fig. 7b): three 2-bit dimensions are summed
//!   by three LUT-6 into one 3-bit value; the 3-bit values then enter a
//!   *saturated* adder tree that truncates the LSB at every level, keeping
//!   a 3-bit datapath. Cost drops from `≈ 3·d_iv` to `≈ 2·d_iv` LUT-6
//!   (−33.3%).
//!
//! [`design`] sizes the pipelined architecture on a concrete device,
//! and [`verilog`] emits the synthesizable RTL the paper hand-crafted;
//! both depend only on the dimensionality, not on a trained model.
//! Since no FPGA is attached to this environment, [`pipeline`] validates
//! the circuits *functionally* (bit-exact against the software encoder)
//! and [`perf`] models throughput/energy of the paper's three platforms
//! (Kintex-7 FPGA, Raspberry Pi 3, GTX 1080 Ti) to regenerate Table I's
//! shape. See DESIGN.md §4 for the substitution rationale.

// No unsafe: every unsafe site in the workspace lives in privehd-core
// under the analyze unsafe-audit ledger (see docs/ANALYSIS.md).
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod design;
pub mod lut;
pub mod majority;
pub mod perf;
pub mod pipeline;
pub mod resources;
pub mod ternary;
pub mod verilog;

pub use design::FpgaDesign;
pub use lut::Lut6;
pub use majority::{approx_sign, exact_sign, MajorityCircuit};
pub use perf::{Platform, PlatformKind, Workload};
pub use pipeline::HardwareEncoder;
pub use resources::ResourceModel;
pub use ternary::SaturatedAdderTree;
