//! The wire-protocol transport front-end: Prive-HD serving across a
//! real socket.
//!
//! The paper's whole premise is that clients ship *obfuscated*
//! hypervectors to an untrusted server, which implies a wire format
//! for `(ModelId, obfuscated query)` and a server loop. This module
//! supplies both halves plus the codec between them:
//!
//! * [`frame`] — the versioned, length-prefixed, CRC-checked binary
//!   frame codec ([`Frame`], [`WireStatus`], [`FrameError`]). Packed
//!   bipolar queries cost 1 bit per dimension on the wire (the paper's
//!   §III-C transfer saving).
//! * [`WireServer`] — [`WireConfig::reactors`] epoll-backed readiness
//!   loops (the vendored `polling` layer; nonblocking `std::net`)
//!   sharing one listener, pinning each connection to `fd % reactors`,
//!   decoding request frames into the engine's unified
//!   [`crate::SubmitHandle::submit`] surface and streaming response
//!   frames back as completions arrive. Queue backpressure — global
//!   ([`WireStatus::Busy`] for a full engine queue) and per-tenant
//!   (quota rejections from the weighted-fair scheduler) — maps to an
//!   explicit `Busy` frame, never a stalled socket; buffers are
//!   bounded per connection; malformed frames answer typed faults and
//!   close.
//! * [`WireClient`] — the blocking client used by `examples/serving.rs`
//!   and the loopback integration tests.
//!
//! A `Stats` frame pair ([`StatsRequestFrame`] / [`StatsReplyFrame`],
//! fetched with [`WireClient::stats`]) exposes the merged serving and
//! transport metrics as Prometheus text, including the stage-level
//! latency decomposition — see `docs/OBSERVABILITY.md`.
//!
//! See `docs/WIRE.md` in the repository for the frame layout table,
//! status codes, backpressure semantics, and the version policy.

mod client;
mod crc;
pub mod frame;
mod metrics;
mod server;

pub use client::{WireClient, WireClientError};
pub use crc::crc32;
pub use frame::{
    salvage_request_id, Frame, FrameError, QueryPayload, RequestFrame, ResponseFrame,
    StatsReplyFrame, StatsRequestFrame, WireFault, WirePrediction, WireStatus,
};
pub use metrics::{WireMetrics, WireReport};
pub use server::{WireConfig, WireServer};
