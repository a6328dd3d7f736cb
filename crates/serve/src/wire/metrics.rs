//! Connection-level counters for the wire front-end.
//!
//! These extend [`crate::ServeMetrics`] (which counts *requests* inside
//! the engine) with what only the transport can see: connections,
//! frames, decode failures, and wire-level backpressure. All counters
//! are atomic — the reactor threads and readers never contend on a
//! lock. The open-connection gauge is also the server's connection
//! cap: a slot is claimed by compare-exchange, so the gauge never
//! passes `max_connections`, and every claim is paired with exactly one
//! release, so it stays exact across reactors.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live transport counters, shared between the server's reactor
/// threads and callers holding the [`crate::wire::WireServer`].
#[derive(Debug, Default)]
pub struct WireMetrics {
    accepted: AtomicU64,
    refused: AtomicU64,
    open: AtomicU64,
    frames_in: AtomicU64,
    responses_out: AtomicU64,
    decode_errors: AtomicU64,
    busy_rejections: AtomicU64,
    idle_closed: AtomicU64,
    stats_served: AtomicU64,
    reactor_passes: AtomicU64,
    reply_notifies: AtomicU64,
}

impl WireMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn on_accept(&self) {
        // Relaxed: independent advisory counter.
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_refuse(&self) {
        // Relaxed: independent advisory counter.
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Claims one open-connection slot and returns `true`, or returns
    /// `false` when `max` connections are already open.
    pub(crate) fn try_open(&self, max: usize) -> bool {
        // Relaxed: the gauge publishes no data; the compare-exchange
        // alone keeps concurrent claims from passing `max`.
        let claim = |open: u64| (open < max as u64).then_some(open + 1);
        self.open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, claim)
            .is_ok()
    }

    /// Releases a slot claimed by [`WireMetrics::try_open`]; paired
    /// one-to-one with every successful claim.
    pub(crate) fn on_conn_close(&self) {
        // Relaxed: see try_open — paired decrement.
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn on_frame_in(&self) {
        // Relaxed: independent advisory counter.
        self.frames_in.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_response_out(&self) {
        // Relaxed: independent advisory counter.
        self.responses_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_decode_error(&self) {
        // Relaxed: independent advisory counter.
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_busy(&self) {
        // Relaxed: independent advisory counter.
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_idle_close(&self) {
        // Relaxed: independent advisory counter.
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_stats_served(&self) {
        // Relaxed: independent advisory counter.
        self.stats_served.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_reactor_pass(&self) {
        // Relaxed: independent advisory counter.
        self.reactor_passes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_reply_notify(&self) {
        // Relaxed: independent advisory counter; the wakeup itself is
        // ordered by the inbox lock, not by this count.
        self.reply_notifies.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot of every counter.
    pub fn report(&self) -> WireReport {
        WireReport {
            // Relaxed: independent statistics reads; a racing update
            // skews one cell by at most one.
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            open: self.open.load(Ordering::Relaxed),
            // Relaxed: as above.
            frames_in: self.frames_in.load(Ordering::Relaxed),
            responses_out: self.responses_out.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            // Relaxed: as above.
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            stats_served: self.stats_served.load(Ordering::Relaxed),
            // Relaxed: as above.
            reactor_passes: self.reactor_passes.load(Ordering::Relaxed),
            reply_notifies: self.reply_notifies.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of the transport counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReport {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections refused because the server was at its connection cap.
    pub refused: u64,
    /// Connections open at snapshot time.
    pub open: u64,
    /// Request frames successfully decoded.
    pub frames_in: u64,
    /// Response frames written back (predictions and faults).
    pub responses_out: u64,
    /// Malformed/oversized/unsupported-version frames (each also closes
    /// its connection).
    pub decode_errors: u64,
    /// Requests answered `Busy` at the wire: per-connection in-flight
    /// cap or engine queue backpressure.
    pub busy_rejections: u64,
    /// Connections closed by the idle timeout.
    pub idle_closed: u64,
    /// Stats frames answered. Stats traffic is metadata, not serving
    /// load, so it is counted here and **not** in
    /// [`WireReport::frames_in`] / [`WireReport::responses_out`].
    pub stats_served: u64,
    /// Reactor loop passes (one per poller wait), summed over reactors.
    pub reactor_passes: u64,
    /// Poller wakeups sent by engine completions. A completion notifies
    /// only when its reactor's inbox held no other completion, so under
    /// load this stays well below the replies written.
    pub reply_notifies: u64,
}

impl std::fmt::Display for WireReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire: {} conns accepted ({} refused, {} open, {} idle-closed), \
             {} frames in, {} responses out, {} decode errors, {} busy rejections, \
             {} stats served, {} reactor passes, {} reply notifies",
            self.accepted,
            self.refused,
            self.open,
            self.idle_closed,
            self.frames_in,
            self.responses_out,
            self.decode_errors,
            self.busy_rejections,
            self.stats_served,
            self.reactor_passes,
            self.reply_notifies
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_snapshots_counters() {
        let m = WireMetrics::new();
        m.on_accept();
        m.on_accept();
        m.on_refuse();
        assert!(m.try_open(3) && m.try_open(3) && m.try_open(3));
        assert!(!m.try_open(3), "a claim past the cap is refused");
        m.on_conn_close();
        m.on_frame_in();
        m.on_response_out();
        m.on_decode_error();
        m.on_busy();
        m.on_idle_close();
        m.on_stats_served();
        m.on_reactor_pass();
        m.on_reactor_pass();
        m.on_reply_notify();
        let r = m.report();
        assert_eq!(
            r,
            WireReport {
                accepted: 2,
                refused: 1,
                open: 2,
                frames_in: 1,
                responses_out: 1,
                decode_errors: 1,
                busy_rejections: 1,
                idle_closed: 1,
                stats_served: 1,
                reactor_passes: 2,
                reply_notifies: 1,
            }
        );
        let text = r.to_string();
        assert!(text.contains("2 conns accepted"), "{text}");
        assert!(text.contains("1 busy rejections"), "{text}");
        assert!(
            text.contains("2 reactor passes, 1 reply notifies"),
            "{text}"
        );
    }
}
