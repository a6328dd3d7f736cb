//! Prometheus text-format rendering of the serving and transport
//! metrics: the body of the wire protocol's `Stats` reply frame.
//!
//! One function, [`prometheus_text`], merges a [`ServeReport`], an
//! optional [`WireReport`], and the slow-request trace ring into the
//! Prometheus exposition text format (version 0.0.4): `# HELP` /
//! `# TYPE` comments, counters with label sets, and summaries with
//! `quantile` labels plus `_count`/`_sum` series. Trace-ring events are
//! appended as `# slowtrace` comment lines — they are per-event, not
//! aggregates, so they ride along as comments any Prometheus scraper
//! ignores but a human can read.
//!
//! The schema is documented in `docs/OBSERVABILITY.md`. Two deliberate
//! bounds keep one scrape under the client's 1 MiB frame cap: per-model
//! rows expose counts and the p50 only (the full quantile spread stays
//! global and per-stage), and per-model-per-stage series are not
//! recorded at all.

use privehd_core::telemetry::SpanEvent;

use crate::metrics::{ServeReport, StageReport};
use crate::wire::WireReport;

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline must be backslash-escaped inside the quoted value.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Seconds with enough precision for ns-scale latencies.
fn secs(d: std::time::Duration) -> String {
    format!("{:.9}", d.as_secs_f64())
}

fn push_stage_summary(out: &mut String, name: &str, stage: &StageReport) {
    let label = stage.stage.as_str();
    for (q, v) in [("0.5", stage.p50), ("0.95", stage.p95), ("0.99", stage.p99)] {
        out.push_str(&format!(
            "{name}{{stage=\"{label}\",quantile=\"{q}\"}} {}\n",
            secs(v)
        ));
    }
    out.push_str(&format!(
        "{name}_count{{stage=\"{label}\"}} {}\n",
        stage.count
    ));
    // The summary sum is reconstructed from the mean; when the
    // underlying nanosecond sum saturated this is a lower bound, and
    // the companion saturation gauge says so.
    let sum = stage.mean * u32::try_from(stage.count.min(u64::from(u32::MAX))).unwrap_or(u32::MAX);
    out.push_str(&format!("{name}_sum{{stage=\"{label}\"}} {}\n", secs(sum)));
}

/// Renders the merged metrics as Prometheus exposition text.
///
/// `serve` is the engine's report; `wire` adds the transport counters
/// when a [`crate::wire::WireServer`] fronts the engine; `trace` is the
/// slow/sampled span ring (typically
/// [`privehd_core::telemetry::Tracer::snapshot`]), appended as
/// `# slowtrace` comment lines.
pub fn prometheus_text(
    serve: &ServeReport,
    wire: Option<&WireReport>,
    trace: &[SpanEvent],
) -> String {
    let mut out = String::with_capacity(4096);

    out.push_str("# HELP privehd_serve_requests_total Requests by outcome.\n");
    out.push_str("# TYPE privehd_serve_requests_total counter\n");
    for (outcome, v) in [
        ("submitted", serve.submitted),
        ("rejected", serve.rejected),
        ("completed", serve.completed),
        ("failed", serve.failed),
    ] {
        out.push_str(&format!(
            "privehd_serve_requests_total{{outcome=\"{outcome}\"}} {v}\n"
        ));
    }

    out.push_str("# HELP privehd_serve_batches_total Batches dispatched to the worker pool.\n");
    out.push_str("# TYPE privehd_serve_batches_total counter\n");
    out.push_str(&format!("privehd_serve_batches_total {}\n", serve.batches));
    out.push_str(
        "# HELP privehd_serve_panics_contained_total Panics engine workers caught \
         and answered instead of dying (a scored block, one request, or a reply callback).\n",
    );
    out.push_str("# TYPE privehd_serve_panics_contained_total counter\n");
    out.push_str(&format!(
        "privehd_serve_panics_contained_total {}\n",
        serve.panics_contained
    ));
    out.push_str("# TYPE privehd_serve_batch_size_mean gauge\n");
    out.push_str(&format!(
        "privehd_serve_batch_size_mean {:.3}\n",
        serve.mean_batch_size
    ));
    out.push_str("# TYPE privehd_serve_throughput_qps gauge\n");
    out.push_str(&format!(
        "privehd_serve_throughput_qps {:.3}\n",
        serve.throughput_qps
    ));

    out.push_str(
        "# HELP privehd_serve_latency_seconds End-to-end request latency \
         (quantiles are conservative upper bucket edges).\n",
    );
    out.push_str("# TYPE privehd_serve_latency_seconds summary\n");
    for (q, v) in [
        ("0.5", serve.p50_latency),
        ("0.95", serve.p95_latency),
        ("0.99", serve.p99_latency),
    ] {
        out.push_str(&format!(
            "privehd_serve_latency_seconds{{quantile=\"{q}\"}} {}\n",
            secs(v)
        ));
    }
    let done = serve.completed + serve.failed;
    out.push_str(&format!("privehd_serve_latency_seconds_count {done}\n"));
    let sum = serve.mean_latency * u32::try_from(done.min(u64::from(u32::MAX))).unwrap_or(u32::MAX);
    out.push_str(&format!(
        "privehd_serve_latency_seconds_sum {}\n",
        secs(sum)
    ));
    out.push_str(
        "# HELP privehd_serve_latency_sum_saturated 1 once the latency \
         nanosecond sum saturated (means are lower bounds).\n",
    );
    out.push_str("# TYPE privehd_serve_latency_sum_saturated gauge\n");
    out.push_str(&format!(
        "privehd_serve_latency_sum_saturated {}\n",
        u8::from(serve.latency_sum_saturated)
    ));

    out.push_str(
        "# HELP privehd_serve_stage_latency_seconds Per-stage latency \
         decomposition of the request path (see docs/OBSERVABILITY.md).\n",
    );
    out.push_str("# TYPE privehd_serve_stage_latency_seconds summary\n");
    for stage in &serve.stages {
        push_stage_summary(&mut out, "privehd_serve_stage_latency_seconds", stage);
    }

    out.push_str("# HELP privehd_serve_model_requests_total Per-model requests by outcome.\n");
    out.push_str("# TYPE privehd_serve_model_requests_total counter\n");
    out.push_str("# TYPE privehd_serve_model_latency_p50_seconds gauge\n");
    out.push_str(
        "# HELP privehd_serve_model_memory_bytes Served snapshot footprint by \
         representation: the dense f64 class matrix vs the packed popcount \
         snapshot, which is sign words plus one scale per class (0 until the \
         model serves a batch, or when its rows are not scale times sign).\n",
    );
    out.push_str("# TYPE privehd_serve_model_memory_bytes gauge\n");
    for m in &serve.per_model {
        let model = escape_label(m.model.as_str());
        for (outcome, v) in [
            ("submitted", m.submitted),
            ("completed", m.completed),
            ("failed", m.failed),
        ] {
            out.push_str(&format!(
                "privehd_serve_model_requests_total{{model=\"{model}\",outcome=\"{outcome}\"}} {v}\n"
            ));
        }
        out.push_str(&format!(
            "privehd_serve_model_latency_p50_seconds{{model=\"{model}\"}} {}\n",
            secs(m.p50_latency)
        ));
        for (repr, v) in [
            ("dense", m.memory_dense_bytes),
            ("packed", m.memory_packed_bytes),
        ] {
            out.push_str(&format!(
                "privehd_serve_model_memory_bytes{{model=\"{model}\",repr=\"{repr}\"}} {v}\n"
            ));
        }
    }

    if let Some(w) = wire {
        out.push_str("# HELP privehd_wire_connections_total Connections by event.\n");
        out.push_str("# TYPE privehd_wire_connections_total counter\n");
        for (event, v) in [
            ("accepted", w.accepted),
            ("refused", w.refused),
            ("idle_closed", w.idle_closed),
        ] {
            out.push_str(&format!(
                "privehd_wire_connections_total{{event=\"{event}\"}} {v}\n"
            ));
        }
        out.push_str("# TYPE privehd_wire_open_connections gauge\n");
        out.push_str(&format!("privehd_wire_open_connections {}\n", w.open));
        out.push_str("# HELP privehd_wire_frames_total Frames by direction.\n");
        out.push_str("# TYPE privehd_wire_frames_total counter\n");
        out.push_str(&format!(
            "privehd_wire_frames_total{{direction=\"in\"}} {}\n",
            w.frames_in
        ));
        out.push_str(&format!(
            "privehd_wire_frames_total{{direction=\"out\"}} {}\n",
            w.responses_out
        ));
        for (name, v) in [
            ("privehd_wire_decode_errors_total", w.decode_errors),
            ("privehd_wire_busy_rejections_total", w.busy_rejections),
            ("privehd_wire_stats_served_total", w.stats_served),
            ("privehd_wire_reactor_passes_total", w.reactor_passes),
            ("privehd_wire_reply_notifies_total", w.reply_notifies),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
    }

    if !trace.is_empty() {
        out.push_str(
            "# slowtrace: sampled/slow span ring, newest-wins; fields are \
             ns since the tracer epoch.\n",
        );
        for e in trace {
            out.push_str(&format!(
                "# slowtrace trace={} stage={} start_ns={} end_ns={} dur_ns={} slow={}\n",
                e.trace,
                e.stage,
                e.start_ns,
                e.end_ns,
                e.end_ns.saturating_sub(e.start_ns),
                e.slow
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use privehd_core::telemetry::{Stage, TraceId};

    use super::*;
    use crate::metrics::ServeMetrics;
    use crate::registry::ModelId;

    fn sample_report() -> ServeReport {
        let m = ServeMetrics::new();
        let id = ModelId::new("tenant \"a\"\\x");
        for _ in 0..4 {
            m.on_submit(&id);
        }
        m.on_batch(4);
        let row = m.model_counters(&id);
        for _ in 0..3 {
            m.on_done(&row, true, Duration::from_micros(120));
        }
        m.on_done(&row, false, Duration::from_micros(900));
        let tracer = privehd_core::telemetry::Tracer::new();
        let (ctx, t0) = (tracer.begin(), std::time::Instant::now());
        let us = |n| t0 + Duration::from_micros(n);
        m.stamp(&tracer, ctx, Stage::QueueWait, t0, us(40));
        m.stamp(&tracer, ctx, Stage::Predict, us(40), us(110));
        m.set_model_memory(&row, 80_000, 1_250);
        m.on_panic_contained();
        m.report(Duration::from_secs(2))
    }

    #[test]
    fn renders_counters_summaries_and_stages() {
        let text = prometheus_text(&sample_report(), None, &[]);
        assert!(text.contains("privehd_serve_requests_total{outcome=\"submitted\"} 4"));
        assert!(text.contains("privehd_serve_requests_total{outcome=\"failed\"} 1"));
        assert!(text.contains("privehd_serve_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("privehd_serve_latency_seconds_count 4"));
        assert!(text.contains(
            "privehd_serve_stage_latency_seconds{stage=\"queue_wait\",quantile=\"0.5\"}"
        ));
        assert!(text.contains("privehd_serve_stage_latency_seconds_count{stage=\"predict\"} 1"));
        assert!(text.contains("privehd_serve_latency_sum_saturated 0"));
        assert!(text.contains("privehd_serve_panics_contained_total 1"));
        // Snapshot footprint gauges: one line per representation.
        assert!(text.contains(",repr=\"dense\"} 80000"), "{text}");
        assert!(text.contains(",repr=\"packed\"} 1250"), "{text}");
        // No wire section without a wire report.
        assert!(!text.contains("privehd_wire_"));
        // Every non-comment line is `name{labels} value` or `name value`
        // with a parseable float — the shape a Prometheus scraper needs.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        }
    }

    #[test]
    fn escapes_label_values() {
        let text = prometheus_text(&sample_report(), None, &[]);
        // The model id `tenant "a"\x` must appear quote- and
        // backslash-escaped.
        assert!(
            text.contains("model=\"tenant \\\"a\\\"\\\\x\""),
            "unescaped label in:\n{text}"
        );
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }

    #[test]
    fn wire_and_trace_sections_render() {
        let wire = WireReport {
            accepted: 3,
            refused: 0,
            open: 1,
            frames_in: 10,
            responses_out: 9,
            decode_errors: 1,
            busy_rejections: 2,
            idle_closed: 0,
            stats_served: 1,
            reactor_passes: 12,
            reply_notifies: 4,
        };
        let trace = vec![SpanEvent {
            trace: TraceId(7),
            stage: Stage::Predict,
            start_ns: 100,
            end_ns: 350,
            slow: true,
        }];
        let text = prometheus_text(&sample_report(), Some(&wire), &trace);
        assert!(text.contains("privehd_wire_frames_total{direction=\"in\"} 10"));
        assert!(text.contains("privehd_wire_stats_served_total 1"));
        assert!(text.contains("privehd_wire_reactor_passes_total 12"));
        assert!(text.contains("privehd_wire_reply_notifies_total 4"));
        assert!(
            text.contains(
                "# slowtrace trace=7 stage=predict start_ns=100 end_ns=350 dur_ns=250 slow=true"
            ),
            "{text}"
        );
    }
}
