//! `perfsuite` — kernel-vs-reference speedup measurements, plus a wire
//! round-trip suite.
//!
//! Default mode times the tuned `privehd_core::kernels` paths against
//! the retained naive reference implementations at the paper's
//! operating point (ISOLET: `D_iv = 617`, `D_hv = 10 000`,
//! `ℓ_iv = 100`, 26 classes), single-threaded, and writes the results
//! to `BENCH_kernels.json`. The `plan_compile_encode_obfuscate` row
//! gates the fused encode∘obfuscate pass of `privehd_core::plan`
//! against the generic composition it replaces, and the ungated
//! `predict_packed_float_rows` row times the plan's row-grouped packed
//! scoring over float class rows against the one-class-at-a-time loop.
//!
//! `--serve` mode instead measures the wire front-end over a real
//! loopback TCP socket — synchronous round-trip p50/p99 latency,
//! pipelined frames/sec, the per-stage latency decomposition scraped
//! from the server's `Stats` frame (decode, admission, encode, queue,
//! batch-wait, snapshot-resolve, predict, write), and the e2e p50
//! cost of span tracing versus a tracing-disabled engine — and writes
//! `BENCH_serve.json`. The serve suite is report-only (no floor gate
//! yet: no trajectory exists to gate against), so
//! `--check`/`--floor-scale` apply to the kernel suite only.
//!
//! Usage:
//!
//! ```text
//! perfsuite [--quick] [--out PATH] [--check] [--floor-scale F] [--serve]
//! ```
//!
//! `--quick` shrinks sample counts and the batch size for CI smoke runs;
//! `--out` overrides the output path (default `BENCH_kernels.json`, or
//! `BENCH_serve.json` under `--serve`, in the working directory);
//! `--check` exits non-zero when a kernel speedup floor is missed;
//! `--floor-scale` multiplies the floors before checking (CI uses `0.5`
//! so shared-runner noise cannot flake the gate while catastrophic
//! regressions still fail).

use std::sync::Arc;
use std::time::{Duration, Instant};

use privehd_bench::print_table;
use privehd_core::kernels::dot_sign_dense;
use privehd_core::telemetry::TelemetryConfig;
use privehd_core::{
    BipolarHv, ClassMatrix, EncodePlan, Encoder, EncoderConfig, HdModel, Hypervector, LevelEncoder,
    ObfuscateConfig, Obfuscator, PlanKernel, QuantScheme, ScalarEncoder,
};
use privehd_serve::wire::{WireClient, WireClientError, WireConfig, WireServer};
use privehd_serve::{ClientEdge, ModelId, ServeConfig, ServeEngine, ShardedRegistry};

/// ISOLET-shaped operating point from the paper.
const FEATURES: usize = 617;
const DIM: usize = 10_000;
const LEVELS: usize = 100;
const CLASSES: usize = 26;

/// Robust timing summary over repeated samples (nanoseconds per item).
#[derive(Debug, Clone, Copy)]
struct Stats {
    median: f64,
    mean: f64,
    stddev: f64,
}

/// Times `samples` runs of `f` (each covering `items` items) and
/// reports per-item nanoseconds. One untimed warmup run precedes the
/// samples.
fn time_per_item<F: FnMut()>(samples: usize, items: usize, mut f: F) -> Stats {
    f(); // warmup: faults pages, fills caches, builds lazy state
    let mut per_item: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    per_item.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = per_item[per_item.len() / 2];
    let mean = per_item.iter().sum::<f64>() / per_item.len() as f64;
    let var = per_item
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / per_item.len() as f64;
    Stats {
        median,
        mean,
        stddev: var.sqrt(),
    }
}

/// One kernel-vs-reference comparison row.
#[derive(Debug)]
struct Comparison {
    name: &'static str,
    unit: &'static str,
    reference: Stats,
    kernel: Stats,
    /// Acceptance floor on `speedup()`, if this row has one.
    threshold: Option<f64>,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.reference.median / self.kernel.median
    }

    fn meets_threshold(&self, floor_scale: f64) -> bool {
        self.threshold
            .is_none_or(|t| self.speedup() >= t * floor_scale)
    }
}

/// Deterministic pseudo-random `[0, 1)` feature vectors (no RNG
/// dependency needed for a benchmark workload).
fn feature_vectors(count: usize, features: usize, salt: u64) -> Vec<Vec<f64>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| (0..features).map(|_| next()).collect())
        .collect()
}

/// The bundled demo model the serve suite predicts against.
fn serve_model(classes: usize, dim: usize) -> HdModel {
    let mut model = HdModel::new(classes, dim).expect("valid model");
    for i in 0..(classes * 4) {
        let hv = BipolarHv::random(dim, i as u64).to_dense();
        model.bundle(i % classes, &hv).expect("bundle");
    }
    model
}

/// Sorted synchronous round-trip samples (nanoseconds): a warmup
/// burst, then one frame in flight at a time so each sample is a full
/// client→server→engine→client trip.
fn sync_rtt_ns(
    client: &mut WireClient,
    model_id: &ModelId,
    queries: &[BipolarHv],
    samples: usize,
) -> Vec<f64> {
    for q in queries.iter().take(16) {
        client.call_packed(model_id, q).expect("warmup call");
    }
    let mut rtt_ns: Vec<f64> = (0..samples)
        .map(|i| {
            let start = Instant::now();
            client
                .call_packed(model_id, &queries[i % queries.len()])
                .expect("rtt call");
            start.elapsed().as_nanos() as f64
        })
        .collect();
    rtt_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    rtt_ns
}

/// Closed-loop pipelined throughput: keep `window` frames in flight
/// until `frames` responses arrive; returns frames per second.
fn pipelined_fps(
    client: &mut WireClient,
    model_id: &ModelId,
    queries: &[BipolarHv],
    frames: usize,
    window: usize,
) -> f64 {
    let start = Instant::now();
    let mut sent = 0usize;
    let mut received = 0usize;
    while sent < window.min(frames) {
        client
            .send_packed(model_id, &queries[sent % queries.len()])
            .expect("pipelined send");
        sent += 1;
    }
    while received < frames {
        let resp = client.recv().expect("pipelined recv");
        assert!(resp.outcome.is_ok(), "pipelined frame failed");
        received += 1;
        if sent < frames {
            client
                .send_packed(model_id, &queries[sent % queries.len()])
                .expect("pipelined send");
            sent += 1;
        }
    }
    frames as f64 / start.elapsed().as_secs_f64()
}

/// One open-loop load point: offer `rate_qps` for `duration` without
/// waiting for responses (unbounded concurrency, like independent
/// clients), correlating responses by request id as they arrive, then
/// drain. Unlike the closed-loop pipelined measurement above, latency
/// here includes all queueing — this is the latency-under-load curve.
fn open_loop_point(
    addr: std::net::SocketAddr,
    model_id: &ModelId,
    queries: &[BipolarHv],
    rate_qps: f64,
    duration: Duration,
) -> serde_json::Value {
    let mut client = WireClient::connect(addr).expect("load-gen connect");
    client
        .set_read_timeout(Some(Duration::from_micros(200)))
        .expect("read timeout");
    let interval = Duration::from_secs_f64(1.0 / rate_qps);
    let mut sent_at: std::collections::HashMap<u64, Instant> = std::collections::HashMap::new();
    let record = |sent_at: &mut std::collections::HashMap<u64, Instant>,
                  lat_ns: &mut Vec<f64>,
                  busy: &mut usize,
                  resp: privehd_serve::wire::ResponseFrame| {
        if let Some(t0) = sent_at.remove(&resp.request_id) {
            match resp.outcome {
                Ok(_) => lat_ns.push(t0.elapsed().as_nanos() as f64),
                Err(_) => *busy += 1,
            }
        }
    };
    let mut lat_ns: Vec<f64> = Vec::new();
    let mut busy = 0usize;
    let mut sent = 0usize;
    let start = Instant::now();
    let mut next_send = start;
    while start.elapsed() < duration {
        let now = Instant::now();
        if now >= next_send {
            let id = client
                .send_packed(model_id, &queries[sent % queries.len()])
                .expect("load-gen send");
            sent_at.insert(id, Instant::now());
            sent += 1;
            next_send += interval;
            continue;
        }
        // Only park in a timed recv when the next send is far enough
        // away that the read timeout cannot skew the offered rate.
        if next_send - now < Duration::from_micros(300) {
            std::hint::spin_loop();
            continue;
        }
        match client.recv() {
            Ok(resp) => record(&mut sent_at, &mut lat_ns, &mut busy, resp),
            Err(WireClientError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("load-gen recv failed: {e}"),
        }
    }
    // Drain what is still in flight.
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("read timeout");
    while !sent_at.is_empty() {
        match client.recv() {
            Ok(resp) => record(&mut sent_at, &mut lat_ns, &mut busy, resp),
            Err(_) => break,
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    lat_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let q = |p: f64| {
        if lat_ns.is_empty() {
            0.0
        } else {
            lat_ns[(p * (lat_ns.len() - 1) as f64).round() as usize]
        }
    };
    serde_json::json!({
        "offered_qps": rate_qps,
        "sent": sent,
        "ok": lat_ns.len(),
        "busy": busy,
        "p50_us": q(0.50) / 1e3,
        "p99_us": q(0.99) / 1e3,
        "goodput_qps": lat_ns.len() as f64 / elapsed,
    })
}

fn push_stage_field(
    stages: &mut Vec<(String, Vec<(String, serde_json::Value)>)>,
    stage: &str,
    key: &str,
    value: serde_json::Value,
) {
    let idx = match stages.iter().position(|(s, _)| s == stage) {
        Some(i) => i,
        None => {
            stages.push((stage.to_owned(), Vec::new()));
            stages.len() - 1
        }
    };
    stages[idx].1.push((key.to_owned(), value));
}

/// Extracts `{stage: {count, p50_us, p95_us, p99_us}}` from the
/// Prometheus text of a `Stats` scrape, keyed by stage name in the
/// order the server emitted them.
fn parse_stage_decomposition(text: &str) -> serde_json::Value {
    const METRIC: &str = "privehd_serve_stage_latency_seconds";
    let mut stages: Vec<(String, Vec<(String, serde_json::Value)>)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(METRIC) else {
            continue;
        };
        let Some(stage) = rest
            .split("stage=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
        else {
            continue;
        };
        let Some(value) = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) else {
            continue;
        };
        if rest.starts_with("_count") {
            push_stage_field(
                &mut stages,
                stage,
                "count",
                serde_json::Value::Int(value as i64),
            );
        } else if rest.starts_with('{') {
            let key = match rest
                .split("quantile=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
            {
                Some("0.5") => "p50_us",
                Some("0.95") => "p95_us",
                Some("0.99") => "p99_us",
                _ => continue,
            };
            push_stage_field(
                &mut stages,
                stage,
                key,
                serde_json::Value::Float(value * 1e6),
            );
        }
    }
    serde_json::Value::Object(
        stages
            .into_iter()
            .map(|(s, fields)| (s, serde_json::Value::Object(fields)))
            .collect(),
    )
}

/// Wire round-trip measurements over a loopback socket: sync RTT
/// quantiles, pipelined throughput, the per-stage latency
/// decomposition scraped from the `Stats` frame, and the e2e p50
/// overhead of span tracing versus a tracing-disabled engine.
/// Report-only — there is no floor gate until a trajectory of runs
/// exists to set one honestly.
fn run_serve_suite(quick: bool, out_path: &str) {
    const SERVE_DIM: usize = 4_096;
    const SERVE_CLASSES: usize = 26;
    const RAW_FEATURES: usize = 64;
    let (rtt_samples, pipelined_frames, window) = if quick {
        (300usize, 1_000usize, 32usize)
    } else {
        (2_000, 10_000, 32)
    };
    let raw_calls = if quick { 32usize } else { 128 };
    let profile = if quick { "quick" } else { "full" };
    // Offered-rate sweep for the latency-under-load curve (open loop).
    let (sweep_rates, sweep_duration) = if quick {
        (vec![1_000.0f64, 4_000.0], Duration::from_millis(300))
    } else {
        (
            vec![1_000.0f64, 5_000.0, 20_000.0, 60_000.0],
            Duration::from_secs(1),
        )
    };
    // Reactor count for the multi-reactor server: at least 2 so the
    // sharded-accept path is exercised even on a 1-core container.
    let reactors_multi = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1)
        .max(2);
    eprintln!(
        "perfsuite [serve/{profile}]: D_hv={SERVE_DIM} classes={SERVE_CLASSES} \
         rtt_samples={rtt_samples} pipelined={pipelined_frames} window={window} \
         reactors={reactors_multi} (loopback TCP)"
    );

    let model_id = ModelId::default();
    let queries: Vec<BipolarHv> = (0..64)
        .map(|i| BipolarHv::random(SERVE_DIM, 1_000 + i as u64))
        .collect();
    let serve_config = ServeConfig {
        max_batch: 64,
        packed_fastpath: true,
        ..ServeConfig::default()
    };

    // --- Baseline pass: identical engine + server with the tracing
    //     spine disabled, sync RTTs only. Stage histograms always
    //     record; this isolates the cost of span capture. ------------
    let baseline_engine = ServeEngine::start(
        Arc::new(
            ShardedRegistry::with_model(
                serve_model(SERVE_CLASSES, SERVE_DIM),
                "perfsuite-baseline",
            )
            .expect("publish"),
        ),
        ServeConfig {
            telemetry: TelemetryConfig::disabled(),
            ..serve_config.clone()
        },
    )
    .expect("baseline engine start");
    let baseline_server = WireServer::start(
        "127.0.0.1:0",
        baseline_engine.handle(),
        WireConfig {
            max_in_flight: window.max(64),
            ..WireConfig::default()
        },
    )
    .expect("baseline wire server start");
    let mut baseline_client =
        WireClient::connect(baseline_server.local_addr()).expect("baseline connect");
    let baseline_rtt = sync_rtt_ns(&mut baseline_client, &model_id, &queries, rtt_samples);
    let baseline_p50 = baseline_rtt[(0.50 * (baseline_rtt.len() - 1) as f64).round() as usize];
    drop(baseline_client);
    baseline_server.shutdown();
    baseline_engine.shutdown();

    // --- Instrumented pass: default telemetry (sampling on). --------
    let registry = Arc::new(
        ShardedRegistry::with_model(serve_model(SERVE_CLASSES, SERVE_DIM), "perfsuite")
            .expect("publish"),
    );
    let engine = ServeEngine::start(registry, serve_config).expect("engine start");
    let edge = ClientEdge::new(
        EncoderConfig::new(RAW_FEATURES, SERVE_DIM).with_seed(5),
        ObfuscateConfig::new(QuantScheme::Bipolar),
    )
    .expect("valid edge config");
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            max_in_flight: window.max(64),
            reactors: reactors_multi,
            ..WireConfig::default()
        }
        .with_edge(model_id.clone(), edge),
    )
    .expect("wire server start");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let rtt_ns = sync_rtt_ns(&mut client, &model_id, &queries, rtt_samples);
    let quantile = |q: f64| rtt_ns[((q * (rtt_ns.len() - 1) as f64).round()) as usize];
    let (p50, p99) = (quantile(0.50), quantile(0.99));
    let mean = rtt_ns.iter().sum::<f64>() / rtt_ns.len() as f64;
    // Shared-runner jitter can make the traced pass land *faster* than
    // the baseline; a negative overhead is noise, not a speedup bought
    // by tracing. Clamp the headline number at zero and keep the raw
    // delta plus both raw p50s in the JSON so the jitter stays visible.
    let overhead_pct_raw = (p50 - baseline_p50) / baseline_p50 * 100.0;
    let overhead_pct = overhead_pct_raw.max(0.0);

    // Pipelined throughput on the multi-reactor server, then on a
    // single-reactor server fronting the *same* engine, to isolate the
    // ingress layer from the batching/compute behind it.
    let frames_per_sec = pipelined_fps(&mut client, &model_id, &queries, pipelined_frames, window);
    let single_server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            max_in_flight: window.max(64),
            reactors: 1,
            ..WireConfig::default()
        },
    )
    .expect("single-reactor wire server start");
    let mut single_client =
        WireClient::connect(single_server.local_addr()).expect("single-reactor connect");
    let single_reactor_fps = pipelined_fps(
        &mut single_client,
        &model_id,
        &queries,
        pipelined_frames,
        window,
    );
    drop(single_client);
    single_server.shutdown();

    // Latency-under-load: open-loop offered-rate sweep against the
    // multi-reactor server. Each point uses a fresh connection, so
    // successive points land on different reactors (fd % N pinning).
    let mut load_points = Vec::new();
    for rate in &sweep_rates {
        let point = open_loop_point(
            server.local_addr(),
            &model_id,
            &queries,
            *rate,
            sweep_duration,
        );
        eprintln!("  open-loop @ {rate:.0} q/s: {point}");
        load_points.push(point);
    }

    // Raw-features calls so the server-side Encode stage has samples
    // in the decomposition.
    for x in &feature_vectors(raw_calls, RAW_FEATURES, 3) {
        client.call_raw(&model_id, x).expect("raw call");
    }

    // Scrape the Stats frame and lift the stage decomposition out of
    // the Prometheus text.
    let stats_text = client.stats().expect("stats scrape");
    let stage_decomposition = parse_stage_decomposition(&stats_text);

    drop(client);
    let wire_report = server.shutdown();
    engine.shutdown();

    let mut rows = vec![
        vec!["metric".to_owned(), "value".to_owned()],
        vec!["rtt_p50".to_owned(), format!("{:.1} µs", p50 / 1e3)],
        vec!["rtt_p99".to_owned(), format!("{:.1} µs", p99 / 1e3)],
        vec!["rtt_mean".to_owned(), format!("{:.1} µs", mean / 1e3)],
        vec![
            "pipelined".to_owned(),
            format!("{frames_per_sec:.0} frames/s (window {window}, {reactors_multi} reactors)"),
        ],
        vec![
            "pipelined (1 reactor)".to_owned(),
            format!("{single_reactor_fps:.0} frames/s (window {window})"),
        ],
        vec![
            "rtt_p50 (tracing off)".to_owned(),
            format!("{:.1} µs", baseline_p50 / 1e3),
        ],
        vec![
            "tracing overhead".to_owned(),
            format!("{overhead_pct:+.2}% e2e p50"),
        ],
    ];
    for point in &load_points {
        let field = |key: &str| {
            if let serde_json::Value::Object(f) = point {
                f.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
            } else {
                None
            }
        };
        let (
            Some(serde_json::Value::Float(rate)),
            Some(serde_json::Value::Float(p99)),
            Some(serde_json::Value::Float(goodput)),
        ) = (field("offered_qps"), field("p99_us"), field("goodput_qps"))
        else {
            continue;
        };
        rows.push(vec![
            format!("open-loop @ {rate:.0} q/s"),
            format!("p99 {p99:.1} µs, goodput {goodput:.0} q/s"),
        ]);
    }
    if let serde_json::Value::Object(stages) = &stage_decomposition {
        for (stage, fields) in stages {
            let field = |key: &str| {
                if let serde_json::Value::Object(f) = fields {
                    f.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
                } else {
                    None
                }
            };
            let (Some(serde_json::Value::Float(p50)), Some(serde_json::Value::Int(count))) =
                (field("p50_us"), field("count"))
            else {
                continue;
            };
            rows.push(vec![
                format!("stage {stage}"),
                format!("{p50:.1} µs p50 ({count} samples)"),
            ]);
        }
    }
    print_table(&rows);

    let doc = serde_json::json!({
        "suite": "serve",
        "profile": profile,
        "report_only": true,
        "config": serde_json::json!({
            "dim": SERVE_DIM,
            "classes": SERVE_CLASSES,
            "rtt_samples": rtt_samples,
            "pipelined_frames": pipelined_frames,
            "window": window,
            "raw_calls": raw_calls,
        }),
        "results": serde_json::json!({
            "rtt_p50_us": p50 / 1e3,
            "rtt_p99_us": p99 / 1e3,
            "rtt_mean_us": mean / 1e3,
            "frames_per_sec": frames_per_sec,
            "pipelined_multi_reactor_fps": frames_per_sec,
            "pipelined_single_reactor_fps": single_reactor_fps,
            "reactors_multi": reactors_multi as i64,
            "reactors_single": 1,
            "latency_under_load": serde_json::Value::Array(load_points.clone()),
            "busy_rejections": wire_report.busy_rejections,
            "stats_served": wire_report.stats_served,
            "e2e_p50_us_tracing_disabled": baseline_p50 / 1e3,
            "e2e_p50_us_tracing_enabled": p50 / 1e3,
            "tracing_overhead_pct": overhead_pct,
            "tracing_overhead_pct_raw": overhead_pct_raw,
        }),
        "stage_decomposition": stage_decomposition,
    });
    std::fs::write(out_path, format!("{doc}\n")).expect("write serve benchmark report");
    eprintln!("wrote {out_path} (report-only)");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let serve = args.iter().any(|a| a == "--serve");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or(
            if serve {
                "BENCH_serve.json"
            } else {
                "BENCH_kernels.json"
            },
            |s| s.as_str(),
        );
    if serve {
        run_serve_suite(quick, out_path);
        return;
    }
    let floor_scale = args
        .iter()
        .position(|a| a == "--floor-scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0);

    let (samples, encode_items, batch) = if quick { (3, 3, 64) } else { (7, 8, 256) };
    let profile = if quick { "quick" } else { "full" };
    eprintln!(
        "perfsuite [{profile}]: D_iv={FEATURES} D_hv={DIM} levels={LEVELS} classes={CLASSES} \
         batch={batch} (single-thread)"
    );

    let scalar = ScalarEncoder::new(
        EncoderConfig::new(FEATURES, DIM)
            .with_levels(LEVELS)
            .with_seed(7),
    )
    .expect("valid encoder config");
    let level = LevelEncoder::new(
        EncoderConfig::new(FEATURES, DIM)
            .with_levels(LEVELS)
            .with_seed(7),
    )
    .expect("valid encoder config");
    let encode_inputs = feature_vectors(encode_items, FEATURES, 1);

    let mut results = Vec::new();

    // --- Scalar encode: level-sliced popcount kernel vs ±v bit-walk ---
    let kernel = time_per_item(samples, encode_items, || {
        for x in &encode_inputs {
            std::hint::black_box(scalar.encode(x).expect("encode"));
        }
    });
    let reference = time_per_item(samples, encode_items, || {
        for x in &encode_inputs {
            std::hint::black_box(scalar.encode_reference(x).expect("encode"));
        }
    });
    results.push(Comparison {
        name: "scalar_encode",
        unit: "encode",
        reference,
        kernel,
        threshold: Some(3.0),
    });

    // --- Level encode: CSA majority accumulation vs per-row walk ------
    let kernel = time_per_item(samples, encode_items, || {
        for x in &encode_inputs {
            std::hint::black_box(level.encode(x).expect("encode"));
        }
    });
    let reference = time_per_item(samples, encode_items, || {
        for x in &encode_inputs {
            std::hint::black_box(level.encode_reference(x).expect("encode"));
        }
    });
    results.push(Comparison {
        name: "level_encode",
        unit: "encode",
        reference,
        kernel,
        threshold: None,
    });

    // --- Batched predict: blocked ClassMatrix tiles vs naive loop -----
    let query_inputs = feature_vectors(batch, FEATURES, 2);
    let queries: Vec<Hypervector> = query_inputs
        .iter()
        .map(|x| scalar.encode(x).expect("encode"))
        .collect();
    let mut model = HdModel::new(CLASSES, DIM).expect("valid model");
    for (i, q) in queries.iter().enumerate() {
        model.bundle(i % CLASSES, q).expect("bundle");
    }
    model.refresh_norms();

    let kernel = time_per_item(samples, batch, || {
        std::hint::black_box(model.predict_batch_with(&queries, 1).expect("predict"));
    });
    let reference = time_per_item(samples, batch, || {
        for q in &queries {
            std::hint::black_box(model.predict_reference(q).expect("predict"));
        }
    });
    results.push(Comparison {
        name: "predict_batch",
        unit: "query",
        reference,
        kernel,
        threshold: Some(2.0),
    });

    // --- Packed query against float rows (the paper's inference point:
    //     a bipolar query scored against full-precision classes): the
    //     plan's row-grouped sign-select pass vs one `dot_sign_dense`
    //     call per class, the loop `ClassMatrix` ran before rows were
    //     grouped. The kernel arm also pays the plan's dimension check
    //     and argmax. Ungated: no trajectory exists to set a floor yet. -
    let float_classes: Vec<Hypervector> = model.classes().cloned().collect();
    let snapshot = ClassMatrix::from_classes(&float_classes);
    let plan = model.plan();
    assert!(
        matches!(plan.kernel(), PlanKernel::DenseTiled { .. }),
        "bundled float classes must keep dense rows"
    );
    let packed: Vec<BipolarHv> = (0..batch.min(64))
        .map(|i| BipolarHv::random(DIM, i as u64))
        .collect();
    let kernel = time_per_item(samples, packed.len(), || {
        for q in &packed {
            std::hint::black_box(plan.predict_packed(q).expect("predict"));
        }
    });
    let reference = time_per_item(samples, packed.len(), || {
        for q in &packed {
            let scores: Vec<f64> = snapshot
                .norms()
                .iter()
                .enumerate()
                .map(|(l, &norm)| dot_sign_dense(q.words(), snapshot.class_row(l)) / norm)
                .collect();
            std::hint::black_box(scores);
        }
    });
    results.push(Comparison {
        name: "predict_packed_float_rows",
        unit: "query",
        reference,
        kernel,
        threshold: None,
    });

    // --- Packed-native predict: popcount scoring on the sign-quantized
    //     model vs densify-at-submit feeding the tuned dense batched
    //     predict. Both arms classify the same bit-packed wire queries
    //     against the same class memory; the reference arm pays the
    //     `to_dense()` conversion *inside* the timed region because
    //     that is exactly what a server densifying at submit pays per
    //     request. --------------------------------------------------
    let mut packed_model = model.clone();
    packed_model.quantize_classes(QuantScheme::Bipolar);
    packed_model.refresh_norms();
    assert!(
        matches!(
            packed_model.plan().kernel(),
            PlanKernel::PackedPopcount { .. }
        ),
        "bipolar class quantization must yield a packable model"
    );
    let kernel = time_per_item(samples, packed.len(), || {
        for q in &packed {
            std::hint::black_box(packed_model.predict_packed(q).expect("predict"));
        }
    });
    let reference = time_per_item(samples, packed.len(), || {
        let densified: Vec<Hypervector> = packed.iter().map(BipolarHv::to_dense).collect();
        std::hint::black_box(
            packed_model
                .predict_batch_with(&densified, 1)
                .expect("predict"),
        );
    });
    results.push(Comparison {
        name: "predict_packed",
        unit: "query",
        reference,
        kernel,
        threshold: Some(4.0),
    });

    // --- Compiled plan, fused encode∘obfuscate: the publish-time
    //     `EncodePlan` folds the obfuscation keep-mask into the Bipolar
    //     encode so masked dimensions never accumulate, vs the generic
    //     composition (tuned encode, then a separate obfuscation pass
    //     that quantizes everything and zeroes the mask afterwards).
    //     Half the dimensions masked is the paper's aggressive privacy
    //     point, where the fusion win is roughly the masked fraction. --
    let masked_dims = DIM / 2;
    let obfuscate_config = ObfuscateConfig::new(QuantScheme::Bipolar)
        .with_masked_dims(masked_dims)
        .with_seed(11);
    let obfuscator = Obfuscator::new(DIM, obfuscate_config).expect("valid obfuscation config");
    let encode_plan = EncodePlan::from_obfuscator(&obfuscator);
    let kernel = time_per_item(samples, encode_items, || {
        for x in &encode_inputs {
            std::hint::black_box(encode_plan.apply(&scalar, x).expect("encode"));
        }
    });
    let reference = time_per_item(samples, encode_items, || {
        for x in &encode_inputs {
            let h = scalar.encode(x).expect("encode");
            std::hint::black_box(obfuscator.obfuscate(&h).expect("obfuscate"));
        }
    });
    results.push(Comparison {
        name: "plan_compile_encode_obfuscate",
        unit: "encode",
        reference,
        kernel,
        threshold: Some(1.5),
    });

    // --- Report -------------------------------------------------------
    let mut rows = vec![vec![
        "kernel".to_owned(),
        "reference".to_owned(),
        "tuned".to_owned(),
        "speedup".to_owned(),
        "floor".to_owned(),
    ]];
    for c in &results {
        rows.push(vec![
            c.name.to_owned(),
            format!("{:.2} ms/{}", c.reference.median / 1e6, c.unit),
            format!("{:.2} ms/{}", c.kernel.median / 1e6, c.unit),
            format!("{:.2}×", c.speedup()),
            c.threshold.map_or("-".to_owned(), |t| format!("≥{t}×")),
        ]);
    }
    print_table(&rows);

    let all_met = results.iter().all(|c| c.meets_threshold(floor_scale));
    let rows_json: Vec<serde_json::Value> = results
        .iter()
        .map(|c| {
            serde_json::json!({
                "name": c.name,
                "unit": c.unit,
                "reference_ns": c.reference.median,
                "reference_mean_ns": c.reference.mean,
                "reference_stddev_ns": c.reference.stddev,
                "kernel_ns": c.kernel.median,
                "kernel_mean_ns": c.kernel.mean,
                "kernel_stddev_ns": c.kernel.stddev,
                "speedup": c.speedup(),
                "threshold": c.threshold.map_or(serde_json::Value::Null, serde_json::Value::Float),
                "threshold_met": c.meets_threshold(floor_scale),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "suite": "kernels",
        "profile": profile,
        "config": serde_json::json!({
            "features": FEATURES,
            "dim": DIM,
            "levels": LEVELS,
            "classes": CLASSES,
            "batch": batch,
            "samples": samples,
            "threads": 1usize,
        }),
        "results": rows_json,
        "thresholds_met": all_met,
    });
    std::fs::write(out_path, format!("{doc}\n")).expect("write benchmark report");
    eprintln!("wrote {out_path} (thresholds_met: {all_met})");

    if args.iter().any(|a| a == "--check") && !all_met {
        std::process::exit(1);
    }
}
