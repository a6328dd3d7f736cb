//! Wire-server behavior over real loopback sockets: malformed-frame
//! hygiene (typed error then close), idle timeouts, engine-shutdown
//! drain, and the connection cap. The per-connection `Busy` cap is
//! tested inside the crate, where the engine's worker can be parked
//! while a flood lands.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use privehd_core::{BipolarHv, HdModel, Hypervector};
use privehd_serve::wire::{Frame, WireClient, WireClientError, WireConfig, WireServer, WireStatus};
use privehd_serve::{ModelId, ServeConfig, ServeEngine, ShardedRegistry};

const DIM: usize = 256;

fn trained_registry() -> Arc<ShardedRegistry> {
    let mut model = HdModel::new(2, DIM).unwrap();
    model
        .bundle(0, &Hypervector::from_vec(vec![1.0; DIM]))
        .unwrap();
    model
        .bundle(1, &Hypervector::from_vec(vec![-1.0; DIM]))
        .unwrap();
    Arc::new(ShardedRegistry::with_model(model, "wire-test").unwrap())
}

fn positive_query() -> BipolarHv {
    BipolarHv::from_signs(&vec![1.0; DIM])
}

#[test]
fn malformed_frames_get_typed_error_then_close() {
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start("127.0.0.1:0", engine.handle(), WireConfig::default()).unwrap();

    // Raw socket speaking garbage: expect one BadFrame fault, then EOF.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(b"GARBAGE GARBAGE GARBAGE").unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed before EOF: {e}"),
        }
    }
    let (frame, used) = Frame::decode(&buf, 1 << 20)
        .unwrap()
        .expect("an error frame");
    assert_eq!(used, buf.len(), "exactly one response then close");
    let Frame::Response(resp) = frame else {
        panic!("expected a response frame");
    };
    let fault = resp.outcome.unwrap_err();
    assert_eq!(fault.status, WireStatus::BadFrame);

    // A fresh, well-formed connection still works: one bad peer does
    // not poison the server.
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let served = client
        .call_packed(&ModelId::default(), &positive_query())
        .unwrap();
    assert_eq!(served.class, 0);

    let report = server.shutdown();
    assert_eq!(report.decode_errors, 1);
    engine.shutdown();
}

#[test]
fn oversized_and_wrong_version_frames_are_typed() {
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            max_body_bytes: 1_024,
            ..WireConfig::default()
        },
    )
    .unwrap();

    // Oversized: a declared body length over the server's cap.
    let mut header = Vec::new();
    header.extend_from_slice(b"PVHD");
    header.push(1); // version
    header.push(0x01); // packed request
    header.extend_from_slice(&7u64.to_le_bytes()); // request id
    header.extend_from_slice(&u32::MAX.to_le_bytes()); // body length
    let fault = fault_from_raw(server.local_addr(), &header);
    assert_eq!(fault.1.status, WireStatus::TooLarge);
    assert_eq!(fault.0, 7, "request id salvaged from the bad frame");

    // Wrong version: typed as UnsupportedVersion, id still salvaged.
    let mut v2 = header.clone();
    v2[4] = 2;
    let fault = fault_from_raw(server.local_addr(), &v2);
    assert_eq!(fault.1.status, WireStatus::UnsupportedVersion);
    assert_eq!(fault.0, 7);

    let report = server.shutdown();
    assert_eq!(report.decode_errors, 2);
    engine.shutdown();
}

/// Writes raw bytes, reads to EOF, returns (request id, fault) of the
/// single expected error response.
fn fault_from_raw(
    addr: std::net::SocketAddr,
    bytes: &[u8],
) -> (u64, privehd_serve::wire::WireFault) {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(bytes).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed before EOF: {e}"),
        }
    }
    let (frame, _) = Frame::decode(&buf, 1 << 20)
        .unwrap()
        .expect("an error frame");
    let Frame::Response(resp) = frame else {
        panic!("expected a response frame");
    };
    (resp.request_id, resp.outcome.unwrap_err())
}

#[test]
fn fault_frame_survives_bytes_still_in_flight() {
    // Regression: a peer that keeps streaming after its frame went bad
    // must still receive the typed fault. Closing the socket with
    // unread bytes in the kernel buffer would RST and destroy the
    // fault frame; the server instead half-closes and lingers,
    // discarding the in-flight bytes.
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            max_body_bytes: 4_096,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Header declaring a body far over the cap…
    let mut bad = Vec::new();
    bad.extend_from_slice(b"PVHD");
    bad.push(1);
    bad.push(0x01);
    bad.extend_from_slice(&9u64.to_le_bytes());
    bad.extend_from_slice(&(1_u32 << 20).to_le_bytes());
    sock.write_all(&bad).unwrap();
    // …followed by a sizeable chunk of the "body" still in flight.
    sock.write_all(&vec![0xABu8; 256 * 1024]).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("fault frame lost to a reset: {e}"),
        }
    }
    let (frame, _) = Frame::decode(&buf, 1 << 20)
        .unwrap()
        .expect("the typed fault frame");
    let Frame::Response(resp) = frame else {
        panic!("expected a response frame");
    };
    assert_eq!(resp.request_id, 9);
    assert_eq!(resp.outcome.unwrap_err().status, WireStatus::TooLarge);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn engine_shutdown_maps_to_closed_faults() {
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start("127.0.0.1:0", engine.handle(), WireConfig::default()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    // Engine goes first; the transport stays up and answers Closed.
    engine.shutdown();
    let err = client
        .call_packed(&ModelId::default(), &positive_query())
        .unwrap_err();
    let WireClientError::Fault(fault) = err else {
        panic!("expected a fault, got {err}");
    };
    assert_eq!(fault.status, WireStatus::Closed);
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            idle_timeout: Duration::from_millis(100),
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Say nothing; the server should hang up on its own.
    let mut chunk = [0u8; 16];
    assert_eq!(sock.read(&mut chunk).unwrap(), 0, "expected EOF");
    let report = server.shutdown();
    assert_eq!(report.idle_closed, 1);
    engine.shutdown();
}

#[test]
fn peers_stalled_mid_frame_are_reaped() {
    // A half-open peer (a few valid header bytes, then silence) must
    // not pin a connection slot forever: the idle timeout applies even
    // with unparsed bytes buffered.
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            idle_timeout: Duration::from_millis(100),
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Valid magic + version, then stall: an incomplete frame forever.
    sock.write_all(b"PVHD\x01").unwrap();
    let mut chunk = [0u8; 16];
    assert_eq!(sock.read(&mut chunk).unwrap(), 0, "expected EOF");
    let report = server.shutdown();
    assert_eq!(report.idle_closed, 1);
    engine.shutdown();
}

#[test]
fn over_cap_query_dimensions_are_refused_cheaply() {
    // Admission accounts for bytes held in the engine queue: a raw
    // frame may declare up to `max_query_dim` features (one f64 per
    // dim after encoding), a packed frame — which stays packed at 1
    // bit/dim — up to 64× that.
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            max_query_dim: 2,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    // DIM (256) exceeds the packed cap (64 × 2 = 128): typed fault, no
    // submission…
    let err = client
        .call_packed(&ModelId::default(), &positive_query())
        .unwrap_err();
    let WireClientError::Fault(fault) = err else {
        panic!("expected a fault, got {err}");
    };
    assert_eq!(fault.status, WireStatus::ModelError);
    assert!(
        fault.detail.contains("exceeds the server cap 128"),
        "{fault}"
    );
    // …and raw feature vectors use the dense (unmultiplied) cap.
    let err = client
        .call_raw(&ModelId::default(), &vec![0.5; 200])
        .unwrap_err();
    let WireClientError::Fault(fault) = err else {
        panic!("expected a fault, got {err}");
    };
    assert_eq!(fault.status, WireStatus::ModelError);
    assert!(fault.detail.contains("exceeds the server cap 2"), "{fault}");
    // The connection stays healthy; a packed query well beyond the raw
    // cap but within the 64× packed allowance is admitted.
    let small = BipolarHv::from_signs(&vec![1.0; 128]);
    let err = client.call_packed(&ModelId::default(), &small).unwrap_err();
    // 128 dims passes admission; the model (256-dim) then rejects it —
    // proving the request reached the engine.
    let WireClientError::Fault(fault) = err else {
        panic!("expected a fault, got {err}");
    };
    assert_eq!(fault.status, WireStatus::ModelError);
    assert!(fault.detail.contains("dimension"), "{fault}");
    let engine_report = engine.shutdown();
    assert_eq!(engine_report.submitted, 1, "only the in-cap query entered");
    server.shutdown();
}

#[test]
fn nan_raw_feature_answers_model_error_and_the_server_keeps_serving() {
    // A NaN feature, encoded server-side without quantization, reaches
    // the argmax as NaN scores: it must answer a typed fault and leave
    // the server serving. The read timeouts turn a missing reply into a
    // failure, not a hang.
    let edge = privehd_serve::ClientEdge::new(
        privehd_core::EncoderConfig::new(8, DIM).with_seed(11),
        privehd_core::ObfuscateConfig::new(privehd_core::QuantScheme::Full),
    )
    .unwrap();
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig::default().with_edge(ModelId::default(), edge),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut features = [0.5; 8];
    features[3] = f64::NAN;
    let err = client.call_raw(&ModelId::default(), &features).unwrap_err();
    let WireClientError::Fault(fault) = err else {
        panic!("expected a fault, got {err}");
    };
    assert_eq!(fault.status, WireStatus::ModelError);
    assert!(fault.detail.contains("non-finite"), "{fault}");

    let mut fresh = WireClient::connect(server.local_addr()).unwrap();
    fresh
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    fresh.call_raw(&ModelId::default(), &[0.9; 8]).unwrap();
    server.shutdown();
    engine.shutdown();
}

#[test]
fn nan_raw_feature_through_a_masked_bipolar_edge_answers_model_error() {
    // Quantized, a NaN-poisoned encoding is a confident query: this
    // edge would send its 128 kept dimensions as −1 and the engine
    // would answer it `ok`. The edge must refuse it as a model error.
    let edge = privehd_serve::ClientEdge::new(
        privehd_core::EncoderConfig::new(8, DIM).with_seed(11),
        privehd_core::ObfuscateConfig::new(privehd_core::QuantScheme::Bipolar)
            .with_masked_dims(DIM / 2),
    )
    .unwrap();
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig::default().with_edge(ModelId::default(), edge),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut features = [0.5; 8];
    features[3] = f64::NAN;
    let err = client.call_raw(&ModelId::default(), &features).unwrap_err();
    let WireClientError::Fault(fault) = err else {
        panic!("expected a fault, got {err}");
    };
    assert_eq!(fault.status, WireStatus::ModelError);
    assert!(
        fault.detail.contains("non-finite value in features"),
        "{fault}"
    );
    // The same connection keeps serving finite queries.
    client.call_raw(&ModelId::default(), &[0.9; 8]).unwrap();
    server.shutdown();
    engine.shutdown();
}

#[test]
fn connection_cap_refuses_extras() {
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            max_connections: 2,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut a = WireClient::connect(server.local_addr()).unwrap();
    let mut b = WireClient::connect(server.local_addr()).unwrap();
    // Force both through a round trip so the server has registered them.
    assert_eq!(
        a.call_packed(&ModelId::default(), &positive_query())
            .unwrap()
            .class,
        0
    );
    assert_eq!(
        b.call_packed(&ModelId::default(), &positive_query())
            .unwrap()
            .class,
        0
    );
    // The third connect is accepted by the OS but closed by the server.
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut chunk = [0u8; 16];
    assert_eq!(c.read(&mut chunk).unwrap(), 0, "expected refusal EOF");
    // The open gauge is the cap's one counter: the refusal left it at 2.
    assert_eq!(server.report().open, 2);
    let report = server.shutdown();
    assert_eq!(report.refused, 1);
    assert_eq!(report.accepted, 2);
    assert_eq!(report.open, 0, "shutdown releases every slot");
    engine.shutdown();
}

#[test]
fn stats_scrape_exposes_stage_decomposition() {
    // Serve real traffic (packed and raw, so the Encode stage runs),
    // then scrape the Stats frame and check the Prometheus text carries
    // the stage-level latency decomposition.
    let edge = privehd_serve::ClientEdge::new(
        privehd_core::EncoderConfig::new(8, DIM).with_seed(11),
        privehd_core::ObfuscateConfig::new(privehd_core::QuantScheme::Bipolar),
    )
    .unwrap();
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig::default().with_edge(ModelId::default(), edge),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    for _ in 0..8 {
        client
            .call_packed(&ModelId::default(), &positive_query())
            .unwrap();
    }
    client.call_raw(&ModelId::default(), &[0.9; 8]).unwrap();

    let text = client.stats().unwrap();
    assert!(text.contains("privehd_serve_requests_total{outcome=\"completed\"} 9"));
    for stage in [
        "wire_decode",
        "admission",
        "encode",
        "queue_wait",
        "batch_wait",
        "snapshot_resolve",
        "predict",
        "wire_write",
    ] {
        let count_line = format!("privehd_serve_stage_latency_seconds_count{{stage=\"{stage}\"}}");
        let line = text
            .lines()
            .find(|l| l.starts_with(&count_line))
            .unwrap_or_else(|| panic!("no {stage} stage series in:\n{text}"));
        let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(n > 0, "stage {stage} has zero count:\n{text}");
    }
    // The engine worker serving a raw request runs its edge: one encode
    // per raw request served, never more than the end-to-end count.
    let count = |prefix: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix} series in:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let encoded = count("privehd_serve_stage_latency_seconds_count{stage=\"encode\"}");
    let end_to_end = count("privehd_serve_latency_seconds_count ");
    assert_eq!(encoded, 1, "one raw request was served:\n{text}");
    // Nothing panicked, and the series says so rather than being absent.
    assert_eq!(count("privehd_serve_panics_contained_total "), 0);
    assert!(
        encoded <= end_to_end,
        "{encoded} encodes > {end_to_end} e2e"
    );
    assert!(text.contains("privehd_wire_frames_total{direction=\"in\"} 9"));
    assert!(text.contains("privehd_wire_stats_served_total 1"));
    // Reactor wake counters: at least one reply woke its reactor, and
    // no reply woke it more than once.
    assert!(count("privehd_wire_reactor_passes_total ") > 0);
    let notifies = count("privehd_wire_reply_notifies_total ");
    let replies = count("privehd_wire_frames_total{direction=\"out\"} ");
    assert!(
        (1..=replies).contains(&notifies),
        "{notifies} reply notifies for {replies} replies:\n{text}"
    );
    // Snapshot footprint: the served ±1 model exposes both
    // representations, and the packed one is the ~64× smaller of the
    // two (the whole point of 1-bit serving).
    let memory = |repr: &str| -> u64 {
        let prefix =
            format!("privehd_serve_model_memory_bytes{{model=\"default\",repr=\"{repr}\"}}");
        text.lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no {repr} memory gauge in:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let (dense, packed) = (memory("dense"), memory("packed"));
    assert!(dense > 0 && packed > 0, "dense {dense} packed {packed}");
    assert!(
        packed * 8 < dense,
        "packed gauge {packed} not substantially below dense {dense}"
    );
    // Stats traffic is metadata: not in frames_in/responses_out. A
    // second scrape still works and sees itself counted.
    let text2 = client.stats().unwrap();
    assert!(text2.contains("privehd_wire_frames_total{direction=\"in\"} 9"));
    assert!(text2.contains("privehd_wire_stats_served_total 2"));
    // Predictions still serve after scrapes on the same connection.
    assert_eq!(
        client
            .call_packed(&ModelId::default(), &positive_query())
            .unwrap()
            .class,
        0
    );

    let report = server.shutdown();
    assert_eq!(report.stats_served, 2);
    assert_eq!(report.frames_in, 10);
    assert_eq!(report.responses_out, 10);
    engine.shutdown();
}

#[test]
fn one_trace_id_spans_the_wire_and_engine_stages() {
    // A fresh engine samples its first trace, so every stage of the
    // first request lands in the span ring under trace id 1, and the
    // Stats frame shows what happened to that request, end to end.
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start("127.0.0.1:0", engine.handle(), WireConfig::default()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .call_packed(&ModelId::default(), &positive_query())
        .unwrap();
    // Every stage is stamped before the reply is written, so one scrape
    // sees all eight. Scrapes begin no trace of their own.
    let text = client.stats().unwrap();
    let spans: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with("# slowtrace trace="))
        .collect();
    let mut stages: Vec<&str> = spans
        .iter()
        .map(|line| {
            let mut fields = line["# slowtrace ".len()..].split(' ');
            assert_eq!(fields.next(), Some("trace=1"), "{line}");
            let stage = fields.next().and_then(|f| f.strip_prefix("stage="));
            stage.unwrap_or_else(|| panic!("no stage field in {line}"))
        })
        .collect();
    stages.sort_unstable();
    let mut want = [
        "wire_decode",
        "admission",
        "queue_wait",
        "batch_wait",
        "snapshot_resolve",
        "predict",
        "wire_write",
        "end_to_end",
    ];
    want.sort_unstable();
    assert_eq!(stages, want, "{spans:#?}");
    server.shutdown();
    engine.shutdown();
}

#[test]
fn unknown_frame_kind_answers_typed_fault() {
    // A well-formed frame with an unallocated kind byte must come back
    // as a typed BadFrame fault (id salvaged), not a dropped socket.
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    let server = WireServer::start("127.0.0.1:0", engine.handle(), WireConfig::default()).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(b"PVHD");
    frame.push(1); // version
    frame.push(0x7F); // unallocated kind
    frame.extend_from_slice(&21u64.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    let crc = privehd_serve::wire::crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    let (id, fault) = fault_from_raw(server.local_addr(), &frame);
    assert_eq!(id, 21);
    assert_eq!(fault.status, WireStatus::BadFrame);
    let report = server.shutdown();
    assert_eq!(report.decode_errors, 1);
    engine.shutdown();
}

#[test]
fn invalid_wire_configs_are_rejected() {
    let engine = ServeEngine::start(trained_registry(), ServeConfig::default()).unwrap();
    for bad in [
        WireConfig {
            reactors: 0,
            ..WireConfig::default()
        },
        WireConfig {
            max_connections: 0,
            ..WireConfig::default()
        },
        WireConfig {
            max_body_bytes: 1,
            ..WireConfig::default()
        },
        WireConfig {
            max_in_flight: 0,
            ..WireConfig::default()
        },
        WireConfig {
            max_query_dim: 0,
            ..WireConfig::default()
        },
    ] {
        assert!(matches!(
            WireServer::start("127.0.0.1:0", engine.handle(), bad),
            Err(privehd_serve::ServeError::InvalidConfig(_))
        ));
    }
    engine.shutdown();
}
