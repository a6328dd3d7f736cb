//! End-to-end wire-protocol serving over real loopback TCP sockets:
//! the whole PrivHD story — encode ∘ obfuscate on the client, frame,
//! socket, per-model batch routing, predict, response frame.
//!
//! The flagship test publishes two tenant models behind one sharded
//! engine and drives them with concurrent `WireClient`s sending mixed
//! packed (client-obfuscated) and raw-features (server-side edge)
//! frames, while a malformed-frame injector hammers the same server —
//! asserting per-model routing correctness (bit-exact against local
//! ground truth), typed error hygiene, and a clean drain on shutdown.
//! Queue backpressure and the drain of in-flight requests are tested
//! inside `privehd-serve`, where the engine's worker can be parked.
//!
//! These tests run in the dedicated release-mode `wire` CI job
//! (sockets and timing behave differently than debug).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use prive_hd::core::prelude::*;
use prive_hd::core::BipolarHv;
use prive_hd::data::surrogates;
use prive_hd::serve::wire::{Frame, WireClient, WireConfig, WireServer, WireStatus};
use prive_hd::serve::{ClientEdge, ModelId, ServeConfig, ServeEngine, ShardedRegistry};

const DIM: usize = 1_024;

/// One tenant's world: its edge pipeline (own basis seed), its trained
/// model inside the registry, and the raw test split.
struct Tenant {
    id: ModelId,
    edge: ClientEdge,
    model: HdModel,
    inputs: Vec<Vec<f64>>,
}

fn build_tenant(name: &str, seed: u64) -> Tenant {
    let ds = surrogates::isolet(10, 5, seed);
    // Bipolar obfuscation without dimension masking, so prepared
    // queries are strictly ±1 and bit-pack losslessly for the packed
    // wire payload.
    let edge = ClientEdge::new(
        EncoderConfig::new(ds.features(), DIM).with_seed(seed),
        ObfuscateConfig::new(QuantScheme::Bipolar).with_seed(seed + 100),
    )
    .unwrap();
    let mut model = HdModel::new(ds.num_classes(), DIM).unwrap();
    for (x, y) in ds.train_pairs() {
        model.bundle(y, &edge.encoder().encode(x).unwrap()).unwrap();
    }
    model.plan();
    let inputs: Vec<Vec<f64>> = ds.test_pairs().map(|(x, _)| x.to_vec()).collect();
    Tenant {
        id: ModelId::new(name),
        edge,
        model,
        inputs,
    }
}

#[test]
fn two_tenants_mixed_frames_and_a_malformed_injector() {
    let tenants = [build_tenant("tenant-a", 11), build_tenant("tenant-b", 22)];
    let registry = Arc::new(ShardedRegistry::new());
    for t in &tenants {
        registry.publish(&t.id, t.model.clone(), "v1").unwrap();
    }
    let engine = ServeEngine::start(
        Arc::clone(&registry),
        ServeConfig {
            max_batch: 32,
            workers: 2,
            queue_depth: 1_024,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Both tenants register a server-side edge, so raw-features frames
    // run encode ∘ obfuscate on the host for them.
    let mut wire_config = WireConfig::default();
    for t in &tenants {
        wire_config = wire_config.with_edge(t.id.clone(), t.edge.clone());
    }
    let server = WireServer::start("127.0.0.1:0", engine.handle(), wire_config).unwrap();
    let addr = server.local_addr();

    // Two concurrent clients per tenant, each mixing packed
    // (client-obfuscated) and raw-features frames; results are checked
    // bit-exactly against a local predict on the same tenant's weights,
    // which proves both routing and end-to-end fidelity.
    let queries_per_client = 30usize;
    let mut client_threads = Vec::new();
    for t in &tenants {
        for c in 0..2 {
            let id = t.id.clone();
            let edge = t.edge.clone();
            let model = t.model.clone();
            let inputs = t.inputs.clone();
            client_threads.push(std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).unwrap();
                for (i, x) in inputs.iter().cycle().take(queries_per_client).enumerate() {
                    // The obfuscated hypervector the device would send.
                    let prepared = edge.prepare(x).unwrap();
                    let expected = model.predict(&prepared).unwrap();
                    let served = if (i + c) % 2 == 0 {
                        let packed = BipolarHv::from_signs(prepared.as_slice());
                        client.call_packed(&id, &packed).unwrap()
                    } else {
                        // Raw features: the server's edge must produce
                        // the identical obfuscated query (same seeds).
                        client.call_raw(&id, x).unwrap()
                    };
                    assert_eq!(served.model, id, "request served by the wrong tenant");
                    assert_eq!(
                        served.class as usize, expected.class,
                        "class mismatch for {id} query {i}"
                    );
                    assert_eq!(
                        served.score, expected.score,
                        "score not bit-exact for {id} query {i}"
                    );
                    assert_eq!(served.model_version, 1);
                }
            }));
        }
    }

    // The malformed-frame injector shares the server with the real
    // clients: every burst must get a typed BadFrame fault and a
    // close, with zero collateral damage to the tenants' traffic.
    let injector = std::thread::spawn(move || {
        for round in 0..5 {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let garbage = vec![0x5A ^ round as u8; 64];
            sock.write_all(&garbage).unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match sock.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e) => panic!("injector read failed: {e}"),
                }
            }
            let (frame, _) = Frame::decode(&buf, 1 << 20)
                .unwrap()
                .expect("a fault frame");
            let Frame::Response(resp) = frame else {
                panic!("expected a response frame");
            };
            assert_eq!(resp.outcome.unwrap_err().status, WireStatus::BadFrame);
        }
    });

    for t in client_threads {
        t.join().expect("client thread panicked");
    }
    injector.join().expect("injector thread panicked");

    // Clean drain: transport first, then the engine; every accepted
    // frame was answered.
    let wire_report = server.shutdown();
    let total = 4 * queries_per_client as u64;
    assert_eq!(wire_report.frames_in, total);
    assert_eq!(
        wire_report.responses_out,
        total + 5,
        "4 clients + 5 injector faults"
    );
    assert_eq!(wire_report.decode_errors, 5);
    assert_eq!(wire_report.open, 0);

    let report = engine.shutdown();
    assert_eq!(report.completed, total);
    assert_eq!(report.failed, 0);
    // Per-model rows prove the split: each tenant saw exactly its own
    // clients' traffic.
    for t in &tenants {
        let row = report
            .per_model
            .iter()
            .find(|m| m.model == t.id)
            .expect("tenant row");
        assert_eq!(row.completed, 2 * queries_per_client as u64);
    }
}
