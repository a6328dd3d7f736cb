//! Loopback tests that hold requests in flight: each parks the engine's
//! only worker behind a [`Gate`] before its flood, so nothing completes
//! until the test releases it and the busy and in-flight counts it
//! asserts are exact.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use privehd_core::prelude::*;
use privehd_data::surrogates;

use super::{WireConfig, WireServer};
use crate::engine::tests::Gate;
use crate::wire::{WireClient, WireStatus};
use crate::{ClientEdge, ModelId, QueryVec, ServeConfig, ServeEngine, ShardedRegistry};

const DIM: usize = 1_024;

/// One tenant's world: its edge pipeline (own basis seed), its trained
/// model, and one packed query with the class the model gives it.
struct Tenant {
    id: ModelId,
    model: HdModel,
    packed: BipolarHv,
    expected_class: usize,
}

fn build_tenant(name: &str, seed: u64) -> Tenant {
    let ds = surrogates::isolet(10, 5, seed);
    // Bipolar obfuscation without dimension masking, so the prepared
    // query is strictly ±1 and bit-packs losslessly.
    let edge = ClientEdge::new(
        EncoderConfig::new(ds.features(), DIM).with_seed(seed),
        ObfuscateConfig::new(QuantScheme::Bipolar).with_seed(seed + 100),
    )
    .unwrap();
    let mut model = HdModel::new(ds.num_classes(), DIM).unwrap();
    for (x, y) in ds.train_pairs() {
        model.bundle(y, &edge.encoder().encode(x).unwrap()).unwrap();
    }
    let (x, _) = ds.test_pairs().next().unwrap();
    let prepared = edge.prepare(x).unwrap();
    Tenant {
        id: ModelId::new(name),
        expected_class: model.predict(&prepared).unwrap().class,
        packed: BipolarHv::from_signs(prepared.as_slice()),
        model,
    }
}

/// An engine serving `tenant`, its workers parked behind the returned
/// gate on the tenant's own query.
fn parked_engine(tenant: &Tenant, config: ServeConfig) -> (ServeEngine, Gate) {
    let registry = Arc::new(ShardedRegistry::new());
    registry
        .publish(&tenant.id, tenant.model.clone(), "v1")
        .unwrap();
    let workers = config.workers;
    let engine = ServeEngine::start(registry, config).unwrap();
    let query = QueryVec::Packed(tenant.packed.clone());
    let gate = Gate::park(&engine.handle(), workers, &tenant.id, &query);
    (engine, gate)
}

/// Waits until `done` holds, checking every 50 µs; panics naming
/// `what` after 10 s. Blocking between checks, rather than spinning,
/// leaves the CPU to the threads (and the loopback's kernel work) the
/// condition waits on.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(50));
    }
}

fn connect(server: &WireServer) -> WireClient {
    let client = WireClient::connect(server.local_addr()).unwrap();
    // A miscount fails here instead of hanging on a reply that the
    // parked worker never sends.
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
}

#[test]
fn per_connection_in_flight_cap_answers_busy() {
    let tenant = build_tenant("capped", 11);
    let config = ServeConfig {
        max_batch: 32,
        workers: 1,
        queue_depth: 512,
        ..ServeConfig::default()
    };
    let (engine, gate) = parked_engine(&tenant, config);
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            max_in_flight: 4,
            ..WireConfig::default()
        },
    )
    .unwrap();

    let mut client = connect(&server);
    let ids: Vec<u64> = (0..10)
        .map(|_| client.send_packed(&tenant.id, &tenant.packed).unwrap())
        .collect();

    let mut gate = Some(gate);
    let mut busy = 0;
    let mut served = 0;
    for _ in &ids {
        let resp = client.recv().unwrap();
        assert!(ids.contains(&resp.request_id));
        match resp.outcome {
            Ok(p) => {
                assert_eq!(p.class as usize, tenant.expected_class);
                served += 1;
            }
            Err(fault) => {
                assert_eq!(fault.status, WireStatus::Busy);
                assert!(fault.status.is_retryable());
                busy += 1;
            }
        }
        // Nothing completes while the worker is parked, so the cap's
        // refusals are the first replies; then the admitted four run.
        if busy == 6 {
            drop(gate.take());
        }
    }
    // Exactly the cap's worth was admitted; the rest was shed at the
    // connection edge without ever touching the shared queue.
    assert_eq!((served, busy), (4, 6));
    let report = server.shutdown();
    assert_eq!(report.busy_rejections, 6);
    assert_eq!(report.frames_in, 10);
    assert_eq!(report.responses_out, 10);
    let engine_report = engine.shutdown();
    assert_eq!(engine_report.submitted, 4 + 1, "and the gate's one");
}

#[test]
fn queue_pressure_surfaces_as_busy_frames() {
    // Tiny queue, one parked worker, small batches: the engine sheds
    // load with QueueFull, which must reach the client as typed Busy
    // frames rather than a stalled socket.
    let tenant = build_tenant("pressured", 33);
    let config = ServeConfig {
        max_batch: 2,
        workers: 1,
        queue_depth: 2,
        ..ServeConfig::default()
    };
    let (engine, gate) = parked_engine(&tenant, config);
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            // Big enough that the engine queue, not the connection cap,
            // is what sheds.
            max_in_flight: 2_048,
            ..WireConfig::default()
        },
    )
    .unwrap();

    let mut client = connect(&server);
    let flood = 300usize;
    for _ in 0..flood {
        client.send_packed(&tenant.id, &tenant.packed).unwrap();
    }
    let mut gate = Some(gate);
    let mut ok = 0usize;
    let mut busy = 0usize;
    for _ in 0..flood {
        let resp = client.recv().unwrap();
        match resp.outcome {
            Ok(p) => {
                assert_eq!(p.class as usize, tenant.expected_class);
                ok += 1;
            }
            Err(fault) => {
                assert_eq!(fault.status, WireStatus::Busy, "{fault}");
                busy += 1;
            }
        }
        // The queue holds two; every other frame is refused before the
        // parked worker serves anything.
        if busy == flood - 2 {
            drop(gate.take());
        }
    }
    assert_eq!(ok + busy, flood, "every frame answered exactly once");
    assert!(busy > 0, "flood never tripped queue backpressure");
    assert!(ok > 0, "backpressure starved the queue entirely");

    let wire_report = server.shutdown();
    assert_eq!(wire_report.responses_out, flood as u64);
    assert_eq!(wire_report.busy_rejections, busy as u64);
    let report = engine.shutdown();
    assert_eq!(report.completed, ok as u64 + 1, "and the gate's one");
}

#[test]
fn shutdown_drains_in_flight_wire_requests() {
    // Requests in flight when shutdown starts are answered before the
    // transport closes — the drain is graceful, not a guillotine.
    let tenant = build_tenant("draining", 44);
    let config = ServeConfig {
        max_batch: 32,
        workers: 1,
        queue_depth: 64,
        ..ServeConfig::default()
    };
    let (engine, gate) = parked_engine(&tenant, config);
    // One reactor, which owns the connection and so runs until the
    // drain settles. With the tick at 30 s it passes its loop only when
    // an event or a wakeup arrives, so its passes can be counted.
    let wire_config = WireConfig {
        reactors: 1,
        poll_interval: Duration::from_secs(30),
        ..WireConfig::default()
    };
    let server = WireServer::start("127.0.0.1:0", engine.handle(), wire_config).unwrap();
    let addr = server.local_addr();

    let mut client = connect(&server);
    let n = 8usize;
    for _ in 0..n {
        client.send_packed(&tenant.id, &tenant.packed).unwrap();
    }
    // Shut down once all eight are admitted: queued behind the parked
    // worker, so in flight.
    wait_for("the frames' admission", || {
        engine.report().submitted == n as u64 + 1
    });
    let stop = Arc::clone(&server.stop);
    let metrics = Arc::clone(&server.metrics);
    let mailbox = Arc::clone(&server.mailboxes[0]);
    let server_thread = std::thread::spawn(move || server.shutdown());
    // A client that connects once the drain has begun is never
    // accepted. Its connection waits in the listener backlog, and the
    // draining reactors must stop watching the listener rather than
    // wake for it on every pass until the drain settles.
    // Acquire: pairs with the Release store in `WireServer::join`.
    wait_for("the drain to begin", || stop.load(Ordering::Acquire));
    let _late = TcpStream::connect(addr).unwrap();
    // While the parked worker holds the drain open, wake the reactor a
    // fixed number of times, one wakeup at a time. Each wakeup costs
    // one pass, plus one for the stop it may not have seen yet; a
    // reactor still watching the pending listener would pass again and
    // again in between.
    let passes = || metrics.report().reactor_passes;
    let before = passes();
    let wakeups = 200;
    for _ in 0..wakeups {
        let seen = passes();
        mailbox.poller.notify().unwrap();
        wait_for("the woken reactor's pass", || passes() > seen);
    }
    let drained_passes = passes() - before;
    assert!(
        drained_passes <= wakeups + 1,
        "the draining reactor passed {drained_passes} times for {wakeups} wakeups"
    );
    gate.release();
    let mut answered = 0usize;
    for _ in 0..n {
        let resp = client.recv().unwrap();
        assert!(resp.outcome.is_ok(), "drained request failed");
        answered += 1;
    }
    assert_eq!(answered, n);
    let wire_report = server_thread.join().unwrap();
    assert_eq!(wire_report.frames_in, n as u64);
    assert_eq!(wire_report.responses_out, n as u64);
    assert!(
        wire_report.reactor_passes < 1_000,
        "the drain spun: {} reactor passes",
        wire_report.reactor_passes
    );
    engine.shutdown();
}
