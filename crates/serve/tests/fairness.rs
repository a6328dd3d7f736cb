//! Tenant fairness under flood, end to end over the wire: a flooder
//! tenant saturating the ingress must not starve a well-behaved victim
//! tenant. The engine's per-tenant admission quotas bound how much of
//! the shared queue capacity the flooder can hold, and the round-robin
//! scheduler bounds how long a victim request can wait behind flooder
//! backlog. Raw-features frames are held to the
//! same quota: their server-side edge runs only on the engine worker
//! that serves them. Also exercises the multi-reactor ingress path
//! (sharded accept, fd-hash pinning, cross-reactor completion handoff)
//! with many concurrent connections.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use privehd_core::telemetry::Stage;
use privehd_core::{BipolarHv, EncoderConfig, HdModel, Hypervector, ObfuscateConfig, QuantScheme};
use privehd_serve::wire::{WireClient, WireConfig, WireServer, WireStatus};
use privehd_serve::{ClientEdge, ModelId, ServeConfig, ServeEngine, ShardedRegistry};

const DIM: usize = 256;

fn trained_model() -> HdModel {
    let mut model = HdModel::new(2, DIM).unwrap();
    model
        .bundle(0, &Hypervector::from_vec(vec![1.0; DIM]))
        .unwrap();
    model
        .bundle(1, &Hypervector::from_vec(vec![-1.0; DIM]))
        .unwrap();
    model
}

fn positive_query() -> BipolarHv {
    BipolarHv::from_signs(&vec![1.0; DIM])
}

/// p99 of a latency sample set, in nanoseconds.
fn p99_ns(samples: &mut [u128]) -> u128 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    samples[(0.99 * (samples.len() - 1) as f64).round() as usize]
}

/// Sequential closed-loop victim pass: `n` call_packed round trips,
/// returning per-request latencies. Panics on any fault — the victim
/// stays far under its own quota, so it must never see Busy.
fn victim_pass(addr: std::net::SocketAddr, victim: &ModelId, n: usize) -> Vec<u128> {
    let mut client = WireClient::connect(addr).unwrap();
    let query = positive_query();
    let mut latencies = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let served = client.call_packed(victim, &query).expect("victim call");
        latencies.push(start.elapsed().as_nanos());
        assert_eq!(served.class, 0);
    }
    latencies
}

/// Two-tenant flood: eight flooder connections pipeline packed bursts
/// at one tenant while a single victim connection runs sequential
/// round trips at another. Asserts the ISSUE's fairness bounds:
/// every victim request completes (≥95% required; we get 100% because
/// the victim never exceeds its quota), victim p99 under load stays
/// within 3x of the unloaded p99 (with a floor for timer noise), and
/// the flooder provably hit Busy backpressure.
#[test]
fn wire_flood_bounds_victim_p99_and_completes() {
    let flood_id = ModelId::new("flood");
    let victim_id = ModelId::new("victim");
    let registry = Arc::new(ShardedRegistry::new());
    registry
        .publish(&flood_id, trained_model(), "flood-v1")
        .unwrap();
    registry
        .publish(&victim_id, trained_model(), "victim-v1")
        .unwrap();

    // One worker and a small per-tenant quota: the flooder can hold at
    // most `tenant_quota` slots of the shared queue, and the round-robin
    // alternates service between the two tenants' queues.
    let engine = ServeEngine::start(
        Arc::clone(&registry),
        ServeConfig {
            max_batch: 8,
            workers: 1,
            queue_depth: 1024,
            tenant_quota: 32,
        },
    )
    .unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            reactors: 2,
            max_in_flight: 256,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Unloaded baseline for the victim.
    let mut unloaded = victim_pass(addr, &victim_id, 50);
    let unloaded_p99 = p99_ns(&mut unloaded);

    // Flood: eight connections, each pipelining bursts without waiting
    // for responses, until told to stop. Count Busy faults.
    let stop = Arc::new(AtomicBool::new(false));
    let busy_seen = Arc::new(AtomicUsize::new(0));
    let flood_ok = Arc::new(AtomicUsize::new(0));
    let flooders: Vec<_> = (0..8)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let busy_seen = Arc::clone(&busy_seen);
            let flood_ok = Arc::clone(&flood_ok);
            let flood_id = flood_id.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).unwrap();
                let query = positive_query();
                while !stop.load(Ordering::Relaxed) {
                    const BURST: usize = 32;
                    for _ in 0..BURST {
                        if client.send_packed(&flood_id, &query).is_err() {
                            return;
                        }
                    }
                    for _ in 0..BURST {
                        match client.recv() {
                            Ok(resp) => match resp.outcome {
                                Ok(_) => {
                                    flood_ok.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(fault) => {
                                    assert_eq!(fault.status, WireStatus::Busy);
                                    busy_seen.fetch_add(1, Ordering::Relaxed);
                                }
                            },
                            Err(_) => return,
                        }
                    }
                }
            })
        })
        .collect();

    // Give the flood time to saturate the queue before measuring.
    let warmup = Instant::now();
    while busy_seen.load(Ordering::Relaxed) == 0 && warmup.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Victim under load: all requests must complete (victim_pass
    // panics on any fault, so completion is 100% ≥ the 95% bar).
    let mut loaded = victim_pass(addr, &victim_id, 50);
    let loaded_p99 = p99_ns(&mut loaded);

    stop.store(true, Ordering::Relaxed);
    for f in flooders {
        f.join().unwrap();
    }

    // The flooder must have been pushed back, and some of its traffic
    // must still have been served (quota, not a blackhole).
    assert!(
        busy_seen.load(Ordering::Relaxed) > 0,
        "flooder never saw Busy — backpressure did not engage"
    );
    assert!(
        flood_ok.load(Ordering::Relaxed) > 0,
        "flooder fully starved — quota should throttle, not blackhole"
    );

    // Victim p99 bounded: ≤ 3x unloaded p99, with a 10 ms floor so the
    // assertion is about scheduling, not sub-millisecond timer noise.
    let bound = 3 * unloaded_p99.max(10_000_000);
    assert!(
        loaded_p99 <= bound,
        "victim p99 under load {loaded_p99}ns exceeds bound {bound}ns \
         (unloaded p99 {unloaded_p99}ns)"
    );

    server.shutdown();
    engine.shutdown();
}

/// A raw flood is charged to its tenant's quota before any encode: four
/// connections each pipeline 64 raw frames at one tenant (quota 4, one
/// worker) through a half-masked bipolar edge. The flooder must see
/// `Busy`, and the encode stage must count exactly the frames answered
/// `ok` — a refused raw frame is never encoded.
#[test]
fn refused_raw_frames_are_never_encoded() {
    const FEATURES: usize = 64;
    const RAW_DIM: usize = 2_048;
    const CONNS: usize = 4;
    const FRAMES: usize = 64;
    let flood_id = ModelId::new("raw-flood");
    let edge = ClientEdge::new(
        EncoderConfig::new(FEATURES, RAW_DIM).with_seed(7),
        ObfuscateConfig::new(QuantScheme::Bipolar).with_masked_dims(RAW_DIM / 2),
    )
    .unwrap();
    let mut model = HdModel::new(2, RAW_DIM).unwrap();
    model
        .bundle(0, &Hypervector::from_vec(vec![1.0; RAW_DIM]))
        .unwrap();
    model
        .bundle(1, &Hypervector::from_vec(vec![-1.0; RAW_DIM]))
        .unwrap();
    let registry = Arc::new(ShardedRegistry::new());
    registry.publish(&flood_id, model, "raw-v1").unwrap();
    let engine = ServeEngine::start(
        registry,
        ServeConfig {
            max_batch: 4,
            workers: 1,
            tenant_quota: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // An in-flight cap of FRAMES admits every pipelined frame past its
    // connection, so each `Busy` is the tenant quota's.
    let wire = WireConfig {
        max_in_flight: FRAMES,
        ..WireConfig::default()
    };
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        wire.with_edge(flood_id.clone(), edge),
    )
    .unwrap();
    let addr = server.local_addr();

    let flooders: Vec<_> = (0..CONNS)
        .map(|c| {
            let flood_id = flood_id.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).unwrap();
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                for i in 0..FRAMES {
                    let features: Vec<f64> = (0..FEATURES)
                        .map(|k| ((c + i + k) % 10) as f64 / 10.0)
                        .collect();
                    client.send_raw(&flood_id, &features).unwrap();
                }
                let (mut ok, mut busy) = (0u64, 0u64);
                for _ in 0..FRAMES {
                    match client.recv().unwrap().outcome {
                        Ok(_) => ok += 1,
                        Err(fault) => {
                            assert_eq!(fault.status, WireStatus::Busy, "{fault}");
                            busy += 1;
                        }
                    }
                }
                (ok, busy)
            })
        })
        .collect();
    let (mut ok, mut busy) = (0, 0);
    for f in flooders {
        let (o, b) = f.join().unwrap();
        ok += o;
        busy += b;
    }

    assert!(busy > 0, "the raw flood never saw Busy ({ok} ok)");
    let report = engine.report();
    let encoded = report
        .stages
        .iter()
        .find(|row| row.stage == Stage::Encode)
        .map_or(0, |row| row.count);
    assert_eq!(
        encoded, ok,
        "{encoded} raw frames encoded for {ok} ok replies ({busy} busy)"
    );
    server.shutdown();
    engine.shutdown();
}

/// Multi-reactor ingress correctness: with 3 reactors and a dozen
/// concurrent connections, every connection lands on some reactor via
/// the fd-hash handoff, every request completes with the right answer,
/// and shutdown drains cleanly (open-connection gauge back to zero).
///
/// No accept or reply may wait for the poll tick. The tick is 30 s
/// here, so the whole exchange and drain must finish within 5 s on
/// wakeups alone: accepts follow listener readiness, and pipelined
/// bursts queue completions behind one another in a reactor's inbox,
/// where only the first of them wakes the reactor. The last round
/// trips are lone requests on a quiet server, whose replies nothing
/// but their own wakeup can deliver.
#[test]
fn multi_reactor_ingress_serves_all_connections_and_drains() {
    let started = Instant::now();
    let budget = Duration::from_secs(5);
    let engine = ServeEngine::start(
        Arc::new(ShardedRegistry::with_model(trained_model(), "mr-v1").unwrap()),
        ServeConfig {
            max_batch: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        engine.handle(),
        WireConfig {
            reactors: 3,
            poll_interval: Duration::from_secs(30),
            ..WireConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    const CONNS: usize = 12;
    const PER_CONN: usize = 20;
    const BURSTS: usize = 4;
    const BURST: usize = 16;
    let workers: Vec<_> = (0..CONNS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).unwrap();
                // A reply stranded until the 30 s tick fails here, not
                // by hanging the test.
                client.set_read_timeout(Some(budget)).unwrap();
                let query = positive_query();
                for _ in 0..BURSTS {
                    for _ in 0..BURST {
                        client.send_packed(&ModelId::default(), &query).unwrap();
                    }
                    for _ in 0..BURST {
                        let served = client.recv().unwrap().outcome.unwrap();
                        assert_eq!(served.class, 0);
                    }
                }
                for _ in 0..PER_CONN {
                    let served = client.call_packed(&ModelId::default(), &query).unwrap();
                    assert_eq!(served.class, 0);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // Every other connection is done: one more, alone.
    let mut client = WireClient::connect(addr).unwrap();
    client.set_read_timeout(Some(budget)).unwrap();
    for _ in 0..PER_CONN {
        let served = client
            .call_packed(&ModelId::default(), &positive_query())
            .unwrap();
        assert_eq!(served.class, 0);
    }
    drop(client);

    let report = server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < budget,
        "exchange and drain took {elapsed:?}: something waited for the poll tick"
    );
    assert_eq!(report.accepted, CONNS as u64 + 1);
    assert_eq!(report.open, 0, "all connections must be released on drain");
    assert!(report.responses_out >= (CONNS * (PER_CONN + BURSTS * BURST) + PER_CONN) as u64);
    engine.shutdown();
}
