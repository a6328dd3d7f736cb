//! End-to-end inference serving: edge clients obfuscate queries and a
//! cloud-side engine batches them from its backlog through a worker
//! pool, with a model hot swap happening mid-traffic.
//!
//! Demonstrates the full `privehd-serve` subsystem: the client edge
//! (encode + obfuscate), the versioned model registry, backlog
//! batching, and the serving report (throughput, latency
//! quantiles, batch-size distribution, per-stage latency
//! decomposition), then a multi-tenant engine
//! serving three models from one `ShardedRegistry` with per-model
//! routing and metrics. Finishes with a single-query vs micro-batched
//! throughput comparison.
//!
//! Run with: `cargo run --release --example serving`

use std::sync::Arc;
use std::time::{Duration, Instant};

use prive_hd::core::prelude::*;
use prive_hd::core::BipolarHv;
use prive_hd::data::surrogates;
use prive_hd::serve::wire::{WireClient, WireConfig, WireServer};
use prive_hd::serve::{ClientEdge, ModelId, ServeConfig, ServeEngine, ServeError, ShardedRegistry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dim = 4_000;
    let dataset = surrogates::isolet(15, 20, 2);

    // Edge side: clients share the public basis (seed) and obfuscate
    // every query — the host below never sees a raw encoding.
    let edge = ClientEdge::new(
        EncoderConfig::new(dataset.features(), dim).with_seed(3),
        ObfuscateConfig::new(QuantScheme::Bipolar)
            .with_masked_dims(dim / 4)
            .with_seed(9),
    )?;
    println!(
        "edge payload: {} bits/query (raw encoding would be {} bits)",
        edge.payload_bits(),
        dim * 64
    );

    // Host side: train v1 on the same basis and publish it.
    let mut model = HdModel::new(dataset.num_classes(), dim)?;
    for (x, y) in dataset.train_pairs() {
        model.bundle(y, &edge.encoder().encode(x)?)?;
    }
    let registry = Arc::new(ShardedRegistry::with_model(model.clone(), "isolet-v1")?);

    let engine = ServeEngine::start(
        Arc::clone(&registry),
        ServeConfig {
            max_batch: 64,
            packed_fastpath: true,
            ..ServeConfig::default()
        },
    )?;

    // Traffic: four client threads, each streaming the test split.
    let inputs: Vec<Vec<f64>> = dataset.test_pairs().map(|(x, _)| x.to_vec()).collect();
    let labels: Vec<usize> = dataset.test_pairs().map(|(_, y)| y).collect();
    let mut clients = Vec::new();
    for t in 0..4 {
        let handle = engine.handle();
        let edge = edge.clone();
        let inputs = inputs.clone();
        clients.push(std::thread::spawn(move || {
            let mut classes = Vec::new();
            for x in &inputs {
                let query = edge.prepare(x).expect("edge preparation");
                let served = loop {
                    match handle.submit_default(query.clone()) {
                        Ok(pending) => break pending.wait().expect("response"),
                        Err(ServeError::QueueFull) => std::thread::yield_now(),
                        Err(e) => panic!("submit failed: {e}"),
                    }
                };
                classes.push(served.prediction.class);
            }
            (t, classes)
        }));
    }

    // Mid-traffic hot swap: retrain and publish v2 without pausing.
    std::thread::sleep(Duration::from_millis(5));
    let mut retrained = model;
    let train_enc: Vec<(Hypervector, usize)> = dataset
        .train_pairs()
        .map(|(x, y)| Ok((edge.encoder().encode(x)?, y)))
        .collect::<Result<_, HdError>>()?;
    retrained.retrain(&train_enc, &RetrainConfig::default())?;
    let v2 = registry.publish(&ModelId::default(), retrained, "isolet-v2-retrained")?;
    println!("hot-swapped to version {v2} while traffic was in flight");

    let mut correct = 0usize;
    let mut total = 0usize;
    for c in clients {
        let (_, classes) = c.join().expect("client thread");
        for (got, want) in classes.iter().zip(&labels) {
            total += 1;
            if got == want {
                correct += 1;
            }
        }
    }
    println!(
        "served accuracy: {:.1}% over {} obfuscated queries",
        100.0 * correct as f64 / total as f64,
        total
    );

    let report = engine.shutdown();
    println!("\n== serving report ==\n{report}");
    print!("batch sizes: ");
    for (size, count) in &report.batch_size_histogram {
        print!("{size}x{count} ");
    }
    println!();

    // Where the time went: the engine stamps every request's pipeline
    // stages into per-stage histograms (see docs/OBSERVABILITY.md).
    println!("\n== stage decomposition ==");
    println!(
        "{:>18}  {:>8}  {:>10}  {:>10}  {:>10}",
        "stage", "count", "p50", "p95", "p99"
    );
    for row in &report.stages {
        println!(
            "{:>18}  {:>8}  {:>10}  {:>10}  {:>10}",
            row.stage.to_string(),
            row.count,
            format!("{:.1?}", row.p50),
            format!("{:.1?}", row.p95),
            format!("{:.1?}", row.p99),
        );
    }

    // Multi-tenant serving: three models (three tenants) behind ONE
    // engine, each hot-swappable and withdrawable on its own. Requests
    // carry a ModelId; a worker's turn serves one tenant, so a batch
    // never mixes tenants and each resolves its own registry snapshot.
    println!("\n== multi-tenant serving ==");
    let sharded = Arc::new(ShardedRegistry::new());
    let tenants: Vec<ModelId> = (0..3)
        .map(|t| ModelId::new(format!("tenant-{t}")))
        .collect();
    // One edge pipeline per tenant, each on its own basis seed —
    // separate customers would never share an encoder basis in the
    // paper's threat model. The same edge trains and serves its tenant.
    let tenant_edges: Vec<ClientEdge> = (0..tenants.len())
        .map(|t| {
            ClientEdge::new(
                EncoderConfig::new(dataset.features(), dim).with_seed(100 + t as u64),
                ObfuscateConfig::new(QuantScheme::Bipolar).with_seed(9),
            )
        })
        .collect::<Result<_, _>>()?;
    for ((t, id), tenant_edge) in tenants.iter().enumerate().zip(&tenant_edges) {
        let mut m = HdModel::new(dataset.num_classes(), dim)?;
        for (x, y) in dataset.train_pairs() {
            m.bundle(y, &tenant_edge.encoder().encode(x)?)?;
        }
        let version = sharded.publish(id, m, &format!("{id}-v1"))?;
        println!("published {id} v{version} (seed {})", 100 + t);
    }

    let mt_engine = ServeEngine::start(
        Arc::clone(&sharded),
        ServeConfig {
            max_batch: 32,
            ..ServeConfig::default()
        },
    )?;
    // Round-robin traffic across tenants, each on its own basis.
    let mut mt_pending = Vec::new();
    for (i, x) in inputs.iter().enumerate() {
        let t = i % tenants.len();
        let query = tenant_edges[t].prepare(x)?;
        mt_pending.push(mt_engine.submit(&tenants[t], query)?);
    }
    for p in mt_pending {
        p.wait()?;
    }
    // The wire front-end: the same multi-tenant engine behind a real
    // TCP socket. Clients frame (ModelId, obfuscated query) requests —
    // packed bipolar payloads cost 1 bit per dimension on the wire —
    // and tenant-1 also registers a server-side edge so raw-features
    // frames run encode ∘ obfuscate on the host.
    println!("\n== wire front-end (loopback TCP) ==");
    let server = WireServer::start(
        "127.0.0.1:0",
        mt_engine.handle(),
        WireConfig::default().with_edge(tenants[1].clone(), tenant_edges[1].clone()),
    )?;
    println!("listening on {}", server.local_addr());
    let mut wire_client = WireClient::connect(server.local_addr())?;
    // Packed frame: the device obfuscates, bit-packs, ships ±1 signs.
    let prepared = tenant_edges[0].prepare(&inputs[0])?;
    let packed = BipolarHv::from_signs(prepared.as_slice());
    let served = wire_client.call_packed(&tenants[0], &packed)?;
    println!(
        "packed frame → {}: class {} (batch {}, {:?} server-side)",
        served.model, served.class, served.batch_size, served.latency
    );
    // Raw-features frame: the server-side edge prepares the query.
    let served = wire_client.call_raw(&tenants[1], &inputs[1])?;
    println!(
        "raw frame    → {}: class {} (v{})",
        served.model, served.class, served.model_version
    );
    drop(wire_client);
    println!("{}", server.shutdown());

    // One tenant is withdrawn mid-flight in real operations; here after
    // the burst, to show the others keep serving.
    sharded.withdraw(&tenants[2]);
    match mt_engine.predict_for(&tenants[2], tenant_edges[2].prepare(&inputs[0])?) {
        Err(ServeError::NoModel) => println!("{} withdrawn: NoModel as expected", tenants[2]),
        other => println!("unexpected post-withdraw outcome: {other:?}"),
    }
    let served = mt_engine.predict_for(&tenants[0], tenant_edges[0].prepare(&inputs[0])?)?;
    println!(
        "{} still serving (class {} from v{})",
        tenants[0], served.prediction.class, served.model_version
    );
    let mt_report = mt_engine.shutdown();
    println!("{mt_report}");

    // Throughput comparison: one-at-a-time submission vs micro-batching.
    let queries: Vec<Hypervector> = inputs
        .iter()
        .map(|x| edge.prepare(x))
        .collect::<Result<_, _>>()?;
    let serve_model = registry.get(&ModelId::default()).expect("model published");

    let start = Instant::now();
    for q in &queries {
        serve_model.model().predict(q)?;
    }
    let sequential = start.elapsed();

    let start = Instant::now();
    serve_model.model().predict_batch(&queries)?;
    let batched = start.elapsed();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nsingle-query: {:.0} q/s  |  micro-batched: {:.0} q/s  ({:.1}x on {cores} core(s); \
         the batched path scales with cores)",
        queries.len() as f64 / sequential.as_secs_f64(),
        queries.len() as f64 / batched.as_secs_f64(),
        sequential.as_secs_f64() / batched.as_secs_f64()
    );
    Ok(())
}
