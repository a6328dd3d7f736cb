//! Integration tests for the serving subsystem, exercised through the
//! facade: (a) batched results are bit-identical to sequential
//! `predict`, (b) a mid-stream hot swap never drops or corrupts
//! in-flight requests, (c) obfuscated-query serving matches the direct
//! `Obfuscator` path, (d) one engine serves many tenants from a
//! `ShardedRegistry` — concurrent per-tenant hot swaps, cross-tenant
//! isolation, and per-tenant withdraw.

use std::sync::Arc;
use std::time::Duration;

use prive_hd::core::prelude::*;
use prive_hd::core::Hypervector;
use prive_hd::data::surrogates;
use prive_hd::serve::{ClientEdge, ModelId, ServeConfig, ServeEngine, ServeError, ShardedRegistry};

const DIM: usize = 2_048;
const SEED: u64 = 17;

/// Trains a model on an ISOLET-like surrogate and returns it with the
/// encoder (shared basis) and the raw test split.
fn trained_setup() -> (HdModel, ScalarEncoder, Vec<(Vec<f64>, usize)>) {
    let ds = surrogates::isolet(12, 6, 4);
    let encoder =
        ScalarEncoder::new(EncoderConfig::new(ds.features(), DIM).with_seed(SEED)).unwrap();
    let mut model = HdModel::new(ds.num_classes(), DIM).unwrap();
    for (x, y) in ds.train_pairs() {
        model.bundle(y, &encoder.encode(x).unwrap()).unwrap();
    }
    let test: Vec<(Vec<f64>, usize)> = ds.test_pairs().map(|(x, y)| (x.to_vec(), y)).collect();
    (model, encoder, test)
}

#[test]
fn batched_predictions_are_bit_identical_to_sequential() {
    let (model, encoder, test) = trained_setup();
    let queries: Vec<Hypervector> = test
        .iter()
        .map(|(x, _)| encoder.encode(x).unwrap())
        .collect();

    // Ground truth: plain sequential predict on the same weights.
    let sequential: Vec<Prediction> = queries.iter().map(|q| model.predict(q).unwrap()).collect();

    // The engine path (default config: dense arithmetic) is
    // bit-identical, even with many queries in flight at once.
    let registry = Arc::new(ShardedRegistry::with_model(model, "bitident").unwrap());
    let config = ServeConfig {
        max_batch: 16,
        workers: 4,
        queue_depth: 1_024,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(registry, config).unwrap();
    let pending: Vec<_> = queries
        .iter()
        .map(|q| engine.submit_default(q.clone()).unwrap())
        .collect();
    for (p, want) in pending.into_iter().zip(&sequential) {
        let served = p.wait().unwrap();
        assert_eq!(
            &served.prediction, want,
            "served result drifted from predict"
        );
        assert_eq!(served.model_version, 1);
    }
    let report = engine.shutdown();
    assert_eq!(report.completed as usize, queries.len());
    assert_eq!(report.failed, 0);
}

#[test]
fn hot_swap_mid_stream_drops_and_corrupts_nothing() {
    let (model_a, encoder, test) = trained_setup();
    // A second, deliberately different model: classes swapped by
    // retraining on permuted labels would be slow; negating the classes
    // is enough to make versions distinguishable.
    let model_b = {
        let classes: Vec<Hypervector> = model_a.classes().map(|c| -c.clone()).collect();
        HdModel::from_classes(classes).unwrap()
    };

    let queries: Vec<Hypervector> = test
        .iter()
        .cycle()
        .take(300)
        .map(|(x, _)| encoder.encode(x).unwrap())
        .collect();

    let registry = Arc::new(ShardedRegistry::with_model(model_a.clone(), "v1").unwrap());
    let config = ServeConfig {
        max_batch: 8,
        workers: 4,
        queue_depth: 2_048,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(Arc::clone(&registry), config).unwrap();

    // Client threads submit while the main thread keeps republishing.
    let mut clients = Vec::new();
    for t in 0..3 {
        let handle = engine.handle();
        let queries = queries.clone();
        clients.push(std::thread::spawn(move || {
            let mut results = Vec::new();
            for q in queries.iter().skip(t).step_by(3) {
                loop {
                    match handle.submit_default(q.clone()) {
                        Ok(p) => {
                            results.push((q.clone(), p.wait().expect("request dropped")));
                            break;
                        }
                        Err(ServeError::QueueFull) => std::thread::yield_now(),
                        Err(e) => panic!("submit failed: {e}"),
                    }
                }
            }
            results
        }));
    }

    let mut published = vec![1u64];
    for i in 0..20 {
        std::thread::sleep(Duration::from_millis(1));
        let (m, label) = if i % 2 == 0 {
            (model_b.clone(), "swap-to-b")
        } else {
            (model_a.clone(), "swap-to-a")
        };
        published.push(registry.publish(&ModelId::default(), m, label).unwrap());
    }

    let mut total = 0usize;
    for c in clients {
        for (query, served) in c.join().unwrap() {
            total += 1;
            // The reported version must be one that was actually
            // published…
            assert!(
                published.contains(&served.model_version),
                "unknown version {}",
                served.model_version
            );
            // …and the prediction must be exactly what that version's
            // weights produce: versions alternate A (odd) / B (even),
            // and B is A negated.
            let reference = if served.model_version % 2 == 1 {
                model_a.predict(&query).unwrap()
            } else {
                model_b.predict(&query).unwrap()
            };
            assert_eq!(
                served.prediction, reference,
                "version {} served a corrupted result",
                served.model_version
            );
        }
    }
    assert_eq!(total, 300, "requests were dropped");
    let report = engine.shutdown();
    assert_eq!(report.completed, 300);
    assert_eq!(report.failed, 0);
}

#[test]
fn obfuscated_serving_matches_direct_obfuscator_path() {
    let (model, _encoder, test) = trained_setup();
    // Edge pipeline on the same basis seed: quantize to bipolar and
    // mask 25% of dimensions, as in the paper's Fig. 6 configuration.
    let features = test[0].0.len();
    let edge = ClientEdge::new(
        EncoderConfig::new(features, DIM).with_seed(SEED),
        ObfuscateConfig::new(QuantScheme::Bipolar)
            .with_masked_dims(DIM / 4)
            .with_seed(11),
    )
    .unwrap();

    // Direct path: obfuscate locally, classify with plain predict.
    let direct: Vec<usize> = test
        .iter()
        .map(|(x, _)| model.predict(&edge.prepare(x).unwrap()).unwrap().class)
        .collect();
    let labels: Vec<usize> = test.iter().map(|(_, y)| *y).collect();
    let direct_accuracy =
        direct.iter().zip(&labels).filter(|(a, b)| a == b).count() as f64 / labels.len() as f64;
    assert!(
        direct_accuracy > 0.5,
        "obfuscated baseline unusable: {direct_accuracy}"
    );

    // Served path: masked queries contain zeros, which one bit cannot
    // carry, so they are submitted dense and take the dense route.
    let registry = Arc::new(ShardedRegistry::with_model(model, "obf").unwrap());
    let engine = ServeEngine::start(registry, ServeConfig::default()).unwrap();
    let pending: Vec<_> = test
        .iter()
        .map(|(x, _)| engine.submit_default(edge.prepare(x).unwrap()).unwrap())
        .collect();
    let served: Vec<usize> = pending
        .into_iter()
        .map(|p| p.wait().unwrap().prediction.class)
        .collect();
    engine.shutdown();

    assert_eq!(
        served, direct,
        "served obfuscated classes diverged from the direct Obfuscator path"
    );

    // Unmasked bipolar queries go packed and take the popcount route:
    // mathematically the same classifier as the dense path.
    let edge_unmasked = ClientEdge::new(
        EncoderConfig::new(features, DIM).with_seed(SEED),
        ObfuscateConfig::new(QuantScheme::Bipolar),
    )
    .unwrap();
    let (model2, _, _) = trained_setup();
    let registry2 = Arc::new(ShardedRegistry::with_model(model2.clone(), "obf2").unwrap());
    let engine2 = ServeEngine::start(registry2, ServeConfig::default()).unwrap();
    for (x, _) in test.iter().take(20) {
        let packed = edge_unmasked.prepare_packed(x).unwrap();
        let served = engine2.predict(packed).unwrap();
        let direct = model2.predict(&edge_unmasked.prepare(x).unwrap()).unwrap();
        assert_eq!(served.prediction.class, direct.class);
    }
    engine2.shutdown();
}

// ---------------------------------------------------------------------
// Multi-tenant serving: one engine, many models, per-model batching.
// ---------------------------------------------------------------------

/// A 2-class model of dimension `dim` whose all-positive query resolves
/// to `positive_class` — opposite layouts make tenants distinguishable
/// by their answers alone.
fn oriented(dim: usize, positive_class: usize) -> HdModel {
    let mut model = HdModel::new(2, dim).unwrap();
    model
        .bundle(positive_class, &Hypervector::from_vec(vec![1.0; dim]))
        .unwrap();
    model
        .bundle(1 - positive_class, &Hypervector::from_vec(vec![-1.0; dim]))
        .unwrap();
    model
}

fn ones(dim: usize) -> Hypervector {
    Hypervector::from_vec(vec![1.0; dim])
}

#[test]
fn three_tenants_share_one_engine_with_per_model_metrics() {
    // Three tenants with different dimensionalities AND different class
    // layouts behind a single engine: every answer must come from the
    // submitting tenant's own weights, and the report must break the
    // counters down per model.
    let registry = Arc::new(ShardedRegistry::new());
    let tenants = [
        (ModelId::new("tenant-a"), 128usize, 0usize),
        (ModelId::new("tenant-b"), 256, 1),
        (ModelId::new("tenant-c"), 512, 0),
    ];
    for (id, dim, positive_class) in &tenants {
        registry
            .publish(id, oriented(*dim, *positive_class), id.as_str())
            .unwrap();
    }
    let config = ServeConfig {
        max_batch: 8,
        workers: 2,
        queue_depth: 1_024,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(registry, config).unwrap();

    const PER_TENANT: usize = 30;
    let pending: Vec<_> = (0..PER_TENANT * tenants.len())
        .map(|i| {
            let (id, dim, _) = &tenants[i % tenants.len()];
            (i, engine.submit(id, ones(*dim)).unwrap())
        })
        .collect();
    for (i, p) in pending {
        let (id, _, positive_class) = &tenants[i % tenants.len()];
        let served = p.wait().unwrap();
        assert_eq!(&served.model, id, "request {i} answered by wrong tenant");
        assert_eq!(
            served.prediction.class, *positive_class,
            "request {i} served by wrong tenant weights"
        );
        assert_eq!(served.model_version, 1);
    }

    let report = engine.shutdown();
    assert_eq!(report.completed as usize, PER_TENANT * tenants.len());
    assert_eq!(report.failed, 0);
    assert_eq!(report.per_model.len(), tenants.len());
    for per in &report.per_model {
        assert_eq!(per.submitted as usize, PER_TENANT, "{}", per.model);
        assert_eq!(per.completed as usize, PER_TENANT, "{}", per.model);
        assert_eq!(per.failed, 0);
        assert!(per.p50_latency <= per.p99_latency);
    }
}

#[test]
fn concurrent_per_tenant_hot_swaps_complete_on_dispatch_version() {
    // Each tenant is republished mid-traffic (alternating between its
    // class layout and the negated layout). Every in-flight request must
    // complete on a version that was actually published for ITS tenant,
    // with exactly that version's weights.
    const DIM: usize = 256;
    let registry = Arc::new(ShardedRegistry::new());
    let ids: Vec<ModelId> = (0..3)
        .map(|t| ModelId::new(format!("tenant-{t}")))
        .collect();
    for id in &ids {
        // v1 = layout 0: all-positive query → class 0 (odd versions).
        registry.publish(id, oriented(DIM, 0), "v1").unwrap();
    }
    let config = ServeConfig {
        max_batch: 8,
        workers: 4,
        queue_depth: 2_048,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(Arc::clone(&registry), config).unwrap();

    const PER_TENANT: usize = 100;
    let mut clients = Vec::new();
    for id in &ids {
        let handle = engine.handle();
        let id = id.clone();
        clients.push(std::thread::spawn(move || {
            let mut results = Vec::new();
            for _ in 0..PER_TENANT {
                loop {
                    match handle.submit(&id, ones(DIM)) {
                        Ok(p) => {
                            results.push(p.wait().expect("request dropped"));
                            break;
                        }
                        Err(ServeError::QueueFull) => std::thread::yield_now(),
                        Err(e) => panic!("submit failed: {e}"),
                    }
                }
            }
            results
        }));
    }

    // Concurrent publishers: each tenant swaps its own model 10 times
    // while the traffic runs. Odd versions → layout 0, even → layout 1.
    let mut publishers = Vec::new();
    for id in &ids {
        let registry = Arc::clone(&registry);
        let id = id.clone();
        publishers.push(std::thread::spawn(move || {
            let mut published = vec![1u64];
            for i in 0..10u64 {
                std::thread::sleep(Duration::from_millis(1));
                let layout = usize::from(i % 2 == 0); // v2 even → layout 1
                let v = registry
                    .publish(&id, oriented(DIM, layout), "swap")
                    .unwrap();
                published.push(v);
            }
            (id, published)
        }));
    }
    let published: Vec<(ModelId, Vec<u64>)> =
        publishers.into_iter().map(|p| p.join().unwrap()).collect();

    for (client, id) in clients.into_iter().zip(&ids) {
        let versions = &published.iter().find(|(pid, _)| pid == id).unwrap().1;
        for served in client.join().unwrap() {
            assert_eq!(&served.model, id);
            assert!(
                versions.contains(&served.model_version),
                "tenant {id} served unknown version {}",
                served.model_version
            );
            // Odd versions carry layout 0, even versions layout 1; the
            // answer must match the version the batch dispatched on.
            let want = usize::from(served.model_version % 2 == 0);
            assert_eq!(
                served.prediction.class, want,
                "tenant {id} version {} served the other version's weights",
                served.model_version
            );
        }
    }
    let report = engine.shutdown();
    assert_eq!(report.completed as usize, PER_TENANT * ids.len());
    assert_eq!(report.failed, 0);
    // Every tenant ends on version 11 after 10 swaps.
    for id in &ids {
        assert_eq!(registry.version(id), 11);
    }
}

#[test]
fn cross_tenant_isolation_bad_queries_fail_only_their_tenant() {
    const DIM: usize = 128;
    let registry = Arc::new(ShardedRegistry::new());
    let good = ModelId::new("good");
    let victim = ModelId::new("victim");
    registry
        .publish(&good, oriented(DIM, 0), "good-v1")
        .unwrap();
    registry
        .publish(&victim, oriented(DIM, 0), "victim-v1")
        .unwrap();
    let config = ServeConfig {
        max_batch: 8,
        workers: 2,
        queue_depth: 1_024,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(registry, config).unwrap();

    // Interleave: the victim tenant's clients send wrong-dimension
    // queries; the good tenant's clients stay well-formed.
    const N: usize = 40;
    let pending: Vec<_> = (0..2 * N)
        .map(|i| {
            if i % 2 == 0 {
                (true, engine.submit(&good, ones(DIM)).unwrap())
            } else {
                (false, engine.submit(&victim, ones(DIM / 2)).unwrap())
            }
        })
        .collect();
    for (is_good, p) in pending {
        if is_good {
            let served = p.wait().unwrap();
            assert_eq!(served.model, good);
            assert_eq!(served.prediction.class, 0);
        } else {
            assert!(matches!(p.wait().unwrap_err(), ServeError::Model(_)));
        }
    }

    let report = engine.shutdown();
    assert_eq!(report.completed as usize, N);
    assert_eq!(report.failed as usize, N);
    let good_row = report
        .per_model
        .iter()
        .find(|m| m.model == good)
        .expect("good tenant in report");
    let victim_row = report
        .per_model
        .iter()
        .find(|m| m.model == victim)
        .expect("victim tenant in report");
    assert_eq!((good_row.completed as usize, good_row.failed), (N, 0));
    assert_eq!((victim_row.completed, victim_row.failed as usize), (0, N));
}

#[test]
fn withdraw_of_one_tenant_leaves_others_serving() {
    const DIM: usize = 128;
    let registry = Arc::new(ShardedRegistry::new());
    let keep_a = ModelId::new("keep-a");
    let keep_b = ModelId::new("keep-b");
    let gone = ModelId::new("gone");
    for id in [&keep_a, &keep_b, &gone] {
        registry.publish(id, oriented(DIM, 0), id.as_str()).unwrap();
    }
    let engine = ServeEngine::start(Arc::clone(&registry), ServeConfig::default()).unwrap();

    // All three serve initially.
    for id in [&keep_a, &keep_b, &gone] {
        assert_eq!(
            engine.predict_for(id, ones(DIM)).unwrap().prediction.class,
            0
        );
    }

    let taken = registry.withdraw(&gone).expect("was live");
    assert_eq!(taken.version, 1);
    assert_eq!(registry.len(), 2);

    // The withdrawn tenant now reports NoModel; the others still serve.
    assert_eq!(
        engine.predict_for(&gone, ones(DIM)).unwrap_err(),
        ServeError::NoModel
    );
    for id in [&keep_a, &keep_b] {
        assert_eq!(
            engine.predict_for(id, ones(DIM)).unwrap().prediction.class,
            0
        );
    }

    // Republishing resumes service on the next version.
    assert_eq!(registry.publish(&gone, oriented(DIM, 1), "v2").unwrap(), 2);
    let served = engine.predict_for(&gone, ones(DIM)).unwrap();
    assert_eq!(served.model_version, 2);
    assert_eq!(served.prediction.class, 1);
    engine.shutdown();
}
