//! The compiled-plan contract, end to end: after a model is published
//! (and a `ClientEdge` constructed), serving requests performs **zero**
//! per-call obfuscation-permutation builds and **zero** plan compiles —
//! every such decision happened once, up front.
//!
//! Permutation builds are read from the process-global
//! `privehd_core::obfuscate::permutation_build_count()` (bumped by every
//! `Obfuscator::new`). Cargo runs every `#[test]` in one binary as
//! threads of one process, so this file holds exactly one test: nothing
//! else may build obfuscators inside the audited window. Plan compiles
//! are audited by identity: the served `ModelPlan` must be the same
//! allocation before and after the requests, and a new one after a
//! republish.

use std::ptr;
use std::sync::Arc;

use privehd_core::obfuscate::permutation_build_count;
use privehd_core::{
    BipolarHv, Encoder, EncoderConfig, HdModel, ObfuscateConfig, Prediction, QuantScheme,
};
use privehd_serve::{ClientEdge, ModelId, ServeConfig, ServeEngine, ShardedRegistry};

// Off a 64-bit word boundary so the masked keep-table and the popcount
// scorer both exercise tail-bit handling.
const DIM: usize = 300;
const FEATURES: usize = 6;
const MASKED: usize = 60;
const QUERIES: usize = 24;

#[test]
fn served_requests_build_no_permutations_and_probe_no_kernels() {
    // Edge side: constructing the edge builds the obfuscation
    // permutation (counted) and compiles the encode∘obfuscate plan.
    let edge = ClientEdge::new(
        EncoderConfig::new(FEATURES, DIM).with_seed(7),
        ObfuscateConfig::new(QuantScheme::Bipolar)
            .with_masked_dims(MASKED)
            .with_seed(3),
    )
    .unwrap();

    // Host side: train on the same basis and publish — publish compiles
    // the ModelPlan, before the audited window.
    let mut model = HdModel::new(2, DIM).unwrap();
    for i in 0..6 {
        let t = i as f64 / 30.0;
        let a = vec![0.1 + t, 0.2, 0.15, 0.9 - t, 0.8, 0.85];
        let b = vec![0.9 - t, 0.8, 0.85, 0.1 + t, 0.2, 0.15];
        model
            .bundle(0, &edge.encoder().encode(&a).unwrap())
            .unwrap();
        model
            .bundle(1, &edge.encoder().encode(&b).unwrap())
            .unwrap();
    }
    let registry = Arc::new(ShardedRegistry::with_model(model, "plan-v1").unwrap());

    let engine = ServeEngine::start(Arc::clone(&registry), ServeConfig::default()).unwrap();
    let served_model = registry.get(&ModelId::default()).unwrap();

    // Inputs and their expected predictions, computed directly on the
    // published model BEFORE the window opens.
    let inputs: Vec<Vec<f64>> = (0..QUERIES)
        .map(|i| {
            (0..FEATURES)
                .map(|k| ((5 * i + 3 * k) % 11) as f64 / 10.0)
                .collect()
        })
        .collect();
    let prepared: Vec<_> = inputs.iter().map(|x| edge.prepare(x).unwrap()).collect();
    let expected_dense: Vec<Prediction> = prepared
        .iter()
        .map(|q| served_model.model().predict(q).unwrap())
        .collect();
    let packed: Vec<BipolarHv> = (0..QUERIES)
        .map(|s| BipolarHv::random(DIM, 500 + s as u64))
        .collect();
    let expected_packed: Vec<Prediction> = packed
        .iter()
        .map(|q| served_model.model().predict_packed(q).unwrap())
        .collect();

    // ---- audited window opens ----
    let permutations = permutation_build_count();

    for (x, want) in inputs.iter().zip(&expected_dense) {
        // Edge preparation runs the compiled EncodePlan: no permutation
        // rebuild per call.
        let q = edge.prepare(x).unwrap();
        let served = engine.predict(q).unwrap();
        assert_eq!(&served.prediction, want, "compiled plan drifted (dense)");
    }
    for (q, want) in packed.iter().zip(&expected_packed) {
        let served = engine.predict(q.clone()).unwrap();
        assert_eq!(&served.prediction, want, "compiled plan drifted (packed)");
    }

    assert_eq!(
        permutation_build_count(),
        permutations,
        "a served request rebuilt an obfuscation permutation"
    );
    let live = registry.get(&ModelId::default()).unwrap();
    assert!(
        ptr::eq(live.plan(), served_model.plan()),
        "a served request recompiled the plan"
    );
    // ---- audited window closes ----

    // A republish swaps in a new plan (the old snapshot is still held,
    // so its allocation cannot be reused), and serving keeps it.
    let mut model2 = HdModel::new(2, DIM).unwrap();
    model2
        .bundle(0, &edge.prepare(&inputs[0]).unwrap())
        .unwrap();
    model2
        .bundle(1, &edge.prepare(&inputs[1]).unwrap())
        .unwrap();
    registry
        .publish(&ModelId::default(), model2, "plan-v2")
        .unwrap();
    let swapped = registry.get(&ModelId::default()).unwrap();
    assert!(
        !ptr::eq(swapped.plan(), served_model.plan()),
        "republish must swap in a new plan"
    );
    let q = edge.prepare(&inputs[2]).unwrap();
    let want = swapped.model().predict(&q).unwrap();
    assert_eq!(
        engine.predict(q).unwrap().prediction,
        want,
        "compiled plan drifted (post-swap)"
    );
    let live = registry.get(&ModelId::default()).unwrap();
    assert!(
        ptr::eq(live.plan(), swapped.plan()),
        "post-swap serving recompiled the plan"
    );

    let report = engine.shutdown();
    assert_eq!(report.failed, 0);
}
