//! `perfsuite` — kernel-vs-reference speedup measurements.
//!
//! It times the tuned `privehd_core::kernels` paths against the
//! retained naive reference implementations at the paper's operating
//! point (ISOLET: `D_iv = 617`, `D_hv = 10 000`,
//! `ℓ_iv = 100`, 26 classes), single-threaded, and writes the results
//! to `BENCH_kernels.json`. The `plan_compile_encode_obfuscate` row
//! gates the fused encode∘obfuscate pass of `privehd_core::plan`
//! against the generic composition it replaces. The ungated
//! `predict_packed_float_rows` row times the plan's row-grouped packed
//! scoring over float class rows against the one-class-at-a-time loop,
//! the ungated `predict_packed_float_rows_block` row a block of 16
//! packed queries through `ModelPlan::predict_packed_batch` against the
//! same 16 through `predict_packed`, and the ungated
//! `scalar_encode_packed` row the fused encode-to-packed kernel against
//! reference encode, bipolar quantization and packing. The serving
//! stack's end-to-end benchmark is `perfbench/`, not this binary.
//!
//! Usage:
//!
//! ```text
//! perfsuite [--quick] [--out PATH] [--check] [--floor-scale F]
//! ```
//!
//! `--quick` shrinks sample counts and the batch size for CI smoke runs;
//! `--out` overrides the output path (default `BENCH_kernels.json` in
//! the working directory);
//! `--check` exits non-zero when a kernel speedup floor is missed;
//! `--floor-scale` multiplies the floors before checking (CI uses `0.5`
//! so shared-runner noise cannot flake the gate while catastrophic
//! regressions still fail).

use std::time::Instant;

use privehd_bench::print_table;
use privehd_core::kernels::{dot_sign_dense, scalar_encode_packed};
use privehd_core::{
    BipolarHv, ClassMatrix, EncodePlan, Encoder, EncoderConfig, HdModel, Hypervector, LevelEncoder,
    ObfuscateConfig, Obfuscator, QuantScheme, ScalarEncoder,
};

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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_kernels.json", |s| s.as_str());
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

    // --- Packed scalar encode: the fused Eq. (2a) + bipolar kernel a
    //     client runs for every 1-bit/dim wire query, vs the reference
    //     encode, then bipolar quantization, then packing. Ungated: no
    //     trajectory exists to set a floor yet. --------------------------
    let kernel = time_per_item(samples, encode_items, || {
        for x in &encode_inputs {
            std::hint::black_box(
                scalar_encode_packed(scalar.item_memory_transposed(), x, LEVELS).expect("finite"),
            );
        }
    });
    let reference = time_per_item(samples, encode_items, || {
        for x in &encode_inputs {
            let h = scalar.encode_reference(x).expect("encode");
            let signs = QuantScheme::Bipolar.quantize(&h, 1.0);
            std::hint::black_box(BipolarHv::from_signs(signs.as_slice()));
        }
    });
    results.push(Comparison {
        name: "scalar_encode_packed",
        unit: "encode",
        reference,
        kernel,
        threshold: None,
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

    // --- Dense predict: the plan's tiled one-query pass vs naive loop -
    let query_inputs = feature_vectors(batch, FEATURES, 2);
    let queries: Vec<Hypervector> = query_inputs
        .iter()
        .map(|x| scalar.encode(x).expect("encode"))
        .collect();
    let mut model = HdModel::new(CLASSES, DIM).expect("valid model");
    for (i, q) in queries.iter().enumerate() {
        model.bundle(i % CLASSES, q).expect("bundle");
    }
    model.plan();

    let kernel = time_per_item(samples, batch, || {
        for q in &queries {
            std::hint::black_box(model.predict(q).expect("predict"));
        }
    });
    let reference = time_per_item(samples, batch, || {
        for q in &queries {
            std::hint::black_box(model.predict_reference(q).expect("predict"));
        }
    });
    results.push(Comparison {
        name: "predict_dense",
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
        plan.packed_memory_bytes().is_none(),
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

    // --- A block of packed queries against the same float rows: 16
    //     queries through the plan's column-tiled block pass
    //     (`predict_packed_batch`, one read of the matrix per block) vs
    //     the same 16 through `predict_packed` one at a time. Every
    //     score is bit-identical. Ungated: no trajectory exists to set a
    //     floor yet. ----------------------------------------------------
    let block: Vec<&BipolarHv> = packed.iter().take(16).collect();
    let kernel = time_per_item(samples, block.len(), || {
        std::hint::black_box(plan.predict_packed_batch(&block));
    });
    let reference = time_per_item(samples, block.len(), || {
        for q in &block {
            std::hint::black_box(plan.predict_packed(q).expect("predict"));
        }
    });
    results.push(Comparison {
        name: "predict_packed_float_rows_block",
        unit: "query",
        reference,
        kernel,
        threshold: None,
    });

    // --- Packed-native predict: popcount scoring on the sign-quantized
    //     model vs densify-at-submit feeding the tuned dense predict.
    //     Both arms classify the same bit-packed wire queries
    //     against the same class memory; the reference arm pays the
    //     `to_dense()` conversion *inside* the timed region because
    //     that is exactly what a server densifying at submit pays per
    //     request. --------------------------------------------------
    let mut packed_model = model.clone();
    packed_model.quantize_classes(QuantScheme::Bipolar);
    assert!(
        packed_model.plan().packed_memory_bytes().is_some(),
        "bipolar class quantization must yield a packable model"
    );
    let kernel = time_per_item(samples, packed.len(), || {
        for q in &packed {
            std::hint::black_box(packed_model.predict_packed(q).expect("predict"));
        }
    });
    let reference = time_per_item(samples, packed.len(), || {
        for q in &packed {
            std::hint::black_box(packed_model.predict(&q.to_dense()).expect("predict"));
        }
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
    let encode_plan =
        EncodePlan::from_obfuscator(&scalar, &obfuscator).expect("obfuscator sized to the encoder");
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
