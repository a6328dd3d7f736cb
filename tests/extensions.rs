//! Integration tests of the extension features: prior-work baselines,
//! online training, privacy accounting, CSV interchange, the structural
//! FPGA model and the Verilog generator.

use prive_hd::core::prelude::*;
use prive_hd::core::Hypervector;
use prive_hd::data::{io, surrogates};
use prive_hd::hw::design::FpgaDesign;
use prive_hd::hw::perf::Workload;
use prive_hd::hw::verilog;
use prive_hd::privacy::{PrivacyAccountant, PrivacyBudget};

type EncodedSplit = Vec<(Hypervector, usize)>;

fn encoded_task(dim: usize) -> (EncodedSplit, EncodedSplit, usize) {
    let ds = surrogates::face(40, 20, 9);
    let enc = ScalarEncoder::new(
        EncoderConfig::new(ds.features(), dim)
            .with_levels(100)
            .with_seed(2),
    )
    .expect("valid config");
    let encode = |samples: &[prive_hd::data::Sample]| {
        samples
            .iter()
            .map(|s| (enc.encode(&s.features).expect("encode"), s.label))
            .collect::<Vec<_>>()
    };
    (encode(ds.train()), encode(ds.test()), ds.num_classes())
}

#[test]
fn full_precision_classes_beat_the_prior_work_baseline() {
    // The Fig. 5(a) comparison: Prive-HD keeps classes full precision.
    let (train, test, classes) = encoded_task(6_000);
    let train_q: Vec<_> = train
        .iter()
        .map(|(h, y)| (QuantScheme::Bipolar.quantize_adaptive(h), *y))
        .collect();
    let test_q: Vec<_> = test
        .iter()
        .map(|(h, y)| (QuantScheme::Bipolar.quantize_adaptive(h), *y))
        .collect();
    let prive = HdModel::train(classes, 6_000, &train_q).expect("train");
    let mut prior = prive.clone();
    prior.quantize_classes(QuantScheme::Bipolar);
    let acc_prive = prive.accuracy(&test_q).expect("accuracy");
    let acc_prior = prior.accuracy(&test_q).expect("accuracy");
    assert!(
        acc_prive >= acc_prior,
        "full-precision classes {acc_prive} vs quantized classes {acc_prior}"
    );
    // Fully binary: the same ±1 classes scored on bit-packed queries.
    let binary_correct = test_q
        .iter()
        .filter(|(q, y)| {
            let packed = BipolarHv::from_signs(q.as_slice());
            prior.predict_packed(&packed).expect("predict").class == *y
        })
        .count();
    let acc_binary = binary_correct as f64 / test_q.len() as f64;
    assert!(acc_binary <= acc_prive + 1e-9);
}

#[test]
fn online_training_is_compatible_with_obfuscated_queries() {
    let (train, test, classes) = encoded_task(4_000);
    let (model, report) =
        train_online(classes, 4_000, &train, &OnlineConfig::default()).expect("online");
    assert!(report.final_accuracy() > 0.8);
    let ob = Obfuscator::new(
        4_000,
        ObfuscateConfig::new(QuantScheme::Bipolar)
            .with_masked_dims(1_000)
            .with_seed(3),
    )
    .expect("valid obfuscator");
    let obf: Vec<_> = test
        .iter()
        .map(|(h, y)| (ob.obfuscate(h).expect("obfuscate"), *y))
        .collect();
    let acc = model.accuracy(&obf).expect("accuracy");
    assert!(acc > 0.7, "online + obfuscation accuracy {acc}");
}

#[test]
fn accountant_tracks_a_fig8_style_sweep() {
    // Fig. 8 releases one model per (ε, dims) grid point; the ledger
    // reports what the whole sweep actually spent.
    let mut ledger = PrivacyAccountant::new();
    for _ in 0..10 {
        ledger.spend(PrivacyBudget::with_paper_delta(1.0).expect("budget"));
    }
    let (eps, delta) = ledger.basic_composition();
    assert_eq!(eps, 10.0);
    assert!((delta - 1e-4).abs() < 1e-12);
    // Advanced composition with slack 1e-6 is tighter for ε = 1? No —
    // ε = 1 is large; basic wins and best_bound says so.
    let (best_eps, _) = ledger.best_bound(1e-6);
    assert!(best_eps <= 10.0 + 1e-9);
}

#[test]
fn csv_round_trip_feeds_the_training_pipeline() {
    // Export a surrogate, re-import it as if it were a real corpus, and
    // train on the result.
    let ds = surrogates::face(10, 5, 4);
    let mut train_buf = Vec::new();
    let mut test_buf = Vec::new();
    io::split_to_csv(ds.train(), &mut train_buf).expect("export train");
    io::split_to_csv(ds.test(), &mut test_buf).expect("export test");
    let reloaded = io::dataset_from_csv("face-from-csv", train_buf.as_slice(), test_buf.as_slice())
        .expect("import");
    assert_eq!(reloaded.features(), ds.features());
    assert_eq!(reloaded.num_classes(), ds.num_classes());

    let enc = ScalarEncoder::new(EncoderConfig::new(reloaded.features(), 1_024).with_seed(5))
        .expect("valid config");
    let train: Vec<_> = reloaded
        .train_pairs()
        .map(|(x, y)| (enc.encode(x).expect("encode"), y))
        .collect();
    let model = HdModel::train(reloaded.num_classes(), 1_024, &train).expect("train");
    assert!(model.accuracy(&train).expect("accuracy") > 0.8);
}

#[test]
fn structural_fpga_model_is_consistent_with_resource_savings() {
    let design = FpgaDesign::kintex7_325t();
    for w in Workload::paper_benchmarks() {
        let exact = design.throughput(&w, QuantScheme::Bipolar, false);
        let approx = design.throughput(&w, QuantScheme::Bipolar, true);
        // The 24/7 pipeline multiplier shows up as ≥2x throughput after
        // ceil() quantization of cycles.
        assert!(approx >= 2.0 * exact, "{}: {approx} vs {exact}", w.name);
    }
}

#[test]
fn generated_verilog_covers_all_input_bits() {
    let rtl = verilog::majority_pipeline("dim", 617, true);
    // Every input bit index must appear exactly once across LUT pins and
    // the tail popcount.
    for j in 0..617 {
        let needle = format!("bits[{j}]");
        assert!(rtl.contains(&needle), "bit {j} unused in generated RTL");
    }
    // Top-level instantiation slices the flat bus correctly.
    let top = verilog::encoder_top("enc", 617, 2, true);
    assert!(top.contains("bits[i*617 +: 617]"));
}
