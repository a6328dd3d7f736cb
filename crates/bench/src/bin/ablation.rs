//! Ablation studies for the design choices DESIGN.md §7 calls out.
//!
//! 1. **Classes full-precision vs classes quantized** — the Fig. 5(a)
//!    93.1%-vs-88.1% argument against prior work \[17\], plus the fully
//!    binary associative-memory extreme.
//! 2. **Plain bundling vs Eq. (5) retraining vs online
//!    similarity-weighted training** — how much the training rule
//!    matters before privacy even enters.
//! 3. **Gaussian (ℓ2) vs Laplace (ℓ1) mechanism** — the §III-B argument
//!    for (ε, δ)-DP: the ℓ1 sensitivity forces a catastrophically larger
//!    noise scale.
//! 4. **Least-effectual vs random pruning** (also available via
//!    `fig3 --random`).

use privehd_bench::report::{format_num, json_flag, print_table};
use privehd_bench::{Figure, Workbench};
use privehd_core::online::{train_online, OnlineConfig};
use privehd_core::prelude::*;
use privehd_data::surrogates;
use privehd_privacy::{GaussianMechanism, LaplaceMechanism, Mechanism, PrivacyBudget, Sensitivity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = json_flag();
    let dim = 8_000;
    let wb = Workbench::new(surrogates::isolet(30, 12, 0), dim, 1)?;

    class_quantization_ablation(&wb, dim, json)?;
    training_rule_ablation(&wb, dim)?;
    mechanism_ablation(&wb)?;
    Ok(())
}

/// Ablation 1: where the quantization is applied.
fn class_quantization_ablation(wb: &Workbench, dim: usize, json: bool) -> Result<(), HdError> {
    let mut fig = Figure::new(
        "ablation-classes",
        "quantize encodings only (Prive-HD) vs classes too ([17]) vs fully binary",
        "variant",
        "accuracy %",
    );
    // Queries are bipolar in every variant (the offloaded form).
    let test_q = wb.test_set_at(dim, QuantScheme::Bipolar);

    // (a) Prive-HD: bipolar encodings, full-precision classes.
    let prive = wb.model_at(dim, QuantScheme::Bipolar)?;
    let acc_prive = prive.accuracy(&test_q)?;
    fig.push("accuracy", 0.0, acc_prive * 100.0);

    // (b) Prior work: quantize the class hypervectors as well.
    let prior_scheme = QuantScheme::Bipolar;
    let mut prior = prive.clone();
    prior.quantize_classes(prior_scheme);
    let acc_prior = prior.accuracy(&test_q)?;
    fig.push("accuracy", 1.0, acc_prior * 100.0);

    // (c) Fully binary: the same ±1 classes scored on bit-packed
    // queries, which the plan runs as XOR + popcount.
    let mut correct = 0usize;
    for (q, label) in &test_q {
        let packed = BipolarHv::from_signs(q.as_slice());
        if prior.predict_packed(&packed)?.class == *label {
            correct += 1;
        }
    }
    let acc_binary = correct as f64 / test_q.len() as f64;
    fig.push("accuracy", 2.0, acc_binary * 100.0);

    let bits = |scheme: QuantScheme| scheme.bits().to_string();
    println!("-- where the quantization is applied (bipolar queries) --");
    print_table(&[
        vec![
            "variant".into(),
            "accuracy %".into(),
            "class bits/dim".into(),
        ],
        vec![
            "encodings only (Prive-HD)".into(),
            format!("{:.1}", acc_prive * 100.0),
            bits(QuantScheme::Full),
        ],
        vec![
            "classes too [17]".into(),
            format!("{:.1}", acc_prior * 100.0),
            bits(prior_scheme),
        ],
        vec![
            "fully binary".into(),
            format!("{:.1}", acc_binary * 100.0),
            bits(prior_scheme),
        ],
    ]);
    println!(
        "paper: 93.1% vs 88.1% — keeping classes full precision wins; \
         measured gap: {:.1}%\n",
        (acc_prive - acc_prior) * 100.0
    );
    fig.emit(json);
    Ok(())
}

/// Ablation 2: the training rule.
fn training_rule_ablation(wb: &Workbench, dim: usize) -> Result<(), HdError> {
    let train = wb.train_set_at(dim, QuantScheme::Full);
    let test = wb.test_set_at(dim, QuantScheme::Full);
    let classes = wb.dataset().num_classes();

    let bundled = HdModel::train(classes, dim, &train)?;
    let acc_bundled = bundled.accuracy(&test)?;

    let mut retrained = bundled.clone();
    retrained.retrain(&train, &RetrainConfig::default())?;
    let acc_retrained = retrained.accuracy(&test)?;

    let (online, _) = train_online(classes, dim, &train, &OnlineConfig::default())?;
    let acc_online = online.accuracy(&test)?;

    println!("-- training rule (full precision) --");
    print_table(&[
        vec!["rule".into(), "test accuracy %".into()],
        vec![
            "bundling (Eq. 3)".into(),
            format!("{:.1}", acc_bundled * 100.0),
        ],
        vec![
            "+ retraining (Eq. 5)".into(),
            format!("{:.1}", acc_retrained * 100.0),
        ],
        vec![
            "online (similarity-weighted)".into(),
            format!("{:.1}", acc_online * 100.0),
        ],
    ]);
    println!();
    Ok(())
}

/// Ablation 3: the mechanism family and its required noise scale.
fn mechanism_ablation(wb: &Workbench) -> Result<(), HdError> {
    let features = wb.dataset().features();
    let sens = Sensitivity::new(features, 10_000);
    let budget = PrivacyBudget::with_paper_delta(1.0).expect("paper delta is valid");
    let gaussian = GaussianMechanism::new(budget, 1);
    let laplace = LaplaceMechanism::new(1.0, 1);

    let g_scale = gaussian.noise_scale(sens.l2_full());
    let l_scale = laplace.noise_scale(sens.l1_full());
    println!("-- mechanism family at eps = 1 (full-precision encoding, 10k dims) --");
    print_table(&[
        vec![
            "mechanism".into(),
            "sensitivity".into(),
            "noise scale/dim".into(),
        ],
        vec![
            "Gaussian (l2, delta=1e-5)".into(),
            format_num(sens.l2_full()),
            format_num(g_scale),
        ],
        vec![
            "Laplace (l1, pure eps)".into(),
            format_num(sens.l1_full()),
            format_num(l_scale),
        ],
    ]);
    println!(
        "the l1 route needs a {:.0}x larger noise scale — the paper's reason \
         for targeting (eps, delta)-DP (§III-B)",
        l_scale / g_scale
    );
    Ok(())
}
