//! Property-based tests for the HD substrate: algebraic invariants of
//! hypervector operations, quantization, pruning and decoding.

use proptest::prelude::*;

use privehd_core::prelude::*;
use privehd_core::{Encoder, Hypervector};

/// `got` scores within 1e-9 of `want`, with the same winner unless
/// `want`'s top two scores are closer than that.
fn assert_close(got: &Prediction, want: &Prediction) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.scores.len(), want.scores.len());
    for (a, b) in got.scores.iter().zip(&want.scores) {
        prop_assert!(a == b || (a - b).abs() < 1e-9, "{} vs {}", a, b);
    }
    if want.margin() > 1e-9 {
        prop_assert_eq!(got.class, want.class);
    }
    Ok(())
}

/// `kernels::dot_sign_dense`'s summation order, written out: element
/// `j` (negated where the query bit is clear) joins lane `j mod 4`, and
/// the lanes reduce as `(l0 + l1) + (l2 + l3)`.
fn sign_dot_in_kernel_order(words: &[u64], values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    for (j, &v) in values.iter().enumerate() {
        let positive = words[j / 64] >> (j % 64) & 1 == 1;
        lanes[j % 4] += if positive { v } else { -v };
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// `kernels::dot_unrolled`'s summation order, written out: products
/// join lane `j mod 4` up to the last whole quad, the rest fold into a
/// sequential tail, and the result is `(l0 + l1) + (l2 + l3) + tail`.
fn dense_dot_in_kernel_order(a: &[f64], b: &[f64]) -> f64 {
    let quads = a.len() - a.len() % 4;
    let mut lanes = [0.0f64; 4];
    for j in 0..quads {
        lanes[j % 4] += a[j] * b[j];
    }
    let mut tail = 0.0;
    for j in quads..a.len() {
        tail += a[j] * b[j];
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

fn dense_hv(dim: usize) -> impl Strategy<Value = Hypervector> {
    prop::collection::vec(-100.0f64..100.0, dim).prop_map(Hypervector::from_vec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- Hypervector algebra ------------------------------------------

    #[test]
    fn cosine_is_bounded_and_symmetric(a in dense_hv(64), b in dense_hv(64)) {
        prop_assume!(a.l2_norm() > 1e-9 && b.l2_norm() > 1e-9);
        let ab = a.cosine(&b).unwrap();
        let ba = b.cosine(&a).unwrap();
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn dot_is_bilinear(a in dense_hv(32), b in dense_hv(32), c in dense_hv(32), k in -5.0f64..5.0) {
        // <a + k·b, c> = <a,c> + k·<b,c>
        let mut akb = a.clone();
        akb.add_scaled(&b, k).unwrap();
        let lhs = akb.dot(&c).unwrap();
        let rhs = a.dot(&c).unwrap() + k * b.dot(&c).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + lhs.abs()));
    }

    #[test]
    fn l2_norm_triangle_inequality(a in dense_hv(48), b in dense_hv(48)) {
        let sum = a.clone() + b.clone();
        prop_assert!(sum.l2_norm() <= a.l2_norm() + b.l2_norm() + 1e-9);
    }

    #[test]
    fn l1_dominates_l2(a in dense_hv(48)) {
        prop_assert!(a.l1_norm() + 1e-9 >= a.l2_norm());
    }

    // --- Bipolar hypervectors -----------------------------------------

    #[test]
    fn bind_is_commutative_and_self_inverse(seed1 in 0u64..1_000, seed2 in 0u64..1_000, dim in 1usize..300) {
        let a = BipolarHv::random(dim, seed1);
        let b = BipolarHv::random(dim, seed2);
        prop_assert_eq!(a.bind(&b).unwrap(), b.bind(&a).unwrap());
        prop_assert_eq!(&a.bind(&b).unwrap().bind(&b).unwrap(), &a);
    }

    #[test]
    fn hamming_dot_identity(seed1 in 0u64..1_000, seed2 in 0u64..1_000, dim in 1usize..300) {
        let a = BipolarHv::random(dim, seed1);
        let b = BipolarHv::random(dim, seed2);
        let h = a.hamming(&b).unwrap();
        prop_assert_eq!(a.dot(&b).unwrap(), dim as i64 - 2 * h as i64);
        prop_assert!(h <= dim);
    }

    #[test]
    fn dot_dense_matches_naive(seed in 0u64..1_000, values in prop::collection::vec(-10.0f64..10.0, 1..200)) {
        let dim = values.len();
        let b = BipolarHv::random(dim, seed);
        let h = Hypervector::from_vec(values);
        let naive: f64 = (0..dim).map(|j| b.sign(j) * h[j]).sum();
        prop_assert!((b.dot_dense(&h).unwrap() - naive).abs() < 1e-9);
    }

    // --- Quantization ---------------------------------------------------

    #[test]
    fn quantized_values_stay_in_alphabet(a in dense_hv(128), sigma in 0.1f64..50.0) {
        for scheme in [QuantScheme::Bipolar, QuantScheme::Ternary, QuantScheme::TernaryBiased, QuantScheme::TwoBit] {
            let q = scheme.quantize(&a, sigma);
            for &v in q.as_slice() {
                prop_assert!(scheme.alphabet().contains(&v), "{scheme}: {v}");
            }
        }
    }

    #[test]
    fn quantization_is_odd_for_symmetric_schemes(a in dense_hv(64), sigma in 0.1f64..50.0) {
        // q(-x) == -q(x) for ternary schemes (bipolar breaks at exactly 0).
        for scheme in [QuantScheme::Ternary, QuantScheme::TernaryBiased] {
            let q_pos = scheme.quantize(&a, sigma);
            let q_neg = scheme.quantize(&(-a.clone()), sigma);
            for (p, n) in q_pos.as_slice().iter().zip(q_neg.as_slice()) {
                prop_assert!((p + n).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn quantization_preserves_strong_signs(a in dense_hv(64)) {
        // Any component beyond every threshold keeps its sign under all
        // schemes (with sigma = 1, the largest threshold is < 0.7).
        let q = QuantScheme::Ternary.quantize(&a, 1.0);
        for (orig, quant) in a.as_slice().iter().zip(q.as_slice()) {
            if orig.abs() > 1.0 {
                prop_assert_eq!(orig.signum(), quant.signum());
            }
        }
    }

    // --- Pruning ---------------------------------------------------------

    #[test]
    fn prune_mask_kept_plus_pruned_is_dim(dim in 1usize..200, frac in 0.0f64..0.99) {
        let pruned: Vec<usize> = (0..((dim as f64 * frac) as usize)).collect();
        let mask = PruneMask::from_pruned_indices(dim, &pruned).unwrap();
        prop_assert_eq!(mask.kept() + mask.pruned(), dim);
    }

    #[test]
    fn masking_is_idempotent(a in dense_hv(64), frac in 0.0f64..0.9) {
        let pruned: Vec<usize> = (0..((64.0 * frac) as usize)).collect();
        let mask = PruneMask::from_pruned_indices(64, &pruned).unwrap();
        let mut once = a.clone();
        mask.apply(&mut once).unwrap();
        let mut twice = once.clone();
        mask.apply(&mut twice).unwrap();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn masking_never_increases_norms(a in dense_hv(64), frac in 0.0f64..0.9) {
        let pruned: Vec<usize> = (0..((64.0 * frac) as usize)).collect();
        let mask = PruneMask::from_pruned_indices(64, &pruned).unwrap();
        let mut m = a.clone();
        mask.apply(&mut m).unwrap();
        prop_assert!(m.l2_norm() <= a.l2_norm() + 1e-12);
        prop_assert!(m.l1_norm() <= a.l1_norm() + 1e-12);
    }

    // --- Encoding / decoding ---------------------------------------------

    #[test]
    fn encoding_is_deterministic(values in prop::collection::vec(0.0f64..1.0, 4..24), seed in 0u64..100) {
        let enc = ScalarEncoder::new(
            EncoderConfig::new(values.len(), 256).with_seed(seed),
        ).unwrap();
        prop_assert_eq!(enc.encode(&values).unwrap(), enc.encode(&values).unwrap());
    }

    #[test]
    fn encoding_is_linear_in_bundling(x in prop::collection::vec(0.0f64..1.0, 8), y in prop::collection::vec(0.0f64..1.0, 8)) {
        // encode(x) + encode(y) equals bundling the two encodings —
        // the linearity that makes Eq. (3) training well-defined.
        let enc = ScalarEncoder::new(EncoderConfig::new(8, 128).with_seed(3)).unwrap();
        let hx = enc.encode(&x).unwrap();
        let hy = enc.encode(&y).unwrap();
        let bundle = hx.clone() + hy.clone();
        for j in 0..128 {
            prop_assert!((bundle[j] - (hx[j] + hy[j])).abs() < 1e-12);
        }
    }

    #[test]
    fn decode_inverts_encode_with_bounded_error(values in prop::collection::vec(0.0f64..1.0, 4..16)) {
        // Eq. 10: reconstruction error shrinks as D_hv grows; at 8192
        // dims and few features it is small for every input.
        let enc = ScalarEncoder::new(
            EncoderConfig::new(values.len(), 8_192).with_levels(256).with_seed(11),
        ).unwrap();
        let snapped: Vec<f64> = values.iter().map(|&v| enc.snap_to_level(v)).collect();
        let h = enc.encode(&values).unwrap();
        let rec = Decoder::new(enc.item_memory().clone()).decode(&h).unwrap();
        let err = mse(&snapped, rec.features()).unwrap();
        prop_assert!(err < 0.05, "mse = {err}");
    }

    // --- Kernel ↔ reference parity ---------------------------------------
    //
    // The tuned paths of `privehd_core::kernels` must agree with the
    // retained naive implementations: bit-exactly where the arithmetic
    // is integer (level encode), and within 1e-9 absolute where only
    // floating-point summation order differs (scalar encode, dots).
    // Dimensions are drawn around word boundaries on purpose so the
    // tail-word masking is always exercised.

    #[test]
    fn scalar_encode_kernel_matches_reference(
        values in prop::collection::vec(0.0f64..1.0, 1..40),
        dim in 1usize..200,
        levels in 2usize..300,
        seed in 0u64..50,
    ) {
        let enc = ScalarEncoder::new(
            EncoderConfig::new(values.len(), dim).with_levels(levels).with_seed(seed),
        ).unwrap();
        let fast = enc.encode(&values).unwrap();
        let naive = enc.encode_reference(&values).unwrap();
        prop_assert_eq!(fast.dim(), naive.dim());
        for j in 0..dim {
            prop_assert!((fast[j] - naive[j]).abs() < 1e-9, "dim {}: {} vs {}", j, fast[j], naive[j]);
        }
    }

    #[test]
    fn scalar_encode_kernel_handles_all_zero_input(
        features in 1usize..30,
        dim in 1usize..200,
        seed in 0u64..50,
    ) {
        let enc = ScalarEncoder::new(
            EncoderConfig::new(features, dim).with_seed(seed),
        ).unwrap();
        let zeros = vec![0.0; features];
        let h = enc.encode(&zeros).unwrap();
        prop_assert_eq!(h, Hypervector::zeros(dim).unwrap());
    }

    #[test]
    fn level_encode_kernel_bit_matches_reference(
        values in prop::collection::vec(0.0f64..1.0, 1..40),
        dim in 1usize..200,
        levels in 2usize..64,
        seed in 0u64..50,
    ) {
        let enc = LevelEncoder::new(
            EncoderConfig::new(values.len(), dim).with_levels(levels).with_seed(seed),
        ).unwrap();
        let fast = enc.encode(&values).unwrap();
        let naive = enc.encode_reference(&values).unwrap();
        // All-integer arithmetic on both paths → exact equality.
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn predict_kernel_matches_reference(
        dim in 1usize..200,
        num_classes in 1usize..6,
        seed in 0u64..50,
    ) {
        // Deterministic pseudo-random model + query from the seed.
        let classes: Vec<Hypervector> = (0..num_classes)
            .map(|c| Hypervector::from_vec(
                (0..dim).map(|j| (((seed as usize + c * 131 + j) as f64) * 0.7).sin()).collect(),
            ))
            .collect();
        let model = HdModel::from_classes(classes).unwrap();
        let query = Hypervector::from_vec(
            (0..dim).map(|j| (((seed as usize + j) as f64) * 0.3).cos()).collect(),
        );
        let fast = model.predict(&query).unwrap();
        let naive = model.predict_reference(&query).unwrap();
        prop_assert_eq!(fast.scores.len(), naive.scores.len());
        for (a, b) in fast.scores.iter().zip(&naive.scores) {
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
        // Scores agree to 1e-9, so the argmax can only differ on a
        // genuine near-tie; accept either label but require the winning
        // scores to coincide.
        prop_assert!((fast.score - naive.score).abs() < 1e-9);
    }

    #[test]
    fn predict_kernel_single_class_model(dim in 1usize..200, seed in 0u64..50) {
        let class = Hypervector::from_vec(
            (0..dim).map(|j| (((seed as usize + j) as f64) * 0.9).sin() + 0.01).collect(),
        );
        let model = HdModel::from_classes(vec![class]).unwrap();
        let query = Hypervector::from_vec(vec![1.0; dim]);
        let fast = model.predict(&query).unwrap();
        let naive = model.predict_reference(&query).unwrap();
        prop_assert_eq!(fast.class, 0);
        prop_assert_eq!(naive.class, 0);
        prop_assert!((fast.score - naive.score).abs() < 1e-9);
    }

    #[test]
    fn packed_predict_kernel_matches_dense_scores(
        dim in 1usize..200,
        seed in 0u64..50,
    ) {
        let classes: Vec<Hypervector> = (0..3)
            .map(|c| Hypervector::from_vec(
                (0..dim).map(|j| (((seed as usize + c * 31 + j) as f64) * 1.1).sin()).collect(),
            ))
            .collect();
        let model = HdModel::from_classes(classes).unwrap();
        let packed = BipolarHv::random(dim, seed);
        let fast = model.predict_packed(&packed).unwrap();
        let dense = model.predict(&packed.to_dense()).unwrap();
        for (a, b) in fast.scores.iter().zip(&dense.scores) {
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }

    // --- Packed sign rows ↔ dense ClassMatrix parity ---------------------
    //
    // For sign-only models every score is a sum of ±1 terms divided by
    // the same norm — exact in f64 in any summation order — so the
    // popcount path must match the dense path *bit for bit*, not just
    // to a tolerance. Dimensions are drawn across word boundaries so
    // the tail-bit masking of the last 64-bit word is always exercised.

    #[test]
    fn packed_matrix_scores_bit_match_dense_for_sign_models(
        dim in 1usize..200,
        num_classes in 1usize..5,
        seed in 0u64..50,
    ) {
        let classes: Vec<Hypervector> = (0..num_classes)
            .map(|c| Hypervector::from_vec(
                (0..dim)
                    .map(|j| if ((seed as usize + c * 131 + j) * 2_654_435_761) % 5 < 2 { 1.0 } else { -1.0 })
                    .collect(),
            ))
            .collect();
        let model = HdModel::from_classes(classes).unwrap();
        prop_assert!(
            model.plan().packed_memory_bytes().is_some(),
            "±1 rows must pack exactly"
        );
        let query = BipolarHv::random(dim, seed);
        let fast = model.predict_packed(&query).unwrap();
        let dense = model.predict(&query.to_dense()).unwrap();
        prop_assert_eq!(fast.scores, dense.scores);
        prop_assert_eq!(fast.class, dense.class);
    }

    #[test]
    fn quantized_model_packed_scores_bit_match_dense(
        dim in 1usize..200,
        seed in 0u64..50,
    ) {
        // Arbitrary float training collapsed to signs by the paper's
        // bipolar class quantization: the packed representation must
        // exist and stay bit-exact against the dense scorer.
        let classes: Vec<Hypervector> = (0..3)
            .map(|c| Hypervector::from_vec(
                (0..dim).map(|j| (((seed as usize + c * 31 + j) as f64) * 1.3).sin()).collect(),
            ))
            .collect();
        let mut model = HdModel::from_classes(classes).unwrap();
        model.quantize_classes(QuantScheme::Bipolar);
        prop_assert!(model.plan().packed_memory_bytes().is_some());
        let query = BipolarHv::random(dim, seed.wrapping_mul(31));
        let fast = model.predict_packed(&query).unwrap();
        let dense = model.predict(&query.to_dense()).unwrap();
        prop_assert_eq!(fast.scores, dense.scores);
    }

    #[test]
    fn packed_matrix_zero_norm_classes_score_neg_infinity(
        dim in 1usize..150,
        seed in 0u64..50,
    ) {
        // A never-trained (all-zero) class next to a ±1 class: the
        // packed scorer must reproduce the NEG_INFINITY sentinel and
        // never predict the untrained class.
        let signs = Hypervector::from_vec(
            (0..dim)
                .map(|j| if (seed as usize + j).is_multiple_of(3) { -1.0 } else { 1.0 })
                .collect(),
        );
        let zero = Hypervector::zeros(dim).unwrap();
        let model = HdModel::from_classes(vec![signs, zero]).unwrap();
        prop_assert!(
            model.plan().packed_memory_bytes().is_some(),
            "zero rows pack (scale 0)"
        );
        let query = BipolarHv::random(dim, seed);
        let fast = model.predict_packed(&query).unwrap();
        let dense = model.predict(&query.to_dense()).unwrap();
        prop_assert_eq!(fast.scores[1], f64::NEG_INFINITY);
        prop_assert_eq!(fast.class, 0);
        prop_assert_eq!(fast.scores, dense.scores);
    }

    // --- Row-grouped float scoring ↔ the single-row order ----------------
    //
    // `ClassMatrix` scores float rows in groups of up to four per kernel
    // pass. Every score must still carry the single-row kernels' exact
    // summation order on that row alone, written out below: the packed
    // sign-select dot over the whole row, and one dense dot per
    // 2,048-column tile (the dense scorer's tile width), in tile order.

    #[test]
    fn grouped_float_row_scores_keep_the_single_row_order(
        dim in 1usize..5_000,
        num_classes in 1usize..10,
        seed in 0u64..1_000,
    ) {
        use privehd_core::ClassMatrix;
        // Non-integer values over eleven binary orders of magnitude, so
        // any change to a row's addition order changes its bits.
        let value = |k: usize| {
            (((seed as usize * 7_919 + k) as f64) * 0.618).sin() * f64::from(1u32 << (k % 11))
        };
        let classes: Vec<Hypervector> = (0..num_classes)
            .map(|c| Hypervector::from_vec((0..dim).map(|j| value(c * dim + j)).collect()))
            .collect();
        let m = ClassMatrix::from_classes(&classes);
        let scaled = |l: usize, dot: f64| {
            let norm = m.norms()[l];
            if norm == 0.0 { f64::NEG_INFINITY } else { dot / norm }
        };

        let packed = BipolarHv::random(dim, seed);
        let mut scores = Vec::new();
        m.scores_packed_into(packed.words(), &mut scores);
        prop_assert_eq!(scores.len(), num_classes);
        for (l, s) in scores.iter().enumerate() {
            let want = scaled(l, sign_dot_in_kernel_order(packed.words(), m.class_row(l)));
            prop_assert!(s.to_bits() == want.to_bits(), "packed class {} of {}: {} vs {}", l, num_classes, s, want);
        }

        let query: Vec<f64> = (0..dim).map(|j| value(num_classes * dim + j)).collect();
        m.scores_into(&query, &mut scores);
        for (l, s) in scores.iter().enumerate() {
            let row = m.class_row(l);
            let mut dot = 0.0;
            for start in (0..dim).step_by(2_048) {
                let end = (start + 2_048).min(dim);
                dot += dense_dot_in_kernel_order(&query[start..end], &row[start..end]);
            }
            let want = scaled(l, dot);
            prop_assert!(s.to_bits() == want.to_bits(), "dense class {} of {}: {} vs {}", l, num_classes, s, want);
        }
    }

    // --- Compiled plan ↔ generic / reference parity ----------------------
    //
    // `privehd_core::plan` compiles the encode∘obfuscate composition
    // and the model's scorer. The fused encode must be *bit-identical*
    // to the generic composition it replaces; the plan's predictions
    // must match the naive `HdModel::predict_reference` path — exactly
    // when every partial sum is an exact small integer (±1 rows and
    // queries), to 1e-9 otherwise — across word-boundary dimensions,
    // masked and unmasked obfuscation, every quantization scheme, and
    // zero-norm (never-trained) classes.

    #[test]
    fn encode_plan_bit_matches_generic_composition(
        values in prop::collection::vec(0.0f64..1.0, 1..24),
        dim in 1usize..200,
        masked_frac in 0.0f64..0.9,
        seed in 0u64..50,
    ) {
        let enc = ScalarEncoder::new(
            EncoderConfig::new(values.len(), dim).with_seed(seed),
        ).unwrap();
        let masked_dims = ((dim as f64) * masked_frac) as usize;
        for scheme in QuantScheme::ALL {
            let obfuscator = Obfuscator::new(
                dim,
                ObfuscateConfig::new(scheme)
                    .with_masked_dims(masked_dims)
                    .with_seed(seed ^ 0xA5),
            ).unwrap();
            let plan = EncodePlan::from_obfuscator(&enc, &obfuscator).unwrap();
            let fused = plan.apply(&enc, &values).unwrap();
            let generic = obfuscator.obfuscate(&enc.encode(&values).unwrap()).unwrap();
            prop_assert_eq!(fused, generic);
        }
    }

    #[test]
    fn plan_predict_bit_matches_model_for_float_models(
        dim in 1usize..200,
        num_classes in 1usize..5,
        seed in 0u64..50,
    ) {
        let classes: Vec<Hypervector> = (0..num_classes)
            .map(|c| Hypervector::from_vec(
                (0..dim).map(|j| (((seed as usize + c * 131 + j) as f64) * 0.7).sin()).collect(),
            ))
            .collect();
        let model = HdModel::from_classes(classes).unwrap();
        let plan = ModelPlan::compile(&model);
        // Float rows cannot pack: the compiler must select dense tiling.
        prop_assert!(plan.packed_memory_bytes().is_none());
        let query = Hypervector::from_vec(
            (0..dim).map(|j| (((seed as usize + j) as f64) * 0.3).cos()).collect(),
        );
        assert_close(&plan.predict_dense(&query).unwrap(), &model.predict_reference(&query).unwrap())?;
    }

    #[test]
    fn plan_packed_predict_bit_matches_model_for_sign_models(
        dim in 1usize..200,
        num_classes in 1usize..5,
        seed in 0u64..50,
    ) {
        let classes: Vec<Hypervector> = (0..num_classes)
            .map(|c| Hypervector::from_vec(
                (0..dim)
                    .map(|j| if ((seed as usize + c * 131 + j) * 2_654_435_761) % 5 < 2 { 1.0 } else { -1.0 })
                    .collect(),
            ))
            .collect();
        let model = HdModel::from_classes(classes).unwrap();
        let plan = ModelPlan::compile(&model);
        // Sign-only rows pack: the compiler must select XOR+POPCNT.
        prop_assert!(plan.packed_memory_bytes().is_some());
        let query = BipolarHv::random(dim, seed);
        let expected = model.predict_reference(&query.to_dense()).unwrap();
        prop_assert_eq!(&plan.predict_packed(&query).unwrap(), &expected);
    }

    #[test]
    fn plan_predict_bit_matches_model_for_level_quantized_models(
        dim in 1usize..200,
        seed in 0u64..50,
    ) {
        // Multi-level class quantization (ternary / 2-bit) leaves rows
        // unpackable; the compiled dense path must stay bit-identical.
        for scheme in [QuantScheme::Ternary, QuantScheme::TernaryBiased, QuantScheme::TwoBit] {
            let classes: Vec<Hypervector> = (0..3)
                .map(|c| Hypervector::from_vec(
                    (0..dim).map(|j| (((seed as usize + c * 31 + j) as f64) * 1.3).sin()).collect(),
                ))
                .collect();
            let mut model = HdModel::from_classes(classes).unwrap();
            model.quantize_classes(scheme);
            let plan = ModelPlan::compile(&model);
            let query = Hypervector::from_vec(
                (0..dim).map(|j| (((seed as usize + j) as f64) * 0.9).cos()).collect(),
            );
            assert_close(&plan.predict_dense(&query).unwrap(), &model.predict_reference(&query).unwrap())?;
        }
    }

    #[test]
    fn plan_scores_zero_norm_classes_like_the_model(
        dim in 1usize..150,
        seed in 0u64..50,
    ) {
        // A never-trained (all-zero) class next to a ±1 class: the
        // compiled plan must reproduce the NEG_INFINITY sentinel on
        // both its packed and dense paths, and never predict the
        // untrained class.
        let signs = Hypervector::from_vec(
            (0..dim)
                .map(|j| if (seed as usize + j).is_multiple_of(3) { -1.0 } else { 1.0 })
                .collect(),
        );
        let zero = Hypervector::zeros(dim).unwrap();
        let model = HdModel::from_classes(vec![signs, zero]).unwrap();
        let plan = ModelPlan::compile(&model);
        let query = BipolarHv::random(dim, seed);
        let fast = plan.predict_packed(&query).unwrap();
        prop_assert_eq!(fast.scores[1], f64::NEG_INFINITY);
        prop_assert_eq!(fast.class, 0);
        let dense_query = query.to_dense();
        let reference = model.predict_reference(&dense_query).unwrap();
        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(&plan.predict_dense(&dense_query).unwrap(), &reference);
    }

    #[test]
    fn zero_norm_classes_score_neg_infinity(dim in 1usize..100, seed in 0u64..50) {
        // One trained class, one never-trained (all-zero) class: the
        // documented NEG_INFINITY sentinel, never the old f64::MIN.
        let trained = Hypervector::from_vec(
            (0..dim).map(|j| (((seed as usize + j) as f64) * 0.63).sin() + 0.01).collect(),
        );
        let zero = Hypervector::zeros(dim).unwrap();
        let model = HdModel::from_classes(vec![trained, zero]).unwrap();
        let query = Hypervector::from_vec(vec![1.0; dim]);
        for p in [model.predict(&query).unwrap(), model.predict_reference(&query).unwrap()] {
            prop_assert_eq!(p.scores[1], f64::NEG_INFINITY);
            prop_assert_eq!(p.class, 0);
        }
    }
}
