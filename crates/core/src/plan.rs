//! Compilation of the encode∘obfuscate∘predict pipeline.
//!
//! Every decision that is fully determined once a model or an edge
//! exists is made **once**, here, instead of per request:
//!
//! * [`EncodePlan`] — the client-side encode∘obfuscate transform,
//!   compiled against its [`ScalarEncoder`] into one precomputed
//!   keep-mask table. Under [`QuantScheme::Bipolar`] (the paper's
//!   inference operating point, §III-C) it drives the fused
//!   [`kernels::scalar_encode_bipolar_masked`] kernel over the byte
//!   planes of the kept columns only, compiled once, so a masked
//!   dimension is never computed; other schemes run one fused
//!   quantize+mask output pass over the encode kernel's accumulator.
//!   Either way the permutation is materialized exactly once, at
//!   compile time (pinned by [`crate::obfuscate::permutation_build_count`]).
//! * [`ModelPlan`] — the only scorer of Eq. (4). Every [`HdModel`]
//!   caches one plan, compiled lazily after each mutation: the dense
//!   [`ClassMatrix`], plus packed sign rows with one scale per class
//!   when every row is `scale × sign`. The query dimension check, the
//!   [`HdError::ZeroNorm`] check, the packed/dense dispatch, the packed
//!   block pass and the argmax exist once, in this file;
//!   `HdModel::predict*` delegate here, and the serving registry forces
//!   the plan at publish so no request compiles one. Which SIMD arm a
//!   kernel takes is not part of the plan: each kernel call checks the
//!   host's (memoized) CPUID itself.
//!
//! The compiled encode path is bit-identical to the generic composition
//! it replaces, and the plan's scores match
//! [`HdModel::predict_reference`]; `tests/properties.rs` holds both
//! across schemes, masks and word-boundary dimensions.

// The compiled plan dispatch runs on the serve request path; this file
// is listed in the analyzer's PANIC_PATH_SCOPE, so keep it free of
// panic-capable constructs outside tests.

use std::sync::Arc;

use crate::encoder::{Encoder, EncoderConfig, ScalarEncoder};
use crate::error::HdError;
use crate::hypervector::{BipolarHv, Hypervector};
use crate::kernels::{self, ClassMatrix, PackedClassMatrix, TransposedItemMemory};
use crate::model::{HdModel, Prediction};
use crate::obfuscate::{ObfuscateConfig, Obfuscator};
use crate::quantize::QuantScheme;

const WORD_BITS: usize = 64;

/// Most packed queries per column-tiled pass over float class rows.
/// Past about 16 the per-query cost is flat (the matrix is already read
/// once per block), while the pass's thread-local tile masks grow by
/// 4 KB per query.
const PACKED_BLOCK: usize = 16;

/// The client-side encode∘obfuscate transform, compiled against one
/// [`ScalarEncoder`].
///
/// Compilation materializes the obfuscation permutation exactly once
/// (the same seeded shuffle as [`Obfuscator::new`], so masks are
/// bit-identical) and stores it as a packed keep bitmap. A
/// [`QuantScheme::Bipolar`] plan with masked dimensions also copies the
/// byte planes of the encoder's *kept* columns
/// ([`TransposedItemMemory`]), so applying it never computes a masked
/// dimension. [`EncodePlan::apply`] is then a single table-driven pass:
/// bit-identical to `obfuscator.obfuscate(&encoder.encode(input)?)`
/// with no per-call permutation work.
#[derive(Debug, Clone)]
pub struct EncodePlan {
    scheme: QuantScheme,
    /// The configuration of the encoder the plan was compiled against.
    encoder: EncoderConfig,
    masked_dims: usize,
    /// One bit per dimension; set ⇔ the dimension survives the mask.
    /// `⌈dim/64⌉` words, zero tail bits.
    keep_words: Vec<u64>,
    /// The kept columns' byte planes: present for a Bipolar plan with
    /// masked dimensions (an unmasked one runs on the encoder's own).
    kept: Option<TransposedItemMemory>,
}

impl EncodePlan {
    /// Compiles the plan for `encoder`'s queries — one permutation
    /// build, at compile time.
    ///
    /// # Errors
    ///
    /// Same contract as [`Obfuscator::new`] at the encoder's dimension:
    /// [`HdError::InvalidConfig`] if `masked_dims >= dim`.
    pub fn compile(encoder: &ScalarEncoder, config: ObfuscateConfig) -> Result<Self, HdError> {
        let obfuscator = Obfuscator::new(encoder.dim(), config)?;
        Self::from_obfuscator(encoder, &obfuscator)
    }

    /// Compiles the plan from an already-constructed obfuscator without
    /// re-materializing the permutation.
    ///
    /// # Errors
    ///
    /// [`HdError::DimensionMismatch`] if the obfuscator's dimension
    /// differs from the encoder's.
    pub fn from_obfuscator(
        encoder: &ScalarEncoder,
        obfuscator: &Obfuscator,
    ) -> Result<Self, HdError> {
        let dim = obfuscator.dim();
        if dim != encoder.dim() {
            return Err(HdError::DimensionMismatch {
                expected: encoder.dim(),
                actual: dim,
            });
        }
        let hv_words = dim.div_ceil(WORD_BITS);
        let mut keep_words = vec![u64::MAX; hv_words];
        let tail = dim % WORD_BITS;
        if tail != 0 {
            if let Some(last) = keep_words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        for &j in obfuscator.masked_indices() {
            if let Some(word) = keep_words.get_mut(j / WORD_BITS) {
                *word &= !(1u64 << (j % WORD_BITS));
            }
        }
        let scheme = obfuscator.config().scheme;
        let masked_dims = obfuscator.masked_indices().len();
        let kept = (scheme == QuantScheme::Bipolar && masked_dims > 0)
            .then(|| encoder.item_memory_transposed().kept_columns(&keep_words));
        Ok(Self {
            scheme,
            encoder: encoder.config().clone(),
            masked_dims,
            keep_words,
            kept,
        })
    }

    /// The quantization scheme baked into the plan.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Query dimensionality the plan was compiled for.
    pub fn dim(&self) -> usize {
        self.encoder.dim
    }

    /// Number of dimensions the mask nullifies.
    pub fn masked_dims(&self) -> usize {
        self.masked_dims
    }

    /// The packed keep bitmap (bit set ⇔ dimension survives;
    /// `⌈dim/64⌉` words, zero tail bits).
    pub fn keep_words(&self) -> &[u64] {
        &self.keep_words
    }

    /// Encodes and obfuscates one feature vector in a single
    /// table-driven pass — bit-identical to
    /// `obfuscator.obfuscate(&encoder.encode(input)?)`.
    ///
    /// Under [`QuantScheme::Bipolar`] the fused masked kernel computes
    /// the kept dimensions only (the quantized sign is σ-independent,
    /// so nothing about a masked dimension is ever needed); NaN inputs
    /// fall back to the generic composition, whose NaN semantics are
    /// the contract. Other schemes need the full accumulator for the σ
    /// estimate, so they run the encode kernel and fuse quantization +
    /// masking into one output pass.
    ///
    /// # Errors
    ///
    /// [`HdError::DimensionMismatch`] if the encoder's output dimension
    /// differs from the compiled plan's, [`HdError::EncoderMismatch`]
    /// if its configuration otherwise differs from the one the plan was
    /// compiled against, and [`HdError::FeatureCountMismatch`] for a
    /// wrong input length.
    pub fn apply(&self, encoder: &ScalarEncoder, input: &[f64]) -> Result<Hypervector, HdError> {
        let config = encoder.config();
        if config.dim != self.encoder.dim {
            return Err(HdError::DimensionMismatch {
                expected: self.encoder.dim,
                actual: config.dim,
            });
        }
        if *config != self.encoder {
            return Err(HdError::EncoderMismatch);
        }
        if input.len() != config.features {
            return Err(HdError::FeatureCountMismatch {
                expected: config.features,
                actual: input.len(),
            });
        }
        if self.scheme == QuantScheme::Bipolar {
            let planes = match &self.kept {
                Some(kept) => kept,
                None => encoder.item_memory_transposed(),
            };
            if let Some(acc) = kernels::scalar_encode_bipolar_masked(
                planes,
                input,
                config.levels,
                &self.keep_words,
                config.dim,
            ) {
                return Ok(Hypervector::from_vec(acc));
            }
            // NaN input: the fused integer kernel cannot represent the
            // poisoned accumulator; the generic pass below resolves it
            // exactly like encode-then-obfuscate does.
        }
        let mut h = encoder.encode(input)?;
        // σ is estimated from the *pre-mask* accumulator, exactly as
        // `Obfuscator::obfuscate` does.
        let sigma = QuantScheme::empirical_sigma(&h).max(f64::MIN_POSITIVE);
        for (chunk, &keep) in h.as_mut_slice().chunks_mut(WORD_BITS).zip(&self.keep_words) {
            for (b, v) in chunk.iter_mut().enumerate() {
                *v = if keep >> b & 1 == 1 {
                    self.scheme.quantize_value(*v, sigma)
                } else {
                    0.0
                };
            }
        }
        Ok(h)
    }
}

/// The compiled scorer of Eq. (4): the class snapshots every predict
/// path dispatches through.
///
/// A plan holds the dense [`ClassMatrix`] and, when every class row is
/// exactly `scale × sign` (the rows of a bipolar-quantized model), the
/// packed sign rows with one scale per class: packed queries against
/// those are scored by `XOR` + popcount, and against any other rows by
/// the sign-select kernels over the dense rows.
///
/// Each [`HdModel`] caches one plan ([`HdModel::plan`]) and its
/// `predict*` methods delegate here; clones share the snapshot `Arc`s.
/// Zero-norm (never-trained) classes score [`f64::NEG_INFINITY`] (see
/// [`Prediction::scores`]).
#[derive(Debug, Clone)]
pub struct ModelPlan {
    dense: Arc<ClassMatrix>,
    /// Present exactly when every class row is `scale × sign`; its
    /// scores divide by the dense snapshot's norms.
    packed: Option<Arc<PackedClassMatrix>>,
}

impl ModelPlan {
    /// The model's cached plan (compiled first if needed). The returned
    /// clone shares the plan's `Arc` snapshots, so it costs two
    /// reference-count bumps.
    pub fn compile(model: &HdModel) -> Self {
        model.plan().clone()
    }

    /// Compiles a plan for `classes` (all of one dimensionality): the
    /// dense snapshot, and the packed one when every row packs.
    pub(crate) fn build(classes: &[Hypervector]) -> Self {
        Self {
            dense: Arc::new(ClassMatrix::from_classes(classes)),
            packed: PackedClassMatrix::try_from_classes(classes).map(Arc::new),
        }
    }

    /// Refreshes class row `l` in place after a targeted mutation (an
    /// Eq. 3 bundle or an Eq. 5 update) in O(dim). Returns `false`,
    /// leaving the plan untouched, when the caller must recompile
    /// instead: the snapshots are shared with a clone of this plan, or
    /// the row now packs on a plan without a packed snapshot, which
    /// only a probe of every other row can settle.
    pub(crate) fn refresh_class(&mut self, l: usize, class: &Hypervector) -> bool {
        let Some(dense) = Arc::get_mut(&mut self.dense) else {
            return false;
        };
        let packs = match self.packed.as_mut().map(Arc::get_mut) {
            Some(Some(packed)) => packed.update_class(l, class),
            Some(None) => return false,
            None if PackedClassMatrix::row_packs(class) => return false,
            None => false,
        };
        if !packs {
            // This row does not pack, so neither does the model.
            self.packed = None;
        }
        dense.update_class(l, class);
        true
    }

    /// Hypervector dimensionality the plan scores at.
    pub fn dim(&self) -> usize {
        self.dense.dim()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.dense.num_classes()
    }

    /// Cached ℓ2 class norms, index = class label.
    pub fn norms(&self) -> &[f64] {
        self.dense.norms()
    }

    /// Bytes held by the dense [`ClassMatrix`] snapshot.
    pub fn dense_memory_bytes(&self) -> usize {
        self.dense.memory_bytes()
    }

    /// Bytes held by the packed snapshot (sign words plus one scale per
    /// class), or `None` when the class rows do not pack. For sign-only
    /// (bipolar quantized) models it runs ~64× smaller than
    /// [`ModelPlan::dense_memory_bytes`].
    pub fn packed_memory_bytes(&self) -> Option<usize> {
        self.packed.as_ref().map(|p| p.memory_bytes())
    }

    /// The entry check of every predict path: the query dimension, then
    /// at least one trained class.
    pub(crate) fn check_query(&self, dim: usize) -> Result<(), HdError> {
        if dim != self.dim() {
            return Err(HdError::DimensionMismatch {
                expected: self.dim(),
                actual: dim,
            });
        }
        if self.dense.all_zero() {
            return Err(HdError::ZeroNorm);
        }
        Ok(())
    }

    /// Scores a bit-packed bipolar query — the fast path for obfuscated
    /// queries, whose components are all `±1` after the
    /// [`Obfuscator`] quantization step.
    ///
    /// When the class rows pack, scoring is pure `XOR` + popcount word
    /// arithmetic, bit-exact against the dense scores for ±1 rows.
    /// Otherwise the per-class dot selects signs branchlessly
    /// from the packed words ([`kernels::dot_sign_dense`]) against the
    /// dense rows: mathematically the score of
    /// [`ModelPlan::predict_dense`] on [`BipolarHv::to_dense`], though
    /// the summation order differs for non-±1 rows.
    ///
    /// # Errors
    ///
    /// [`HdError::DimensionMismatch`] for a wrong query dimension,
    /// [`HdError::ZeroNorm`] if every class hypervector is zero, and
    /// [`HdError::NonFinite`] on a NaN score.
    pub fn predict_packed(&self, query: &BipolarHv) -> Result<Prediction, HdError> {
        self.check_query(query.dim())?;
        let mut scores = Vec::new();
        self.scores_packed(&[query.words()], std::slice::from_mut(&mut scores));
        prediction_from_scores(scores)
    }

    /// [`ModelPlan::predict_packed`] for a batch of packed queries, one
    /// result per query in order; [`ModelPlan::predict_packed`] is its
    /// one-query case. Each query is checked on its own, so a
    /// wrong-dimension query fails alone. Against float rows the valid
    /// queries are scored in blocks of up to 16 by
    /// [`ClassMatrix::scores_packed_block_into`], which reads the class
    /// rows once per block; against packed sign rows (about a
    /// microsecond per query) they are scored one at a time. Either way
    /// every result is bit-identical to [`ModelPlan::predict_packed`] on
    /// that query alone.
    pub fn predict_packed_batch(&self, queries: &[&BipolarHv]) -> Vec<Result<Prediction, HdError>> {
        let checked: Vec<Result<&[u64], HdError>> = queries
            .iter()
            .map(|query| self.check_query(query.dim()).map(|()| query.words()))
            .collect();
        let valid: Vec<&[u64]> = checked
            .iter()
            .filter_map(|c| c.as_ref().ok().copied())
            .collect();
        let mut scores = vec![Vec::new(); valid.len()];
        self.scores_packed(&valid, &mut scores);
        let mut scores = scores.into_iter();
        checked
            .into_iter()
            .map(|c| c.and_then(|_| prediction_from_scores(scores.next().unwrap_or_default())))
            .collect()
    }

    /// Scores pre-validated packed queries into `out`, one row per
    /// query: popcount rows one query at a time, float rows in balanced
    /// blocks of at most [`PACKED_BLOCK`].
    fn scores_packed(&self, queries: &[&[u64]], out: &mut [Vec<f64>]) {
        match &self.packed {
            Some(packed) => {
                for (words, scores) in queries.iter().zip(out.iter_mut()) {
                    packed.scores_packed_into(words, self.dense.norms(), scores);
                }
            }
            None => {
                let blocks = queries.len().div_ceil(PACKED_BLOCK).max(1);
                let block = queries.len().div_ceil(blocks).max(1);
                for (words, scores) in queries.chunks(block).zip(out.chunks_mut(block)) {
                    self.dense.scores_packed_block_into(words, scores);
                }
            }
        }
    }

    /// Scores a dense query with the normalized dot product of Eq. (4):
    /// only the class norms enter the normalization, since the query
    /// norm is a constant factor across classes.
    ///
    /// # Errors
    ///
    /// [`HdError::DimensionMismatch`] for a wrong query dimension,
    /// [`HdError::ZeroNorm`] if every class hypervector is zero, and
    /// [`HdError::NonFinite`] when a NaN query component poisons the
    /// scores.
    pub fn predict_dense(&self, query: &Hypervector) -> Result<Prediction, HdError> {
        self.check_query(query.dim())?;
        let mut scores = Vec::new();
        self.dense.scores_into(query.as_slice(), &mut scores);
        prediction_from_scores(scores)
    }

    /// One-line human-readable description of the scoring kernels, used
    /// by reports: packed sign rows or dense float rows, and the SIMD
    /// arm the kernels take on this host ([`kernels::avx2_dispatch`]).
    pub fn describe(&self) -> String {
        let arms = if kernels::avx2_dispatch() {
            "avx2"
        } else {
            "scalar"
        };
        let (classes, dim) = (self.num_classes(), self.dim());
        match &self.packed {
            Some(_) => format!(
                "packed-popcount: {classes} classes × {} words (dim {dim}), xor+popcount, {arms} arms",
                dim.div_ceil(WORD_BITS)
            ),
            None => format!("dense-tiled: {classes} classes × {dim} dims, f64 dot, {arms} arms"),
        }
    }
}

/// The argmax of every predict path: the last maximal score wins (the
/// tie order of `Iterator::max_by`). Checks the O(classes) scores, not
/// the O(dim) query: a NaN query component makes every score NaN.
///
/// # Errors
///
/// [`HdError::NonFinite`] on a NaN score.
pub(crate) fn prediction_from_scores(scores: Vec<f64>) -> Result<Prediction, HdError> {
    let mut best: Option<(usize, f64)> = None;
    for (class, &score) in scores.iter().enumerate() {
        if score.is_nan() {
            return Err(HdError::NonFinite("similarity scores"));
        }
        if best.is_none_or(|(_, top)| score >= top) {
            best = Some((class, score));
        }
    }
    let (class, score) = best.ok_or(HdError::EmptyInput("class scores"))?;
    Ok(Prediction {
        class,
        score,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderConfig;

    fn trained_model(dim: usize, seed: u64) -> (ScalarEncoder, HdModel) {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, dim).with_seed(seed)).unwrap();
        let mut model = HdModel::new(2, dim).unwrap();
        for i in 0..8 {
            let t = i as f64 / 40.0;
            let a = vec![0.1 + t, 0.2, 0.1, 0.9 - t, 0.8, 0.9];
            let b = vec![0.9 - t, 0.8, 0.9, 0.1 + t, 0.2, 0.1];
            model.bundle(0, &enc.encode(&a).unwrap()).unwrap();
            model.bundle(1, &enc.encode(&b).unwrap()).unwrap();
        }
        (enc, model)
    }

    #[test]
    fn compile_selects_dense_for_float_rows_and_popcount_for_sign_rows() {
        let (_, mut model) = trained_model(300, 3);
        let plan = ModelPlan::compile(&model);
        assert!(plan.packed_memory_bytes().is_none());
        model.quantize_classes(QuantScheme::Bipolar);
        let plan = ModelPlan::compile(&model);
        // Two classes × 5 sign words, plus one scale per class.
        assert_eq!(plan.packed_memory_bytes(), Some((2 * 5 + 2) * 8));
        assert_eq!(plan.num_classes(), 2);
        assert_eq!(plan.dim(), 300);
    }

    #[test]
    fn describe_names_the_rows_and_the_hosts_simd_arm() {
        let arms = if kernels::avx2_dispatch() {
            "avx2"
        } else {
            "scalar"
        };
        let (_, mut model) = trained_model(300, 29);
        assert_eq!(
            ModelPlan::compile(&model).describe(),
            format!("dense-tiled: 2 classes × 300 dims, f64 dot, {arms} arms")
        );
        model.quantize_classes(QuantScheme::Bipolar);
        assert_eq!(
            ModelPlan::compile(&model).describe(),
            format!("packed-popcount: 2 classes × 5 words (dim 300), xor+popcount, {arms} arms")
        );
    }

    #[test]
    fn plan_predicts_bit_identically_to_the_model() {
        let (enc, model) = trained_model(300, 5);
        let plan = ModelPlan::compile(&model);
        // `compile` hands out the model's cached plan, snapshots shared.
        assert!(Arc::ptr_eq(&plan.dense, &model.plan().dense));
        let q = enc.encode(&[0.2, 0.3, 0.1, 0.8, 0.7, 0.9]).unwrap();
        let dense = plan.predict_dense(&q).unwrap();
        assert_eq!(dense, model.predict(&q).unwrap());
        let reference = model.predict_reference(&q).unwrap();
        assert_eq!(dense.class, reference.class);
        for (a, b) in dense.scores.iter().zip(&reference.scores) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        let packed = BipolarHv::random(300, 9);
        let fast = plan.predict_packed(&packed).unwrap();
        assert_eq!(fast, model.predict_packed(&packed).unwrap());
    }

    #[test]
    fn plan_mirrors_model_error_contract() {
        let (_, model) = trained_model(300, 7);
        let plan = ModelPlan::compile(&model);
        let short = Hypervector::from_vec(vec![1.0; 64]);
        assert_eq!(
            plan.predict_dense(&short),
            Err(HdError::DimensionMismatch {
                expected: 300,
                actual: 64
            })
        );
        let untrained = HdModel::new(2, 64).unwrap();
        let plan = ModelPlan::compile(&untrained);
        assert_eq!(
            plan.predict_dense(&Hypervector::from_vec(vec![1.0; 64])),
            Err(HdError::ZeroNorm)
        );
        assert_eq!(
            plan.predict_packed(&BipolarHv::random(64, 0)),
            Err(HdError::ZeroNorm)
        );
        let block: Vec<BipolarHv> = (0..3).map(|i| BipolarHv::random(64, i)).collect();
        let refs: Vec<&BipolarHv> = block.iter().collect();
        assert_eq!(
            plan.predict_packed_batch(&refs),
            vec![Err(HdError::ZeroNorm); 3]
        );
    }

    #[test]
    fn packed_batch_fails_a_bad_query_alone_and_bit_matches_predict_packed() {
        let dim = 1_283;
        let (_, mut model) = trained_model(dim, 23);
        for quantized in [false, true] {
            if quantized {
                model.quantize_classes(QuantScheme::Bipolar);
            }
            let plan = ModelPlan::compile(&model);
            assert_eq!(plan.packed_memory_bytes().is_some(), quantized);
            // 19 valid queries: two column-tiled blocks on float rows.
            let mut queries: Vec<BipolarHv> =
                (0..20).map(|i| BipolarHv::random(dim, 100 + i)).collect();
            queries[9] = BipolarHv::random(640, 5);
            let refs: Vec<&BipolarHv> = queries.iter().collect();
            let got = plan.predict_packed_batch(&refs);
            assert_eq!(got.len(), queries.len());
            for (i, (query, got)) in queries.iter().zip(got).enumerate() {
                if i == 9 {
                    assert_eq!(
                        got,
                        Err(HdError::DimensionMismatch {
                            expected: dim,
                            actual: 640
                        })
                    );
                    continue;
                }
                let (got, want) = (got.unwrap(), plan.predict_packed(query).unwrap());
                assert_eq!(got.class, want.class, "query {i}");
                let bits =
                    |p: &Prediction| p.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "query {i}, quantized {quantized}");
            }
        }
        assert!(ModelPlan::compile(&model)
            .predict_packed_batch(&[])
            .is_empty());
    }

    #[test]
    fn encode_plan_matches_generic_composition() {
        let (enc, _) = trained_model(300, 11);
        for scheme in QuantScheme::ALL {
            let cfg = ObfuscateConfig::new(scheme)
                .with_masked_dims(90)
                .with_seed(4);
            let ob = Obfuscator::new(300, cfg).unwrap();
            let plan = EncodePlan::compile(&enc, cfg).unwrap();
            assert_eq!(plan.masked_dims(), 90);
            let input = [0.15, 0.5, 0.85, 0.3, 0.7, 0.05];
            let generic = ob.obfuscate(&enc.encode(&input).unwrap()).unwrap();
            let fused = plan.apply(&enc, &input).unwrap();
            assert_eq!(
                fused.as_slice(),
                generic.as_slice(),
                "{scheme}: compiled plan must bit-match encode∘obfuscate"
            );
        }
    }

    #[test]
    fn encode_plan_nan_falls_back_to_generic_semantics() {
        let (enc, _) = trained_model(200, 13);
        let cfg = ObfuscateConfig::new(QuantScheme::Bipolar)
            .with_masked_dims(50)
            .with_seed(2);
        let ob = Obfuscator::new(200, cfg).unwrap();
        let plan = EncodePlan::compile(&enc, cfg).unwrap();
        let input = [0.1, f64::NAN, 0.3, 0.4, 0.5, 0.6];
        let generic = ob.obfuscate(&enc.encode(&input).unwrap()).unwrap();
        let fused = plan.apply(&enc, &input).unwrap();
        assert_eq!(fused.as_slice(), generic.as_slice());
    }

    #[test]
    fn encode_plan_validates_like_the_generic_path() {
        let (enc, _) = trained_model(200, 17);
        let cfg = ObfuscateConfig::new(QuantScheme::Bipolar);
        let tiny = ScalarEncoder::new(EncoderConfig::new(6, 8)).unwrap();
        assert!(EncodePlan::compile(&tiny, cfg.with_masked_dims(8)).is_err());
        let plan = EncodePlan::compile(&enc, cfg).unwrap();
        assert_eq!(
            plan.apply(&enc, &[0.5; 4]),
            Err(HdError::FeatureCountMismatch {
                expected: 6,
                actual: 4
            })
        );
        let narrow = ScalarEncoder::new(EncoderConfig::new(6, 100).with_seed(17)).unwrap();
        let other = EncodePlan::compile(&narrow, cfg).unwrap();
        assert!(matches!(
            other.apply(&enc, &[0.5; 6]),
            Err(HdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn nan_query_is_a_typed_error_not_a_panic() {
        let (_, model) = trained_model(64, 19);
        let mut values = vec![0.5; 64];
        values[7] = f64::NAN;
        let poisoned = Hypervector::from_vec(values);
        let nan = Err(HdError::NonFinite("similarity scores"));
        assert_eq!(model.predict(&poisoned), nan);
        assert_eq!(ModelPlan::compile(&model).predict_dense(&poisoned), nan);
        assert_eq!(model.predict_reference(&poisoned), nan);
        // The model keeps serving healthy queries.
        let healthy = Hypervector::from_vec(vec![0.5; 64]);
        assert!(model.predict(&healthy).is_ok());
    }

    #[test]
    fn argmax_keeps_the_last_maximal_score() {
        let p = prediction_from_scores(vec![0.5, f64::NEG_INFINITY, 0.5, 0.25]).unwrap();
        assert_eq!((p.class, p.score), (2, 0.5));
        let p = prediction_from_scores(vec![f64::NEG_INFINITY, f64::NEG_INFINITY]).unwrap();
        assert_eq!(p.class, 1);
        assert_eq!(
            prediction_from_scores(vec![0.5, f64::NAN]),
            Err(HdError::NonFinite("similarity scores"))
        );
    }
}
