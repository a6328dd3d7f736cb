//! HD training (Eq. 3), retraining (Eq. 5) and inference (Eq. 4).
//!
//! A trained model is one hypervector per class: `C_l = Σ_j H_{l,j}`.
//! Inference computes the cosine similarity of a query with every class;
//! as noted under Eq. (4), the query's own norm is a shared factor across
//! classes and is discarded, while the class norms are computed once and
//! cached.
//!
//! Scoring runs through the model's cached [`ModelPlan`], compiled
//! lazily after each mutation and refreshed row by row in place during
//! retraining; every `predict*` method delegates to it. The naive
//! per-query path is retained as [`HdModel::predict_reference`], the
//! arithmetic baseline the kernel parity tests (and the `perfsuite`
//! speedup measurements) compare against.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::error::HdError;
use crate::hypervector::{BipolarHv, Hypervector};
use crate::plan::{self, ModelPlan};
use crate::prune::PruneMask;
use crate::quantize::QuantScheme;

/// A trained (or in-training) HD classification model.
///
/// # Examples
///
/// ```
/// use privehd_core::{HdModel, Hypervector};
///
/// # fn main() -> Result<(), privehd_core::HdError> {
/// let mut model = HdModel::new(2, 4)?;
/// model.bundle(0, &Hypervector::from_vec(vec![1.0, 1.0, -1.0, -1.0]))?;
/// model.bundle(1, &Hypervector::from_vec(vec![-1.0, -1.0, 1.0, 1.0]))?;
/// let p = model.predict(&Hypervector::from_vec(vec![2.0, 1.0, -1.0, 0.0]))?;
/// assert_eq!(p.class, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HdModel {
    classes: Vec<Hypervector>,
    dim: usize,
    /// The compiled scorer, built on first use; refreshed in place or
    /// reset on every mutation.
    #[serde(skip)]
    plan: OnceLock<ModelPlan>,
}

impl PartialEq for HdModel {
    /// Models compare by class hypervectors alone; the compiled plan is
    /// derived state.
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.classes == other.classes
    }
}

/// The result of classifying one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// The winning class label.
    pub class: usize,
    /// The winning (normalized) similarity score.
    pub score: f64,
    /// Per-class similarity scores, index = class label.
    ///
    /// A class whose hypervector has zero norm (never trained) scores
    /// [`f64::NEG_INFINITY`], so it orders below every real similarity
    /// and survives arithmetic like [`Prediction::margin`] without the
    /// wrap-around hazards of the former `f64::MIN` sentinel.
    pub scores: Vec<f64>,
}

impl Prediction {
    /// Margin between the best and second-best class scores — a confidence
    /// proxy used by the information-loss analysis of Fig. 3(b).
    pub fn margin(&self) -> f64 {
        if self.scores.len() < 2 {
            return self.score;
        }
        let mut sorted = self.scores.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite scores"));
        sorted[0] - sorted[1]
    }
}

/// Configuration of the retraining loop (Eq. 5 / Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrainConfig {
    /// Maximum number of passes over the training set.
    pub epochs: usize,
    /// Stop early when an epoch ends with training accuracy at least this
    /// value (1.0 disables early stopping on accuracy).
    pub target_accuracy: f64,
    /// Stop early when an epoch makes no model update.
    pub stop_when_converged: bool,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        // Fig. 4: 1-2 iterations suffice; we default to a small cap.
        Self {
            epochs: 5,
            target_accuracy: 1.0,
            stop_when_converged: true,
        }
    }
}

/// Per-epoch record returned by [`HdModel::retrain`], enough to re-plot
/// Fig. 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrainReport {
    /// Training accuracy measured at the end of each epoch.
    pub epoch_accuracy: Vec<f64>,
    /// Number of class updates (mispredictions) per epoch.
    pub epoch_updates: Vec<usize>,
}

impl RetrainReport {
    /// Accuracy after the final epoch (0.0 when no epoch ran).
    pub fn final_accuracy(&self) -> f64 {
        self.epoch_accuracy.last().copied().unwrap_or(0.0)
    }

    /// Number of epochs actually executed.
    pub fn epochs_run(&self) -> usize {
        self.epoch_accuracy.len()
    }
}

impl HdModel {
    /// Creates an untrained model with `num_classes` all-zero class
    /// hypervectors of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::EmptyDimension`] if `dim == 0` and
    /// [`HdError::InvalidConfig`] if `num_classes == 0`.
    pub fn new(num_classes: usize, dim: usize) -> Result<Self, HdError> {
        if num_classes == 0 {
            return Err(HdError::InvalidConfig(
                "model needs at least one class".to_owned(),
            ));
        }
        let classes = (0..num_classes)
            .map(|_| Hypervector::zeros(dim))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            classes,
            dim,
            plan: OnceLock::new(),
        })
    }

    /// Builds a model directly from class hypervectors (e.g. after adding
    /// privacy noise).
    ///
    /// # Errors
    ///
    /// Returns [`HdError::EmptyInput`] for an empty vector and
    /// [`HdError::DimensionMismatch`] if classes disagree on dimension.
    pub fn from_classes(classes: Vec<Hypervector>) -> Result<Self, HdError> {
        let first_dim = classes
            .first()
            .ok_or(HdError::EmptyInput("class hypervectors"))?
            .dim();
        for c in &classes {
            if c.dim() != first_dim {
                return Err(HdError::DimensionMismatch {
                    expected: first_dim,
                    actual: c.dim(),
                });
            }
        }
        Ok(Self {
            classes,
            dim: first_dim,
            plan: OnceLock::new(),
        })
    }

    /// Number of classes `|C|`.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality `D_hv`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The class hypervector for `label`.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::ClassOutOfRange`] for an invalid label.
    pub fn class(&self, label: usize) -> Result<&Hypervector, HdError> {
        self.classes.get(label).ok_or(HdError::ClassOutOfRange {
            class: label,
            num_classes: self.classes.len(),
        })
    }

    /// Iterates over the class hypervectors in label order.
    pub fn classes(&self) -> std::slice::Iter<'_, Hypervector> {
        self.classes.iter()
    }

    /// Training step of Eq. (3): adds an encoded hypervector into its
    /// class.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::ClassOutOfRange`] or
    /// [`HdError::DimensionMismatch`].
    pub fn bundle(&mut self, label: usize, encoded: &Hypervector) -> Result<(), HdError> {
        let n = self.classes.len();
        let class = self
            .classes
            .get_mut(label)
            .ok_or(HdError::ClassOutOfRange {
                class: label,
                num_classes: n,
            })?;
        class.add_scaled(encoded, 1.0)?;
        self.refresh_class(label);
        Ok(())
    }

    /// Trains a fresh model from encoded hypervectors (Eq. 3).
    ///
    /// # Errors
    ///
    /// Propagates label/dimension errors; returns
    /// [`HdError::EmptyInput`] for an empty training set.
    pub fn train(
        num_classes: usize,
        dim: usize,
        samples: &[(Hypervector, usize)],
    ) -> Result<Self, HdError> {
        if samples.is_empty() {
            return Err(HdError::EmptyInput("training set"));
        }
        let mut model = Self::new(num_classes, dim)?;
        for (h, y) in samples {
            model.bundle(*y, h)?;
        }
        Ok(model)
    }

    /// The compiled scorer every `predict*` method delegates to,
    /// compiled on first use after a mutation and cached.
    pub fn plan(&self) -> &ModelPlan {
        self.plan.get_or_init(|| ModelPlan::build(&self.classes))
    }

    /// Classifies a query using the normalized dot product of Eq. (4);
    /// see [`ModelPlan::predict_dense`].
    ///
    /// # Errors
    ///
    /// [`HdError::DimensionMismatch`], [`HdError::ZeroNorm`] on an
    /// untrained model, [`HdError::NonFinite`] on a NaN score.
    pub fn predict(&self, query: &Hypervector) -> Result<Prediction, HdError> {
        self.plan().predict_dense(query)
    }

    /// The retained naive inference path: one iterator-order dense dot
    /// per class — exactly the pre-kernel scoring arithmetic. Norms come
    /// from the compiled plan (as the pre-kernel path used its norm
    /// cache), so perfsuite's baseline pays only the dots, not a
    /// per-query norm recomputation. Parity tests and the `perfsuite`
    /// speedup baseline compare the plan against this.
    ///
    /// # Errors
    ///
    /// Same contract as [`HdModel::predict`].
    pub fn predict_reference(&self, query: &Hypervector) -> Result<Prediction, HdError> {
        let plan = self.plan();
        plan.check_query(query.dim())?;
        let scores = self
            .classes
            .iter()
            .zip(plan.norms())
            .map(|(class, &norm)| {
                let dot = query.dot(class)?;
                Ok(if norm == 0.0 {
                    f64::NEG_INFINITY
                } else {
                    dot / norm
                })
            })
            .collect::<Result<Vec<f64>, HdError>>()?;
        plan::prediction_from_scores(scores)
    }

    /// Classifies a bit-packed bipolar query — the fast path for
    /// obfuscated queries; see [`ModelPlan::predict_packed`].
    ///
    /// # Errors
    ///
    /// Same contract as [`HdModel::predict`].
    pub fn predict_packed(&self, query: &BipolarHv) -> Result<Prediction, HdError> {
        self.plan().predict_packed(query)
    }

    /// Classification accuracy over a labelled set of encoded queries.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors; returns [`HdError::EmptyInput`] for an
    /// empty test set.
    pub fn accuracy(&self, samples: &[(Hypervector, usize)]) -> Result<f64, HdError> {
        if samples.is_empty() {
            return Err(HdError::EmptyInput("evaluation set"));
        }
        let mut correct = 0usize;
        for (h, y) in samples {
            if self.predict(h)?.class == *y {
                correct += 1;
            }
        }
        Ok(correct as f64 / samples.len() as f64)
    }

    /// Retraining of Eq. (5): iterates over the training set, and for every
    /// misprediction moves the query out of the wrong class and into the
    /// right one. Returns the per-epoch accuracy trace of Fig. 4.
    ///
    /// # Errors
    ///
    /// Propagates label/dimension errors; returns
    /// [`HdError::EmptyInput`] for an empty training set.
    pub fn retrain(
        &mut self,
        samples: &[(Hypervector, usize)],
        config: &RetrainConfig,
    ) -> Result<RetrainReport, HdError> {
        if samples.is_empty() {
            return Err(HdError::EmptyInput("retraining set"));
        }
        let mut report = RetrainReport {
            epoch_accuracy: Vec::new(),
            epoch_updates: Vec::new(),
        };
        for _ in 0..config.epochs {
            let mut updates = 0usize;
            for (h, y) in samples {
                let pred = self.predict(h)?;
                if pred.class != *y {
                    // Eq. (5): C_l += H ; C_l' −= H.
                    self.classes[*y].add_scaled(h, 1.0)?;
                    self.classes[pred.class].add_scaled(h, -1.0)?;
                    self.refresh_class(*y);
                    self.refresh_class(pred.class);
                    updates += 1;
                }
            }
            let acc = self.accuracy(samples)?;
            report.epoch_accuracy.push(acc);
            report.epoch_updates.push(updates);
            if acc >= config.target_accuracy || (config.stop_when_converged && updates == 0) {
                break;
            }
        }
        Ok(report)
    }

    /// Retraining restricted to a prune mask (§III-B1): mispredicted
    /// queries are masked before the Eq. (5) update so pruned dimensions
    /// stay *perpetually* zero.
    ///
    /// # Errors
    ///
    /// Propagates label/dimension errors.
    pub fn retrain_masked(
        &mut self,
        samples: &[(Hypervector, usize)],
        mask: &PruneMask,
        config: &RetrainConfig,
    ) -> Result<RetrainReport, HdError> {
        let masked: Vec<(Hypervector, usize)> = samples
            .iter()
            .map(|(h, y)| {
                let mut m = h.clone();
                mask.apply(&mut m)?;
                Ok((m, *y))
            })
            .collect::<Result<_, HdError>>()?;
        self.retrain(&masked, config)
    }

    /// Applies a prune mask to every class hypervector, zeroing the pruned
    /// dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::DimensionMismatch`] if the mask dimension
    /// differs.
    pub fn apply_mask(&mut self, mask: &PruneMask) -> Result<(), HdError> {
        for c in &mut self.classes {
            mask.apply(c)?;
        }
        self.invalidate();
        Ok(())
    }

    /// Quantizes every class hypervector with `scheme` (used for the
    /// model-compression comparison against prior work \[17\], *not* by
    /// Prive-HD itself, which keeps classes full precision).
    pub fn quantize_classes(&mut self, scheme: QuantScheme) {
        for c in &mut self.classes {
            let sigma = QuantScheme::empirical_sigma(c).max(f64::MIN_POSITIVE);
            *c = scheme.quantize(c, sigma);
        }
        self.invalidate();
    }

    /// Adds `noise[l]` to class `l` — the Gaussian mechanism application
    /// point of Eq. (8). The caller (in `privehd-privacy`) owns noise
    /// generation and calibration.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::InvalidConfig`] if `noise.len()` differs from
    /// the class count, or a dimension error from the addition.
    pub fn add_class_noise(&mut self, noise: &[Hypervector]) -> Result<(), HdError> {
        if noise.len() != self.classes.len() {
            return Err(HdError::InvalidConfig(format!(
                "noise for {} classes supplied to a model with {}",
                noise.len(),
                self.classes.len()
            )));
        }
        for (c, n) in self.classes.iter_mut().zip(noise) {
            c.add_scaled(n, 1.0)?;
        }
        self.invalidate();
        Ok(())
    }

    /// Subtracts model `other` class-wise — the adversary's
    /// model-subtraction step from §III-A used to expose the encoding of a
    /// missing training input.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::InvalidConfig`] on class-count mismatch or a
    /// dimension error.
    pub fn difference(&self, other: &Self) -> Result<Vec<Hypervector>, HdError> {
        if self.classes.len() != other.classes.len() {
            return Err(HdError::InvalidConfig(
                "models have different class counts".to_owned(),
            ));
        }
        self.classes
            .iter()
            .zip(&other.classes)
            .map(|(a, b)| {
                let mut d = a.clone();
                d.add_scaled(b, -1.0)?;
                Ok(d)
            })
            .collect()
    }

    /// Drops the compiled plan; called by mutations that touch many
    /// classes at once.
    fn invalidate(&mut self) {
        self.plan = OnceLock::new();
    }

    /// Refreshes one class row of the compiled plan in place when the
    /// plan exists and is not shared (the common retraining case),
    /// falling back to a full invalidation otherwise. Keeps the
    /// per-update cost at O(dim) instead of a whole-plan rebuild.
    fn refresh_class(&mut self, label: usize) {
        if let (Some(plan), Some(class)) = (self.plan.get_mut(), self.classes.get(label)) {
            if plan.refresh_class(label, class) {
                return;
            }
        }
        self.invalidate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig, ScalarEncoder};

    fn two_cluster_data(enc: &ScalarEncoder, n_per_class: usize) -> Vec<(Hypervector, usize)> {
        let mut out = Vec::new();
        for i in 0..n_per_class {
            let t = (i % 5) as f64 / 50.0;
            let a = vec![0.1 + t, 0.2 + t, 0.1, 0.9 - t, 0.8, 0.9];
            let b = vec![0.9 - t, 0.8, 0.9, 0.1 + t, 0.2, 0.1 + t];
            out.push((enc.encode(&a).unwrap(), 0));
            out.push((enc.encode(&b).unwrap(), 1));
        }
        out
    }

    #[test]
    fn new_validates() {
        assert!(HdModel::new(0, 8).is_err());
        assert!(HdModel::new(2, 0).is_err());
    }

    #[test]
    fn from_classes_checks_dims() {
        let a = Hypervector::zeros(4).unwrap();
        let b = Hypervector::zeros(8).unwrap();
        assert!(HdModel::from_classes(vec![a.clone(), b]).is_err());
        assert!(HdModel::from_classes(vec![]).is_err());
        assert!(HdModel::from_classes(vec![a]).is_ok());
    }

    #[test]
    fn bundle_rejects_bad_label() {
        let mut m = HdModel::new(2, 4).unwrap();
        let h = Hypervector::zeros(4).unwrap();
        assert_eq!(
            m.bundle(2, &h),
            Err(HdError::ClassOutOfRange {
                class: 2,
                num_classes: 2
            })
        );
    }

    #[test]
    fn predict_on_untrained_model_errors() {
        let m = HdModel::new(2, 4).unwrap();
        let h = Hypervector::from_vec(vec![1.0; 4]);
        assert_eq!(m.predict(&h), Err(HdError::ZeroNorm));
    }

    #[test]
    fn train_and_classify_separable_clusters() {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 2_048).with_seed(21)).unwrap();
        let train = two_cluster_data(&enc, 10);
        let model = HdModel::train(2, 2_048, &train).unwrap();
        assert_eq!(model.accuracy(&train).unwrap(), 1.0);
        let qa = enc.encode(&[0.15, 0.25, 0.1, 0.85, 0.8, 0.9]).unwrap();
        let qb = enc.encode(&[0.85, 0.8, 0.95, 0.1, 0.25, 0.1]).unwrap();
        assert_eq!(model.predict(&qa).unwrap().class, 0);
        assert_eq!(model.predict(&qb).unwrap().class, 1);
    }

    #[test]
    fn prediction_scores_are_cosine_like() {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 1_024).with_seed(2)).unwrap();
        let train = two_cluster_data(&enc, 5);
        let model = HdModel::train(2, 1_024, &train).unwrap();
        let q = enc.encode(&[0.1, 0.2, 0.1, 0.9, 0.8, 0.9]).unwrap();
        let p = model.predict(&q).unwrap();
        assert_eq!(p.scores.len(), 2);
        assert!(p.margin() > 0.0);
        // score == dot/||C|| (query norm skipped), so dividing by ||q||
        // recovers a true cosine in [−1, 1].
        let cos = p.score / q.l2_norm();
        assert!((-1.0..=1.0).contains(&cos));
    }

    #[test]
    fn retrain_fixes_a_corrupted_model() {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 2_048).with_seed(5)).unwrap();
        let train = two_cluster_data(&enc, 10);
        let mut model = HdModel::train(2, 2_048, &train).unwrap();
        // Corrupt: swap the two classes partially by bundling cross-class.
        let (h0, _) = &train[0];
        for _ in 0..30 {
            model.bundle(1, h0).unwrap();
        }
        let before = model.accuracy(&train).unwrap();
        let report = model.retrain(&train, &RetrainConfig::default()).unwrap();
        let after = model.accuracy(&train).unwrap();
        assert!(
            after >= before,
            "retraining must not hurt: {before} -> {after}"
        );
        assert!(after > 0.95, "after = {after}");
        assert!(report.epochs_run() >= 1);
    }

    #[test]
    fn retrain_report_tracks_updates() {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 1_024).with_seed(6)).unwrap();
        let train = two_cluster_data(&enc, 8);
        let mut model = HdModel::train(2, 1_024, &train).unwrap();
        let report = model.retrain(&train, &RetrainConfig::default()).unwrap();
        // Perfectly separable: converges with zero updates quickly.
        assert_eq!(*report.epoch_updates.last().unwrap(), 0);
        assert_eq!(report.final_accuracy(), 1.0);
    }

    #[test]
    fn retrain_masked_keeps_pruned_dims_zero() {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 512).with_seed(7)).unwrap();
        let train = two_cluster_data(&enc, 6);
        let mut model = HdModel::train(2, 512, &train).unwrap();
        let mask =
            PruneMask::select(&model, 256, crate::prune::PruneStrategy::LeastEffectual).unwrap();
        model.apply_mask(&mask).unwrap();
        model
            .retrain_masked(&train, &mask, &RetrainConfig::default())
            .unwrap();
        for c in model.classes() {
            for j in mask.pruned_indices() {
                assert_eq!(c[j], 0.0, "pruned dim {j} must stay zero");
            }
        }
    }

    #[test]
    fn difference_recovers_the_missing_input_encoding() {
        // §III-A membership attack: model(D2) − model(D1) = encoding of the
        // extra input.
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 1_024).with_seed(8)).unwrap();
        let train = two_cluster_data(&enc, 5);
        let extra = enc.encode(&[0.3, 0.4, 0.5, 0.6, 0.7, 0.8]).unwrap();
        let m1 = HdModel::train(2, 1_024, &train).unwrap();
        let mut with_extra = train.clone();
        with_extra.push((extra.clone(), 0));
        let m2 = HdModel::train(2, 1_024, &with_extra).unwrap();
        let diff = m2.difference(&m1).unwrap();
        // Floating-point summation order differs, so compare approximately.
        let err: f64 = diff[0]
            .as_slice()
            .iter()
            .zip(extra.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "max abs err = {err}");
        assert!(diff[1].l2_norm() < 1e-9);
    }

    #[test]
    fn add_class_noise_validates_count() {
        let mut m = HdModel::new(2, 8).unwrap();
        let noise = vec![Hypervector::zeros(8).unwrap()];
        assert!(m.add_class_noise(&noise).is_err());
    }

    #[test]
    fn eager_plan_matches_lazy_path() {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 256).with_seed(9)).unwrap();
        let train = two_cluster_data(&enc, 4);
        let a = HdModel::train(2, 256, &train).unwrap();
        let b = a.clone();
        a.plan();
        let q = &train[0].0;
        assert_eq!(a.predict(q).unwrap(), b.predict(q).unwrap());
    }

    /// Compiles `model`'s plan, bundles `update` into class `label`
    /// (refreshing the hot, unshared plan in place), and checks the
    /// plan against a cold compile of the same classes: the same packed
    /// snapshot (or none), bit-identical dense and packed-query
    /// predictions.
    fn assert_refresh_matches_rebuild(mut model: HdModel, label: usize, update: &Hypervector) {
        let dim = model.dim();
        let dense_q = Hypervector::from_vec((0..dim).map(|j| (j as f64 * 0.37).sin()).collect());
        let packed_q = BipolarHv::random(dim, 5);
        model.predict(&dense_q).unwrap(); // compile the plan
        model.bundle(label, update).unwrap();
        let cold = HdModel::from_classes(model.classes().cloned().collect()).unwrap();
        assert_eq!(
            model.plan().packed_memory_bytes(),
            cold.plan().packed_memory_bytes()
        );
        assert_eq!(
            model.predict(&dense_q).unwrap(),
            cold.predict(&dense_q).unwrap()
        );
        assert_eq!(
            model.predict_packed(&packed_q).unwrap(),
            cold.predict_packed(&packed_q).unwrap()
        );
    }

    #[test]
    fn in_place_cache_refresh_matches_full_rebuild() {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 256).with_seed(12)).unwrap();
        let train = two_cluster_data(&enc, 4);
        // Float rows stay float.
        let model = HdModel::train(2, 256, &train).unwrap();
        assert_refresh_matches_rebuild(model.clone(), 1, &train[1].0);
        // A float bundle makes a sign-only model unpackable.
        let mut signs = model;
        signs.quantize_classes(QuantScheme::Bipolar);
        assert!(signs.plan().packed_memory_bytes().is_some());
        assert_refresh_matches_rebuild(signs, 0, &train[1].0);

        let dim = 200;
        let alternating = |a: f64, b: f64| {
            Hypervector::from_vec((0..dim).map(|j| if j % 2 == 0 { a } else { b }).collect())
        };
        // [1, 2, 1, 2, …] + [0, −1, 0, −1, …] makes a float model packable.
        let float =
            HdModel::from_classes(vec![alternating(1.0, 2.0), alternating(-1.0, -1.0)]).unwrap();
        assert!(float.plan().packed_memory_bytes().is_none());
        assert_refresh_matches_rebuild(float, 0, &alternating(0.0, -1.0));
        // ±1 → ±2 keeps a sign-only model packable (packed row refreshed
        // in place).
        let sign =
            HdModel::from_classes(vec![alternating(1.0, -1.0), alternating(-1.0, 1.0)]).unwrap();
        assert_refresh_matches_rebuild(sign, 0, &alternating(1.0, -1.0));
    }

    #[test]
    fn predict_packed_matches_dense_on_bipolar_queries() {
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 512).with_seed(33)).unwrap();
        let train = two_cluster_data(&enc, 6);
        let model = HdModel::train(2, 512, &train).unwrap();
        for seed in 0..10 {
            let packed = BipolarHv::random(512, seed);
            let fast = model.predict_packed(&packed).unwrap();
            let slow = model.predict(&packed.to_dense()).unwrap();
            assert_eq!(fast.class, slow.class, "seed {seed}");
            for (a, b) in fast.scores.iter().zip(&slow.scores) {
                assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sign_only_model_routes_through_packed_matrix() {
        use crate::kernels::ClassMatrix;
        let enc = ScalarEncoder::new(EncoderConfig::new(6, 300).with_seed(41)).unwrap();
        let train = two_cluster_data(&enc, 6);
        let mut model = HdModel::train(2, 300, &train).unwrap();
        // Float accumulator rows do not factor into sign × scale…
        assert!(model.plan().packed_memory_bytes().is_none());
        // …but bipolar-quantized rows do (and the mutation must drop the
        // cached "not packable" answer).
        model.quantize_classes(QuantScheme::Bipolar);
        let plan = model.plan();
        let packed = plan.packed_memory_bytes().expect("±1 rows pack exactly");
        assert!(
            packed * 8 < plan.dense_memory_bytes(),
            "packed snapshot must be far smaller than dense"
        );
        let dense = ClassMatrix::from_classes(&model.classes().cloned().collect::<Vec<_>>());
        for seed in 0..8 {
            let q = BipolarHv::random(300, seed);
            let fast = model.predict_packed(&q).unwrap();
            let mut dense_scores = Vec::new();
            dense.scores_packed_into(q.words(), &mut dense_scores);
            assert_eq!(
                fast.scores, dense_scores,
                "seed {seed}: popcount path must bit-match"
            );
        }
    }

    #[test]
    fn quantized_class_model_still_classifies() {
        // The prior-work baseline [17]: quantize the trained classes.
        let enc = ScalarEncoder::new(EncoderConfig::new(8, 2_048).with_seed(3)).unwrap();
        let mut model = HdModel::new(2, 2_048).unwrap();
        let mut test = Vec::new();
        for i in 0..12 {
            let t = (i % 4) as f64 / 40.0;
            let a: Vec<f64> = (0..8).map(|k| 0.1 + t + 0.02 * k as f64).collect();
            let b: Vec<f64> = (0..8).map(|k| 0.9 - t - 0.02 * k as f64).collect();
            let (ha, hb) = (enc.encode(&a).unwrap(), enc.encode(&b).unwrap());
            if i < 8 {
                model.bundle(0, &ha).unwrap();
                model.bundle(1, &hb).unwrap();
            } else {
                test.push((ha, 0));
                test.push((hb, 1));
            }
        }
        for scheme in [
            QuantScheme::Bipolar,
            QuantScheme::Ternary,
            QuantScheme::TwoBit,
        ] {
            let mut quantized = model.clone();
            quantized.quantize_classes(scheme);
            assert_eq!(quantized.accuracy(&test).unwrap(), 1.0, "{scheme}");
            if scheme == QuantScheme::Bipolar {
                // Fully binary: sign(0) = +1 queries on the popcount kernel.
                for (h, y) in &test {
                    let signs = QuantScheme::Bipolar.quantize_adaptive(h);
                    let packed = BipolarHv::from_signs(signs.as_slice());
                    assert_eq!(quantized.predict_packed(&packed).unwrap().class, *y);
                }
            }
        }
    }

    #[test]
    fn predict_packed_validates_dim_and_norms() {
        let m = HdModel::new(2, 64).unwrap();
        assert_eq!(
            m.predict_packed(&BipolarHv::random(32, 0)),
            Err(HdError::DimensionMismatch {
                expected: 64,
                actual: 32
            })
        );
        assert_eq!(
            m.predict_packed(&BipolarHv::random(64, 0)),
            Err(HdError::ZeroNorm)
        );
    }

    #[test]
    fn accuracy_requires_samples() {
        let m = HdModel::new(2, 4).unwrap();
        assert_eq!(m.accuracy(&[]), Err(HdError::EmptyInput("evaluation set")));
    }
}
