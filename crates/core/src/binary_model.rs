//! The prior-work baseline: fully quantized models (ref. \[17\], F5-HD-style).
//!
//! Fig. 5(a) contrasts Prive-HD's *encoding-only* quantization (class
//! hypervectors accumulate in full precision; 93.1% on ISOLET) against
//! prior model quantization that binarizes **both** encodings and class
//! hypervectors (88.1%). This module implements that baseline two ways:
//!
//! * [`QuantizedClassModel`] — train as usual, then quantize the class
//!   hypervectors with any [`QuantScheme`]; inference is the same
//!   normalized dot product.
//! * [`BinaryHdModel`] — the fully binary associative memory used by
//!   binary HDC accelerators: classes are bit-packed sign vectors and
//!   inference is a Hamming-distance vote, which is the cheapest
//!   possible hardware but gives up the most accuracy.

use serde::{Deserialize, Serialize};

use crate::error::HdError;
use crate::hypervector::{BipolarHv, Hypervector};
use crate::model::{HdModel, Prediction};
use crate::quantize::QuantScheme;

/// Prior-work baseline: a trained model whose class hypervectors are
/// quantized after training.
///
/// # Examples
///
/// ```
/// use privehd_core::{HdModel, Hypervector, QuantScheme};
/// use privehd_core::binary_model::QuantizedClassModel;
///
/// # fn main() -> Result<(), privehd_core::HdError> {
/// let mut model = HdModel::new(2, 4)?;
/// model.bundle(0, &Hypervector::from_vec(vec![3.0, 2.0, -1.0, -2.0]))?;
/// model.bundle(1, &Hypervector::from_vec(vec![-2.0, -3.0, 2.0, 1.0]))?;
/// let baseline = QuantizedClassModel::from_model(&model, QuantScheme::Bipolar);
/// let q = Hypervector::from_vec(vec![1.0, 1.0, -1.0, -1.0]);
/// assert_eq!(baseline.predict(&q)?.class, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedClassModel {
    model: HdModel,
    scheme: QuantScheme,
}

impl QuantizedClassModel {
    /// Quantizes the classes of a trained model with `scheme`
    /// (per-class empirical thresholds).
    pub fn from_model(model: &HdModel, scheme: QuantScheme) -> Self {
        let mut quantized = model.clone();
        quantized.quantize_classes(scheme);
        quantized.refresh_norms();
        Self {
            model: quantized,
            scheme,
        }
    }

    /// The quantization scheme applied to the classes.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// The quantized class hypervectors.
    pub fn model(&self) -> &HdModel {
        &self.model
    }

    /// Classifies a query against the quantized classes.
    ///
    /// # Errors
    ///
    /// Propagates [`HdModel::predict`] errors.
    pub fn predict(&self, query: &Hypervector) -> Result<Prediction, HdError> {
        self.model.predict(query)
    }

    /// Accuracy over encoded `(query, label)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates [`HdModel::accuracy`] errors.
    pub fn accuracy(&self, samples: &[(Hypervector, usize)]) -> Result<f64, HdError> {
        self.model.accuracy(samples)
    }
}

/// A fully binary associative memory: one bit-packed sign vector per
/// class, Hamming-distance inference.
///
/// # Examples
///
/// ```
/// use privehd_core::binary_model::BinaryHdModel;
/// use privehd_core::{HdModel, Hypervector};
///
/// # fn main() -> Result<(), privehd_core::HdError> {
/// let mut model = HdModel::new(2, 64)?;
/// model.bundle(0, &Hypervector::from_vec(vec![1.0; 64]))?;
/// model.bundle(1, &Hypervector::from_vec(vec![-1.0; 64]))?;
/// let binary = BinaryHdModel::from_model(&model)?;
/// let query = Hypervector::from_vec(vec![0.5; 64]);
/// assert_eq!(binary.predict(&query)?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryHdModel {
    classes: Vec<BipolarHv>,
    dim: usize,
}

impl BinaryHdModel {
    /// Binarizes the class hypervectors of a trained model (sign of each
    /// dimension; `sign(0) = +1`, matching [`QuantScheme::Bipolar`]).
    ///
    /// # Errors
    ///
    /// Returns [`HdError::EmptyInput`] for a model with no classes (not
    /// constructible through the public API, but checked for safety).
    pub fn from_model(model: &HdModel) -> Result<Self, HdError> {
        // `BipolarHv::from_signs` maps 0 to −1, so the raw class values
        // go through `sign_vector` (0 → +1) first.
        let classes: Vec<BipolarHv> = model
            .classes()
            .map(|class| BipolarHv::from_signs(&sign_vector(class)))
            .collect();
        if classes.is_empty() {
            return Err(HdError::EmptyInput("class hypervectors"));
        }
        Ok(Self {
            classes,
            dim: model.dim(),
        })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The bit-packed class vectors.
    pub fn classes(&self) -> &[BipolarHv] {
        &self.classes
    }

    /// Classifies a dense query: binarize, then nearest class by Hamming
    /// distance.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::DimensionMismatch`] for a wrong query
    /// dimension.
    pub fn predict(&self, query: &Hypervector) -> Result<usize, HdError> {
        if query.dim() != self.dim {
            return Err(HdError::DimensionMismatch {
                expected: self.dim,
                actual: query.dim(),
            });
        }
        let q = BipolarHv::from_signs(&sign_vector(query));
        self.predict_bipolar(&q)
    }

    /// Classifies an already-binarized query (the hardware-native path:
    /// pure XOR + popcount).
    ///
    /// # Errors
    ///
    /// Returns [`HdError::DimensionMismatch`] for a wrong query
    /// dimension.
    pub fn predict_bipolar(&self, query: &BipolarHv) -> Result<usize, HdError> {
        let mut best = 0usize;
        let mut best_distance = usize::MAX;
        for (label, class) in self.classes.iter().enumerate() {
            let d = query.hamming(class)?;
            if d < best_distance {
                best_distance = d;
                best = label;
            }
        }
        Ok(best)
    }

    /// Accuracy over encoded `(query, label)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors; errors on an empty set.
    pub fn accuracy(&self, samples: &[(Hypervector, usize)]) -> Result<f64, HdError> {
        if samples.is_empty() {
            return Err(HdError::EmptyInput("evaluation set"));
        }
        let mut correct = 0usize;
        for (h, y) in samples {
            if self.predict(h)? == *y {
                correct += 1;
            }
        }
        Ok(correct as f64 / samples.len() as f64)
    }

    /// Model size in bits — the compression argument of ref. \[17\]
    /// (`|C| · D` bits vs `|C| · D · 64` for full precision).
    pub fn size_bits(&self) -> usize {
        self.classes.len() * self.dim
    }
}

fn sign_vector(h: &Hypervector) -> Vec<f64> {
    h.as_slice()
        .iter()
        .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig, ScalarEncoder};

    fn trained() -> (HdModel, Vec<(Hypervector, usize)>) {
        let enc = ScalarEncoder::new(EncoderConfig::new(8, 2_048).with_seed(3)).unwrap();
        let mut model = HdModel::new(2, 2_048).unwrap();
        let mut test = Vec::new();
        for i in 0..12 {
            let t = (i % 4) as f64 / 40.0;
            let a: Vec<f64> = (0..8).map(|k| 0.1 + t + 0.02 * k as f64).collect();
            let b: Vec<f64> = (0..8).map(|k| 0.9 - t - 0.02 * k as f64).collect();
            let ha = enc.encode(&a).unwrap();
            let hb = enc.encode(&b).unwrap();
            if i < 8 {
                model.bundle(0, &ha).unwrap();
                model.bundle(1, &hb).unwrap();
            } else {
                test.push((ha, 0));
                test.push((hb, 1));
            }
        }
        (model, test)
    }

    #[test]
    fn quantized_class_model_still_classifies() {
        let (model, test) = trained();
        for scheme in [
            QuantScheme::Bipolar,
            QuantScheme::Ternary,
            QuantScheme::TwoBit,
        ] {
            let q = QuantizedClassModel::from_model(&model, scheme);
            assert_eq!(q.accuracy(&test).unwrap(), 1.0, "{scheme}");
            assert_eq!(q.scheme(), scheme);
        }
    }

    #[test]
    fn quantized_classes_live_in_the_alphabet() {
        let (model, _) = trained();
        let q = QuantizedClassModel::from_model(&model, QuantScheme::Ternary);
        for c in q.model().classes() {
            for &v in c.as_slice() {
                assert!([-1.0, 0.0, 1.0].contains(&v));
            }
        }
    }

    #[test]
    fn binary_model_classifies_separable_data() {
        let (model, test) = trained();
        let binary = BinaryHdModel::from_model(&model).unwrap();
        assert_eq!(binary.accuracy(&test).unwrap(), 1.0);
        assert_eq!(binary.num_classes(), 2);
        assert_eq!(binary.dim(), 2_048);
    }

    #[test]
    fn binary_model_is_64x_smaller() {
        let (model, _) = trained();
        let binary = BinaryHdModel::from_model(&model).unwrap();
        let full_bits = model.num_classes() * model.dim() * 64;
        assert_eq!(binary.size_bits() * 64, full_bits);
    }

    #[test]
    fn binary_predict_checks_dimensions() {
        let (model, _) = trained();
        let binary = BinaryHdModel::from_model(&model).unwrap();
        let wrong = Hypervector::zeros(64).unwrap();
        assert!(binary.predict(&wrong).is_err());
    }

    #[test]
    fn bipolar_fast_path_matches_dense_path() {
        let (model, test) = trained();
        let binary = BinaryHdModel::from_model(&model).unwrap();
        for (h, _) in &test {
            let dense = binary.predict(h).unwrap();
            let packed = BipolarHv::from_signs(&sign_vector(h));
            assert_eq!(dense, binary.predict_bipolar(&packed).unwrap());
        }
    }

    #[test]
    fn zero_class_dimensions_binarize_to_plus_one() {
        let mut model = HdModel::new(2, 70).unwrap();
        let row: Vec<f64> = (0..70)
            .map(|j| match j % 3 {
                0 => 0.0,
                1 => 2.5,
                _ => -1.5,
            })
            .collect();
        model.bundle(0, &Hypervector::from_vec(row)).unwrap();
        let binary = BinaryHdModel::from_model(&model).unwrap();
        for j in 0..70 {
            let expected = if j % 3 == 2 { -1.0 } else { 1.0 };
            assert_eq!(binary.classes()[0].sign(j), expected, "dim {j}");
            // Class 1 was never trained: every dimension is exactly 0.
            assert_eq!(binary.classes()[1].sign(j), 1.0, "dim {j}");
        }
    }

    #[test]
    fn full_precision_classes_never_lose_to_binary_on_margin() {
        // The Fig. 5(a) argument: keeping classes full precision retains
        // strictly more information, so accuracy(full) >= accuracy(binary)
        // on the same queries.
        let (model, test) = trained();
        let full_acc = model.accuracy(&test).unwrap();
        let binary_acc = BinaryHdModel::from_model(&model)
            .unwrap()
            .accuracy(&test)
            .unwrap();
        assert!(full_acc >= binary_acc);
    }
}
