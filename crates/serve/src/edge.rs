//! The client-side (edge) pipeline: encode locally, obfuscate, offload.
//!
//! Prive-HD's threat model (§III-C of the paper) keeps raw features and
//! full-precision encodings on the device; the untrusted host only ever
//! receives a quantized, dimension-masked hypervector. [`ClientEdge`]
//! packages that contract: it owns a [`ScalarEncoder`] and an
//! [`Obfuscator`] built for the same dimensionality, and queries leave
//! it only through [`ClientEdge::prepare`] (dense, any obfuscation) or
//! [`ClientEdge::prepare_packed`] (bit-packed, bipolar-unmasked
//! obfuscation — the 1-bit/dim wire representation).

use privehd_core::kernels::{scalar_encode_packed, scalar_encode_packed_batch};
use privehd_core::{
    BipolarHv, EncodePlan, Encoder, EncoderConfig, HdError, Hypervector, ObfuscateConfig,
    Obfuscator, QuantScheme, ScalarEncoder,
};

use crate::error::ServeError;

/// Edge-device query preparation: `ScalarEncoder` ∘ `Obfuscator`.
///
/// # Examples
///
/// ```
/// use privehd_core::{EncoderConfig, ObfuscateConfig, QuantScheme};
/// use privehd_serve::ClientEdge;
///
/// # fn main() -> Result<(), privehd_serve::ServeError> {
/// let edge = ClientEdge::new(
///     EncoderConfig::new(8, 1_024).with_seed(5),
///     ObfuscateConfig::new(QuantScheme::Bipolar).with_masked_dims(256),
/// )?;
/// let sent = edge.prepare(&[0.1, 0.9, 0.4, 0.2, 0.8, 0.3, 0.6, 0.5])?;
/// // Only ±1 and masked-out zeros ever leave the device.
/// assert!(sent.as_slice().iter().all(|v| v.abs() <= 1.0));
/// assert_eq!(sent.count_zeros(), 256);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClientEdge {
    encoder: ScalarEncoder,
    obfuscator: Obfuscator,
    /// The encode∘obfuscate transform compiled once at construction
    /// ([`EncodePlan::from_obfuscator`], so the permutation built for
    /// `obfuscator` is reused, not re-materialized): [`ClientEdge::prepare`]
    /// is a single table-driven pass, bit-identical to the generic
    /// composition.
    plan: EncodePlan,
}

impl ClientEdge {
    /// Builds the edge pipeline; the obfuscator is sized to the
    /// encoder's output dimensionality, and the encode∘obfuscate plan is
    /// compiled here, once — per-query preparation never rebuilds the
    /// permutation.
    ///
    /// # Errors
    ///
    /// Propagates encoder/obfuscator construction errors as
    /// [`ServeError::Model`].
    pub fn new(
        encoder_config: EncoderConfig,
        obfuscate_config: ObfuscateConfig,
    ) -> Result<Self, ServeError> {
        let encoder = ScalarEncoder::new(encoder_config)?;
        let obfuscator = Obfuscator::new(encoder.dim(), obfuscate_config)?;
        let plan = EncodePlan::from_obfuscator(&obfuscator);
        Ok(Self {
            encoder,
            obfuscator,
            plan,
        })
    }

    /// Encodes raw features and obfuscates the encoding — the exact
    /// hypervector an edge device would put on the wire.
    ///
    /// Runs the [`EncodePlan`] compiled at construction: one
    /// table-driven pass (for bipolar obfuscation, masked dimensions are
    /// never even accumulated), bit-identical to
    /// `obfuscator().obfuscate(&encoder().encode(features)?)`.
    ///
    /// # Errors
    ///
    /// Propagates feature-count/dimension errors as [`ServeError::Model`].
    pub fn prepare(&self, features: &[f64]) -> Result<Hypervector, ServeError> {
        Ok(self.plan.apply(&self.encoder, features)?)
    }

    /// Prepares a batch of feature vectors: the whole batch is encoded
    /// through [`Encoder::encode_batch`] (which fans chunks out over the
    /// `privehd_core` pool's scoped lanes), then obfuscated.
    ///
    /// # Errors
    ///
    /// Propagates the first *encoding* error (in input order), then the
    /// first *obfuscation* error — the two phases run batch-wide, not
    /// interleaved per input. (For a constructed `ClientEdge` the
    /// obfuscator is sized to the encoder, so in practice only encoding
    /// errors occur.)
    pub fn prepare_batch(&self, inputs: &[Vec<f64>]) -> Result<Vec<Hypervector>, ServeError> {
        let encoded = self.encoder.encode_batch(inputs)?;
        encoded
            .iter()
            .map(|h| Ok(self.obfuscator.obfuscate(h)?))
            .collect()
    }

    /// Encodes raw features straight into the bit-packed bipolar wire
    /// representation — 1 bit/dim, never materializing the dense
    /// encoding or its `f64` quantization.
    ///
    /// The fused kernel ([`scalar_encode_packed`]) resolves each
    /// dimension's sign with integer popcount arithmetic, so the result
    /// equals `prepare(features)` bipolar-quantized, bit for bit — but
    /// at a fraction of the encode cost and 1/64th the payload.
    ///
    /// Only edges configured with [`QuantScheme::Bipolar`] and **zero
    /// masked dimensions** can prepare packed queries: a masked
    /// dimension is an exact `0.0`, which one bit cannot carry. Masked
    /// edges must keep using [`ClientEdge::prepare`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] for a non-bipolar or masked obfuscation
    /// configuration, a wrong feature count, or a NaN feature value
    /// (the packed grid quantization has no NaN it could propagate).
    pub fn prepare_packed(&self, features: &[f64]) -> Result<BipolarHv, ServeError> {
        self.require_packable()?;
        self.require_feature_count(features)?;
        scalar_encode_packed(
            self.encoder.item_memory_transposed(),
            features,
            self.encoder.config().levels,
        )
        .ok_or_else(nan_feature_error)
    }

    /// Batch form of [`ClientEdge::prepare_packed`]: amortizes the
    /// item-memory traffic across the whole batch (each transposed row
    /// streams once per batch instead of once per query).
    ///
    /// # Errors
    ///
    /// Same contract as [`ClientEdge::prepare_packed`]; a NaN anywhere
    /// in the batch fails the whole call (batch-wide, like
    /// [`ClientEdge::prepare_batch`]'s phases).
    pub fn prepare_batch_packed(&self, inputs: &[Vec<f64>]) -> Result<Vec<BipolarHv>, ServeError> {
        self.require_packable()?;
        for x in inputs {
            self.require_feature_count(x)?;
        }
        let slices: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        scalar_encode_packed_batch(
            self.encoder.item_memory_transposed(),
            &slices,
            self.encoder.config().levels,
        )
        .ok_or_else(nan_feature_error)
    }

    fn require_packable(&self) -> Result<(), ServeError> {
        let cfg = self.obfuscator.config();
        if cfg.scheme != QuantScheme::Bipolar || cfg.masked_dims != 0 {
            return Err(ServeError::Model(HdError::InvalidConfig(
                "packed preparation needs a bipolar, unmasked obfuscation \
                 (1 bit/dim cannot carry masked-out zeros)"
                    .to_owned(),
            )));
        }
        Ok(())
    }

    fn require_feature_count(&self, features: &[f64]) -> Result<(), ServeError> {
        if features.len() != self.encoder.features() {
            return Err(ServeError::Model(HdError::FeatureCountMismatch {
                expected: self.encoder.features(),
                actual: features.len(),
            }));
        }
        Ok(())
    }

    /// Number of input features the edge expects.
    pub fn features(&self) -> usize {
        self.encoder.features()
    }

    /// Hypervector dimensionality of prepared queries.
    pub fn dim(&self) -> usize {
        self.encoder.dim()
    }

    /// Bits on the wire per prepared query (the §III-C transfer saving).
    pub fn payload_bits(&self) -> usize {
        self.obfuscator.payload_bits()
    }

    /// The underlying encoder (the server needs the same basis to train
    /// the model the obfuscated queries are matched against).
    pub fn encoder(&self) -> &ScalarEncoder {
        &self.encoder
    }

    /// The underlying obfuscator.
    pub fn obfuscator(&self) -> &Obfuscator {
        &self.obfuscator
    }

    /// The encode∘obfuscate plan compiled at construction — the
    /// transform [`ClientEdge::prepare`] actually runs.
    pub fn plan(&self) -> &EncodePlan {
        &self.plan
    }
}

fn nan_feature_error() -> ServeError {
    ServeError::Model(HdError::InvalidConfig(
        "packed preparation rejects NaN feature values".to_owned(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(masked: usize) -> ClientEdge {
        ClientEdge::new(
            EncoderConfig::new(6, 512).with_seed(9),
            ObfuscateConfig::new(QuantScheme::Bipolar)
                .with_masked_dims(masked)
                .with_seed(3),
        )
        .unwrap()
    }

    #[test]
    fn prepare_matches_manual_composition() {
        let e = edge(128);
        let x = [0.1, 0.4, 0.9, 0.2, 0.7, 0.5];
        let manual = e
            .obfuscator()
            .obfuscate(&e.encoder().encode(&x).unwrap())
            .unwrap();
        assert_eq!(e.prepare(&x).unwrap(), manual);
    }

    #[test]
    fn prepared_queries_are_obfuscated() {
        let e = edge(100);
        let sent = e.prepare(&[0.3, 0.9, 0.1, 0.6, 0.2, 0.8]).unwrap();
        assert_eq!(sent.dim(), 512);
        assert_eq!(sent.count_zeros(), 100);
        for &v in sent.as_slice() {
            assert!(v == 0.0 || v == 1.0 || v == -1.0, "leaked value {v}");
        }
        assert_eq!(e.payload_bits(), 412);
    }

    #[test]
    fn feature_count_is_enforced() {
        let e = edge(0);
        assert!(e.prepare(&[0.5; 4]).is_err());
        assert_eq!(e.features(), 6);
    }

    #[test]
    fn batch_preparation_agrees_with_single() {
        let e = edge(32);
        let inputs: Vec<Vec<f64>> = (0..10)
            .map(|i| (0..6).map(|k| ((i + k) % 7) as f64 / 6.0).collect())
            .collect();
        let batch = e.prepare_batch(&inputs).unwrap();
        for (x, b) in inputs.iter().zip(&batch) {
            assert_eq!(&e.prepare(x).unwrap(), b);
        }
    }

    #[test]
    fn packed_preparation_matches_dense_prepare() {
        // Unmasked bipolar edge: the fused packed encode must equal the
        // dense encode ∘ obfuscate path sign for sign.
        let e = edge(0);
        let inputs: Vec<Vec<f64>> = (0..8)
            .map(|i| (0..6).map(|k| ((3 * i + k) % 11) as f64 / 10.0).collect())
            .collect();
        let batch = e.prepare_batch_packed(&inputs).unwrap();
        for (x, p) in inputs.iter().zip(&batch) {
            assert_eq!(&e.prepare_packed(x).unwrap(), p, "single == batch");
            assert_eq!(p.to_dense(), e.prepare(x).unwrap(), "packed == dense");
        }
    }

    #[test]
    fn packed_preparation_requires_unmasked_bipolar() {
        // Masked dims are exact zeros — not representable in 1 bit.
        assert!(edge(100).prepare_packed(&[0.5; 6]).is_err());
        let ternary = ClientEdge::new(
            EncoderConfig::new(6, 512).with_seed(9),
            ObfuscateConfig::new(QuantScheme::Ternary),
        )
        .unwrap();
        assert!(ternary.prepare_packed(&[0.5; 6]).is_err());
        assert!(ternary.prepare_batch_packed(&[vec![0.5; 6]]).is_err());
    }

    #[test]
    fn packed_preparation_rejects_nan_and_bad_arity() {
        let e = edge(0);
        assert!(e.prepare_packed(&[0.5; 4]).is_err(), "feature count");
        let mut x = vec![0.5; 6];
        x[3] = f64::NAN;
        assert!(e.prepare_packed(&x).is_err(), "NaN feature");
        assert!(
            e.prepare_batch_packed(&[vec![0.5; 6], x]).is_err(),
            "NaN fails the whole batch"
        );
    }
}
