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

use privehd_core::kernels::scalar_encode_packed;
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
    /// against `encoder` ([`EncodePlan::from_obfuscator`], so the
    /// permutation built for `obfuscator` is reused, not
    /// re-materialized): [`ClientEdge::prepare`] is a single
    /// table-driven pass, bit-identical to the generic composition.
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
        let plan = EncodePlan::from_obfuscator(&encoder, &obfuscator)?;
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
    /// never computed), bit-identical to
    /// `obfuscator().obfuscate(&encoder().encode(features)?)` for finite
    /// features.
    ///
    /// # Errors
    ///
    /// Propagates feature-count errors as [`ServeError::Model`], and
    /// refuses a NaN feature value the same way
    /// ([`HdError::NonFinite`]): a quantizing obfuscation would
    /// otherwise turn the poisoned encoding into a confident query (a
    /// bipolar edge sends every kept dimension as `−1`).
    pub fn prepare(&self, features: &[f64]) -> Result<Hypervector, ServeError> {
        if features.iter().any(|v| v.is_nan()) {
            return Err(nan_feature_error());
        }
        Ok(self.plan.apply(&self.encoder, features)?)
    }

    /// Encodes raw features straight into the bit-packed bipolar wire
    /// representation — 1 bit/dim, never materializing the dense
    /// encoding or its `f64` quantization.
    ///
    /// The fused kernel ([`scalar_encode_packed`]) resolves each
    /// dimension's sign in exact integer arithmetic, so the result
    /// equals `prepare(features)` bipolar-quantized, bit for bit — but
    /// with no `f64` accumulator and 1/64th the payload.
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
    ServeError::Model(HdError::NonFinite("features"))
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
    fn packed_preparation_matches_dense_prepare() {
        // Unmasked bipolar edge: the fused packed encode must equal the
        // dense encode ∘ obfuscate path sign for sign.
        let e = edge(0);
        for i in 0..8 {
            let x: Vec<f64> = (0..6).map(|k| ((3 * i + k) % 11) as f64 / 10.0).collect();
            let packed = e.prepare_packed(&x).unwrap();
            assert_eq!(packed.to_dense(), e.prepare(&x).unwrap(), "packed == dense");
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
    }

    #[test]
    fn packed_preparation_rejects_nan_and_bad_arity() {
        let e = edge(0);
        assert!(e.prepare_packed(&[0.5; 4]).is_err(), "feature count");
        let mut x = vec![0.5; 6];
        x[3] = f64::NAN;
        assert!(e.prepare_packed(&x).is_err(), "NaN feature");
    }

    #[test]
    fn quantizing_edges_refuse_nan_features() {
        // Encoded, a NaN feature poisons every dimension; quantized, it
        // would leave as a confident query (Bipolar sends each kept
        // dimension as −1, Ternary all zeros). Every scheme refuses it.
        let mut x = vec![0.5; 6];
        x[3] = f64::NAN;
        for scheme in QuantScheme::ALL {
            for masked in [0, 256] {
                let e = ClientEdge::new(
                    EncoderConfig::new(6, 512).with_seed(9),
                    ObfuscateConfig::new(scheme).with_masked_dims(masked),
                )
                .unwrap();
                assert_eq!(
                    e.prepare(&x),
                    Err(ServeError::Model(HdError::NonFinite("features"))),
                    "{scheme}, {masked} masked"
                );
            }
        }
        assert_eq!(
            edge(0).prepare_packed(&x),
            Err(ServeError::Model(HdError::NonFinite("features")))
        );
    }
}
