//! The two HD encodings of Eq. (2).
//!
//! * [`ScalarEncoder`] — Eq. (2a): `H = Σ_k v_k · B_k`. The scalar feature
//!   value multiplies its base hypervector directly. This is the encoding
//!   whose reversibility (Eq. 9–10) the paper demonstrates, so it is the
//!   one used by the decoding attack and the inference-privacy
//!   experiments.
//! * [`LevelEncoder`] — Eq. (2b): `H = Σ_k (L_{v_k} ⊛ B_k)`. Each feature
//!   value is first quantized to one of `ℓ_iv` level hypervectors, which is
//!   bound (XNOR) to the base hypervector. Both operands are bipolar, which
//!   is what makes the LUT-based hardware implementation of §III-D
//!   possible.
//!
//! Both encoders implement the common [`Encoder`] trait so models,
//! pruning, quantization and the experiment harness are generic over the
//! encoding.

use serde::{Deserialize, Serialize};

use crate::basis::{BasisGenerator, ItemMemory, LevelMemory};
use crate::error::HdError;
use crate::hypervector::Hypervector;
use crate::kernels::{level_encode_majority, scalar_encode_level_sliced, TransposedItemMemory};
use crate::pool;
use crate::prune::PruneMask;

/// Configuration shared by both encoders.
///
/// # Examples
///
/// ```
/// use privehd_core::{EncoderConfig, ScalarEncoder};
///
/// # fn main() -> Result<(), privehd_core::HdError> {
/// let cfg = EncoderConfig::new(617, 10_000).with_seed(42).with_levels(100);
/// let enc = ScalarEncoder::new(cfg)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Number of input features `D_iv`.
    pub features: usize,
    /// Hypervector dimensionality `D_hv`.
    pub dim: usize,
    /// Number of feature quantization levels `ℓ_iv` (used by
    /// [`LevelEncoder`]; [`ScalarEncoder`] quantizes its input to the same
    /// grid so the two encodings see identical information).
    pub levels: usize,
    /// Master seed for all random hypervectors.
    pub seed: u64,
}

impl EncoderConfig {
    /// Creates a configuration with the paper-typical defaults:
    /// 100 levels and seed 0.
    pub fn new(features: usize, dim: usize) -> Self {
        Self {
            features,
            dim,
            levels: 100,
            seed: 0,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of feature levels `ℓ_iv`.
    #[must_use]
    pub fn with_levels(mut self, levels: usize) -> Self {
        self.levels = levels;
        self
    }

    fn validate(&self) -> Result<(), HdError> {
        if self.dim == 0 {
            return Err(HdError::EmptyDimension);
        }
        if self.features == 0 {
            return Err(HdError::InvalidConfig(
                "encoder needs at least one feature".to_owned(),
            ));
        }
        if self.levels < 2 {
            return Err(HdError::InvalidConfig(
                "encoder needs at least two feature levels".to_owned(),
            ));
        }
        Ok(())
    }
}

/// An HD encoder: maps a normalized feature vector (values in `[0, 1]`)
/// to an encoded hypervector `H` of dimension `D_hv`.
pub trait Encoder: Send + Sync {
    /// Encodes one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::FeatureCountMismatch`] if `input.len()` differs
    /// from the configured feature count.
    fn encode(&self, input: &[f64]) -> Result<Hypervector, HdError>;

    /// Encodes one feature vector, skipping pruned dimensions.
    ///
    /// Dimensions masked out by `mask` are left at zero and never
    /// computed — this is the "we do not anymore need to obtain the
    /// corresponding indexes of queries" saving of §III-B1.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::FeatureCountMismatch`] on a wrong feature count
    /// and [`HdError::DimensionMismatch`] if the mask dimension differs.
    fn encode_masked(&self, input: &[f64], mask: &PruneMask) -> Result<Hypervector, HdError>;

    /// Number of input features `D_iv`.
    fn features(&self) -> usize;

    /// Hypervector dimensionality `D_hv`.
    fn dim(&self) -> usize;

    /// Encodes one feature vector through the retained naive path — the
    /// arithmetic reference the kernel parity tests compare against.
    ///
    /// The default implementation is the tuned [`Encoder::encode`];
    /// encoders with a separate fast path override this with their
    /// straightforward per-feature accumulation.
    ///
    /// # Errors
    ///
    /// Same contract as [`Encoder::encode`].
    fn encode_reference(&self, input: &[f64]) -> Result<Hypervector, HdError> {
        self.encode(input)
    }

    /// Encodes a batch of inputs in parallel.
    ///
    /// The default implementation fans chunks out over the scoped lanes
    /// of [`crate::pool`]; encoders are immutable after construction so
    /// sharing is free.
    ///
    /// # Errors
    ///
    /// Propagates the first encoding error encountered.
    fn encode_batch(&self, inputs: &[Vec<f64>]) -> Result<Vec<Hypervector>, HdError>
    where
        Self: Sized,
    {
        encode_batch_parallel(self, inputs)
    }
}

/// Parallel batch encoding helper shared by both encoders: chunks the
/// batch over the pool's scoped lanes, one chunk per lane, so each call
/// spawns at most `threads()` threads (and sets up their encode scratch
/// once) for the whole batch.
fn encode_batch_parallel<E: Encoder + ?Sized>(
    encoder: &E,
    inputs: &[Vec<f64>],
) -> Result<Vec<Hypervector>, HdError> {
    let pool = pool::global();
    let lanes = (pool.threads() + 1).min(inputs.len().max(1));
    if lanes <= 1 || inputs.len() < 32 {
        return inputs.iter().map(|x| encoder.encode(x)).collect();
    }
    let chunk = inputs.len().div_ceil(lanes);
    let tasks = inputs.len().div_ceil(chunk);
    let results: Vec<Result<Vec<Hypervector>, HdError>> = pool.map(tasks, |t| {
        inputs[t * chunk..((t + 1) * chunk).min(inputs.len())]
            .iter()
            .map(|x| encoder.encode(x))
            .collect()
    });
    let mut out = Vec::with_capacity(inputs.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// The scalar-weight encoding of Eq. (2a): `H = Σ_k v_k · B_k`.
///
/// Feature values are first snapped to the `ℓ_iv`-level grid of Eq. (1)
/// (`f_0 … f_{ℓ−1}` uniformly spaced in `[0, 1]`), then each level value
/// multiplies its bipolar base hypervector and everything is accumulated.
///
/// # Examples
///
/// ```
/// use privehd_core::{Encoder, EncoderConfig, ScalarEncoder};
///
/// # fn main() -> Result<(), privehd_core::HdError> {
/// let enc = ScalarEncoder::new(EncoderConfig::new(3, 1024).with_seed(1))?;
/// let h = enc.encode(&[0.2, 0.9, 0.5])?;
/// assert_eq!(h.dim(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScalarEncoder {
    config: EncoderConfig,
    item_memory: ItemMemory,
    /// Byte-plane transpose of the item memory, consumed by the
    /// level-sliced encode kernels.
    item_memory_t: TransposedItemMemory,
}

impl ScalarEncoder {
    /// Builds the encoder, generating its item memory (and the
    /// byte-plane transpose the encode kernels run on) from the seed.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::InvalidConfig`] / [`HdError::EmptyDimension`] on
    /// a bad configuration, including `features·(levels−1)` above
    /// `u32::MAX`: the encode kernels count `Σ_k g_k` over a
    /// dimension's positive features in 32 bits.
    pub fn new(config: EncoderConfig) -> Result<Self, HdError> {
        config.validate()?;
        if config
            .features
            .checked_mul(config.levels - 1)
            .is_none_or(|n| n > u32::MAX as usize)
        {
            return Err(HdError::InvalidConfig(
                "scalar encoder needs features·(levels−1) ≤ u32::MAX".to_owned(),
            ));
        }
        let item_memory =
            BasisGenerator::new(config.seed).item_memory(config.features, config.dim)?;
        let item_memory_t = TransposedItemMemory::from_item_memory(&item_memory);
        Ok(Self {
            config,
            item_memory,
            item_memory_t,
        })
    }

    /// The byte-plane transpose of the item memory.
    pub fn item_memory_transposed(&self) -> &TransposedItemMemory {
        &self.item_memory_t
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The item memory (base hypervectors). Exposed because the decoding
    /// attack of Eq. (9)–(10) needs exactly these vectors.
    pub fn item_memory(&self) -> &ItemMemory {
        &self.item_memory
    }

    /// Snaps a normalized value to the `ℓ_iv`-level grid of Eq. (1).
    pub fn snap_to_level(&self, value: f64) -> f64 {
        snap(value, self.config.levels)
    }
}

/// Quantizes `value ∈ [0,1]` to the nearest of `levels` uniformly spaced
/// feature values `f_0=0 … f_{ℓ−1}=1`.
fn snap(value: f64, levels: usize) -> f64 {
    let clamped = value.clamp(0.0, 1.0);
    let steps = (levels - 1) as f64;
    (clamped * steps).round() / steps
}

impl Encoder for ScalarEncoder {
    fn encode(&self, input: &[f64]) -> Result<Hypervector, HdError> {
        if input.len() != self.config.features {
            return Err(HdError::FeatureCountMismatch {
                expected: self.config.features,
                actual: input.len(),
            });
        }
        Ok(Hypervector::from_vec(scalar_encode_level_sliced(
            &self.item_memory_t,
            input,
            self.config.levels,
        )))
    }

    fn encode_reference(&self, input: &[f64]) -> Result<Hypervector, HdError> {
        if input.len() != self.config.features {
            return Err(HdError::FeatureCountMismatch {
                expected: self.config.features,
                actual: input.len(),
            });
        }
        let dim = self.config.dim;
        let mut acc = vec![0.0f64; dim];
        for (k, &raw) in input.iter().enumerate() {
            let v = snap(raw, self.config.levels);
            if v == 0.0 {
                continue;
            }
            let base = self.item_memory.base(k);
            // acc_j += v * sign_j: walk the packed words.
            accumulate_signed(&mut acc, base.words(), v, dim);
        }
        Ok(Hypervector::from_vec(acc))
    }

    fn encode_masked(&self, input: &[f64], mask: &PruneMask) -> Result<Hypervector, HdError> {
        let mut h = self.encode(input)?;
        mask.apply(&mut h)?;
        Ok(h)
    }

    fn features(&self) -> usize {
        self.config.features
    }

    fn dim(&self) -> usize {
        self.config.dim
    }
}

/// The record / level-binding encoding of Eq. (2b):
/// `H = Σ_k (L_{v_k} ⊛ B_k)` where `⊛` is the bipolar bind (XNOR).
///
/// Every summand is a bipolar hypervector, so each dimension of `H` is the
/// sum of `D_iv` values in `{−1,+1}` — the quantity the LUT-6 majority
/// hardware of §III-D computes.
///
/// # Examples
///
/// ```
/// use privehd_core::{Encoder, EncoderConfig, LevelEncoder};
///
/// # fn main() -> Result<(), privehd_core::HdError> {
/// let enc = LevelEncoder::new(EncoderConfig::new(3, 1024).with_levels(16))?;
/// let h = enc.encode(&[0.2, 0.9, 0.5])?;
/// // Every dimension is a sum of 3 values in {−1, +1}.
/// assert!(h.as_slice().iter().all(|v| v.abs() <= 3.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LevelEncoder {
    config: EncoderConfig,
    item_memory: ItemMemory,
    level_memory: LevelMemory,
}

impl LevelEncoder {
    /// Builds the encoder, generating item and level memories from the
    /// seed.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::InvalidConfig`] / [`HdError::EmptyDimension`] on
    /// a bad configuration.
    pub fn new(config: EncoderConfig) -> Result<Self, HdError> {
        config.validate()?;
        let gen = BasisGenerator::new(config.seed);
        let item_memory = gen.item_memory(config.features, config.dim)?;
        let level_memory = gen.level_memory(config.levels, config.dim)?;
        Ok(Self {
            config,
            item_memory,
            level_memory,
        })
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The item memory (base hypervectors).
    pub fn item_memory(&self) -> &ItemMemory {
        &self.item_memory
    }

    /// The level memory (level hypervector chain).
    pub fn level_memory(&self) -> &LevelMemory {
        &self.level_memory
    }

    /// Returns, for each feature of `input`, the bipolar summand
    /// `L_{v_k} ⊛ B_k` as packed words — the exact bit matrix the hardware
    /// pipeline of `privehd-hw` consumes.
    ///
    /// # Errors
    ///
    /// Returns [`HdError::FeatureCountMismatch`] on a wrong feature count.
    pub fn bound_rows(&self, input: &[f64]) -> Result<Vec<crate::hypervector::BipolarHv>, HdError> {
        if input.len() != self.config.features {
            return Err(HdError::FeatureCountMismatch {
                expected: self.config.features,
                actual: input.len(),
            });
        }
        input
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                self.level_memory
                    .level_for(v)
                    .bind(self.item_memory.base(k))
            })
            .collect()
    }
}

impl Encoder for LevelEncoder {
    fn encode(&self, input: &[f64]) -> Result<Hypervector, HdError> {
        if input.len() != self.config.features {
            return Err(HdError::FeatureCountMismatch {
                expected: self.config.features,
                actual: input.len(),
            });
        }
        Ok(Hypervector::from_vec(level_encode_majority(
            &self.item_memory,
            &self.level_memory,
            input,
        )))
    }

    fn encode_reference(&self, input: &[f64]) -> Result<Hypervector, HdError> {
        if input.len() != self.config.features {
            return Err(HdError::FeatureCountMismatch {
                expected: self.config.features,
                actual: input.len(),
            });
        }
        let dim = self.config.dim;
        let mut acc = vec![0.0f64; dim];
        for (k, &raw) in input.iter().enumerate() {
            let level = self.level_memory.level_for(raw);
            let bound = level
                .bind(self.item_memory.base(k))
                .expect("level and base share dimension by construction");
            accumulate_signed(&mut acc, bound.words(), 1.0, dim);
        }
        Ok(Hypervector::from_vec(acc))
    }

    fn encode_masked(&self, input: &[f64], mask: &PruneMask) -> Result<Hypervector, HdError> {
        let mut h = self.encode(input)?;
        mask.apply(&mut h)?;
        Ok(h)
    }

    fn features(&self) -> usize {
        self.config.features
    }

    fn dim(&self) -> usize {
        self.config.dim
    }
}

/// Adds `weight · sign_j` to every accumulator dimension, reading signs
/// from packed words: `acc_j += weight` where bit `j` is set, `−weight`
/// elsewhere.
fn accumulate_signed(acc: &mut [f64], words: &[u64], weight: f64, dim: usize) {
    for (w_idx, &word) in words.iter().enumerate() {
        let start = w_idx * 64;
        let end = (start + 64).min(dim);
        let mut w = word;
        // Subtract weight everywhere, then add 2*weight on set bits:
        // sign_j * weight = weight*(2*bit_j - 1).
        for a in &mut acc[start..end] {
            *a -= weight;
        }
        while w != 0 {
            let j = w.trailing_zeros() as usize;
            let idx = start + j;
            if idx >= dim {
                break;
            }
            acc[idx] += 2.0 * weight;
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervector::BipolarHv;

    fn cfg(features: usize, dim: usize) -> EncoderConfig {
        EncoderConfig::new(features, dim)
            .with_seed(99)
            .with_levels(10)
    }

    #[test]
    fn config_validation() {
        assert!(ScalarEncoder::new(EncoderConfig::new(0, 10)).is_err());
        assert!(ScalarEncoder::new(EncoderConfig::new(10, 0)).is_err());
        assert!(ScalarEncoder::new(EncoderConfig::new(10, 10).with_levels(1)).is_err());
        assert!(LevelEncoder::new(EncoderConfig::new(10, 10).with_levels(1)).is_err());
    }

    #[test]
    fn scalar_encoder_refuses_counts_past_32_bits() {
        // 2 features × (2^31 + 1) overflows the kernels' u32 counts…
        let wide = EncoderConfig::new(2, 64).with_levels((1 << 31) + 2);
        assert!(matches!(
            ScalarEncoder::new(wide),
            Err(HdError::InvalidConfig(_))
        ));
        // …while 1 × (2^32 − 1) is exactly u32::MAX and encodes.
        let enc = ScalarEncoder::new(EncoderConfig::new(1, 64).with_levels(1 << 32)).unwrap();
        let h = enc.encode(&[1.0]).unwrap();
        let reference = enc.encode_reference(&[1.0]).unwrap();
        assert_eq!(h, reference);
    }

    #[test]
    fn scalar_encode_matches_naive_sum() {
        let enc = ScalarEncoder::new(cfg(5, 200)).unwrap();
        let input = [0.0, 0.25, 0.5, 0.75, 1.0];
        let h = enc.encode(&input).unwrap();
        for j in 0..200 {
            let expected: f64 = (0..5)
                .map(|k| enc.snap_to_level(input[k]) * enc.item_memory().base(k).sign(j))
                .sum();
            assert!((h[j] - expected).abs() < 1e-12, "dim {j}");
        }
    }

    #[test]
    fn level_encode_matches_naive_sum() {
        let enc = LevelEncoder::new(cfg(4, 150)).unwrap();
        let input = [0.1, 0.4, 0.6, 0.95];
        let h = enc.encode(&input).unwrap();
        for j in 0..150 {
            let expected: f64 = (0..4)
                .map(|k| {
                    let l = enc.level_memory().level_for(input[k]).sign(j);
                    let b = enc.item_memory().base(k).sign(j);
                    l * b
                })
                .sum();
            assert!((h[j] - expected).abs() < 1e-12, "dim {j}");
        }
    }

    #[test]
    fn wrong_feature_count_is_rejected() {
        let enc = ScalarEncoder::new(cfg(5, 100)).unwrap();
        assert_eq!(
            enc.encode(&[0.5; 4]),
            Err(HdError::FeatureCountMismatch {
                expected: 5,
                actual: 4
            })
        );
    }

    #[test]
    fn snap_grid_endpoints() {
        let enc = ScalarEncoder::new(cfg(1, 64)).unwrap(); // 10 levels
        assert_eq!(enc.snap_to_level(0.0), 0.0);
        assert_eq!(enc.snap_to_level(1.0), 1.0);
        assert_eq!(enc.snap_to_level(-3.0), 0.0);
        assert_eq!(enc.snap_to_level(5.0), 1.0);
        // 10 levels → grid step 1/9.
        let snapped = enc.snap_to_level(0.49);
        assert!((snapped - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn similar_inputs_encode_similarly_level_encoder() {
        let enc =
            LevelEncoder::new(EncoderConfig::new(20, 4_096).with_levels(32).with_seed(5)).unwrap();
        let a: Vec<f64> = (0..20).map(|i| i as f64 / 19.0).collect();
        let mut b = a.clone();
        b[0] += 0.02; // tiny perturbation, same or adjacent level
        let c: Vec<f64> = (0..20).map(|i| (19 - i) as f64 / 19.0).collect();
        let ha = enc.encode(&a).unwrap();
        let hb = enc.encode(&b).unwrap();
        let hc = enc.encode(&c).unwrap();
        let sim_ab = ha.cosine(&hb).unwrap();
        let sim_ac = ha.cosine(&hc).unwrap();
        assert!(sim_ab > sim_ac, "sim_ab={sim_ab} sim_ac={sim_ac}");
        assert!(sim_ab > 0.9);
    }

    #[test]
    fn batch_encoding_agrees_with_sequential() {
        let enc = ScalarEncoder::new(cfg(8, 256)).unwrap();
        let inputs: Vec<Vec<f64>> = (0..50)
            .map(|i| (0..8).map(|k| ((i * 8 + k) % 10) as f64 / 9.0).collect())
            .collect();
        let batch = enc.encode_batch(&inputs).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(batch[i], enc.encode(x).unwrap(), "sample {i}");
        }
    }

    #[test]
    fn bound_rows_sum_equals_encoding() {
        let enc = LevelEncoder::new(cfg(6, 192)).unwrap();
        let input = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let rows = enc.bound_rows(&input).unwrap();
        let h = enc.encode(&input).unwrap();
        for j in 0..192 {
            let s: f64 = rows.iter().map(|r| r.sign(j)).sum();
            assert!((h[j] - s).abs() < 1e-12);
        }
    }

    #[test]
    fn encoded_dimension_distribution_is_centered() {
        // Central limit argument of §III-B: H_j ~ N(0, D_iv).
        let features = 200;
        let enc = LevelEncoder::new(
            EncoderConfig::new(features, 10_000)
                .with_levels(20)
                .with_seed(8),
        )
        .unwrap();
        let input: Vec<f64> = (0..features).map(|i| (i % 20) as f64 / 19.0).collect();
        let h = enc.encode(&input).unwrap();
        let mean = h.mean();
        let var = h.variance();
        assert!(mean.abs() < 3.0, "mean={mean}");
        // Variance should be near D_iv = 200 (loose band).
        assert!((100.0..400.0).contains(&var), "var={var}");
    }

    #[test]
    fn masked_encoding_zeroes_dims() {
        let enc = ScalarEncoder::new(cfg(5, 100)).unwrap();
        let mask = PruneMask::from_pruned_indices(100, &[0, 1, 2, 50, 99]).unwrap();
        let h = enc
            .encode_masked(&[0.3, 0.6, 0.9, 0.2, 0.8], &mask)
            .unwrap();
        for &j in &[0usize, 1, 2, 50, 99] {
            assert_eq!(h[j], 0.0);
        }
        assert!(h.count_zeros() >= 5);
    }

    #[test]
    fn accumulate_signed_handles_partial_tail_word() {
        let b = BipolarHv::random(70, 3);
        let mut acc = vec![0.0; 70];
        accumulate_signed(&mut acc, b.words(), 2.0, 70);
        for (j, &a) in acc.iter().enumerate() {
            assert_eq!(a, 2.0 * b.sign(j));
        }
    }
}
