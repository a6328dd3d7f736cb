//! Throughput-oriented encode and predict kernels.
//!
//! The straightforward implementations of Eq. (2) and Eq. (4) walk one
//! `±v` update per feature per dimension and one dense `f64` dot per
//! class per query. This module replaces those hot paths with kernels
//! that exploit the bit-packed structure of the item/level memories:
//!
//! * [`TransposedItemMemory`] + [`scalar_encode_level_sliced`] — the
//!   scalar encoding of Eq. (2a). `snap` maps every feature onto one of
//!   `ℓ_iv` grid values `g_k/(ℓ−1)`, so the per-dimension sum
//!   `Σ_k v_k·sign_{k,j}` factors over the *binary digits* of the grid
//!   indices: `acc_j = (2·Σ_b 2^b·popcount(T_j ∧ m_b) − Σ_k g_k)/(ℓ−1)`,
//!   where `T_j` is the dim-major bit row of the item memory (one bit
//!   per feature) and `m_b` masks the features whose grid index has bit
//!   `b` set. One query builds `⌈log₂ ℓ⌉` masks and then runs pure
//!   AND+POPCNT per dimension — no per-feature sign walks. The integer
//!   sum is exact; a single final multiply scales it back to the grid.
//! * [`level_encode_majority`] — the record encoding of Eq. (2b) as a
//!   word-parallel majority accumulation: the bound rows `L_{v_k} ⊛ B_k`
//!   are streamed through a carry-save-adder (CSA) bit-slice counter, so
//!   64 dimensions advance per machine-word operation instead of one
//!   `f64` update per dimension. Counts are exact small integers, so the
//!   result bit-matches the naive accumulation.
//! * [`ClassMatrix`] + [`dot_unrolled`] / [`dot_sign_dense`] — inference
//!   (Eq. 4) against a contiguous row-major copy of the class
//!   hypervectors with cached norms and packed sign rows. Dots run with
//!   four independent accumulators (breaking the serial `fadd` dependency
//!   chain of a naive fold) and the packed-query variant selects the sign
//!   branchlessly via the `f64` sign bit — no `trailing_zeros` loops.
//! * [`PackedClassMatrix`] + [`xor_popcount`] — the packed-native
//!   inference path: class rows stored as bit-packed signs plus one
//!   magnitude scale per 64-dim word block, scored against bit-packed
//!   queries with pure `XOR` + `POPCNT` word arithmetic
//!   (`dot = Σ_w s_w·(valid_w − 2·mismatch_w)`), so a 1-bit/dim wire
//!   query is never expanded to dense `f64`s on the serving path.
//! * [`scalar_encode_packed`] / [`scalar_encode_packed_batch`] — the
//!   Eq. (2a) kernel fused with bipolar quantization: the accumulator
//!   sign comparison happens in exact integers and the packed words are
//!   emitted directly. The batch form builds every query's digit masks
//!   up front and then streams each transposed item-memory row once
//!   across the whole batch, amortizing the row's memory traffic.
//!
//! The `f64` dot kernels and [`xor_popcount`] dispatch to explicit AVX2
//! (`std::arch`) variants when the CPU supports them — detected once at
//! runtime, short-circuited at compile time under
//! `-C target-feature=+avx2` — with scalar fallbacks the AVX2 arms
//! bit-match (separate mul+add, identical lane order; see
//! `docs/PERF.md` for the dispatch policy).
//!
//! The naive paths stay available as `*_reference` methods on the
//! encoders/model; the property tests in `tests/properties.rs` hold the
//! kernels to them (bit-exact where the arithmetic is integer, ≤1e-9
//! absolute where only the floating-point summation order differs).
//!
//! Per-query scratch (grid indices, digit masks, CSA planes) lives in a
//! thread-local buffer so steady-state encoding performs no allocations
//! beyond the returned hypervector.

use std::cell::RefCell;

use crate::basis::{ItemMemory, LevelMemory};
use crate::hypervector::{BipolarHv, Hypervector};

const WORD_BITS: usize = 64;

/// Columns per scoring tile: 2048 × 8 B = 16 KB per class-row slice, so
/// a full tile (every class's slice + a block of query slices) stays
/// L2-resident even for a few dozen classes.
const DIM_TILE: usize = 2_048;

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Reusable per-thread buffers for the encode kernels.
#[derive(Debug, Default)]
struct KernelScratch {
    /// Grid indices `g_k`, one per feature (scalar encode).
    grid: Vec<u64>,
    /// Digit masks `m_b`, `bits × f_words` words (scalar encode).
    masks: Vec<u64>,
    /// CSA bit-planes, word-major `hv_words × planes` (level encode).
    planes: Vec<u64>,
}

/// Dim-major, bit-sliced copy of an [`ItemMemory`].
///
/// Row `j` packs the signs of base hypervectors `B_0 … B_{D_iv−1}` *at
/// dimension `j`* into `⌈D_iv/64⌉` words (bit `k` set ⇔ `B_k[j] = +1`).
/// This is the transpose of the feature-major layout [`ItemMemory`]
/// stores, and it is what lets [`scalar_encode_level_sliced`] answer
/// "how many features of this subset are positive at dimension `j`"
/// with a handful of `AND` + `POPCNT` instructions.
#[derive(Debug, Clone)]
pub struct TransposedItemMemory {
    features: usize,
    dim: usize,
    f_words: usize,
    words: Vec<u64>,
}

impl TransposedItemMemory {
    /// Builds the transpose of `item` (done once per encoder).
    pub fn from_item_memory(item: &ItemMemory) -> Self {
        let features = item.len();
        let dim = item.dim();
        let f_words = features.div_ceil(WORD_BITS);
        let mut words = vec![0u64; dim * f_words];
        for (k, base) in item.iter().enumerate() {
            let (fw, fb) = (k / WORD_BITS, k % WORD_BITS);
            for (w, &bw) in base.words().iter().enumerate() {
                let mut word = bw;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    let j = w * WORD_BITS + b;
                    if j >= dim {
                        break;
                    }
                    words[j * f_words + fw] |= 1 << fb;
                    word &= word - 1;
                }
            }
        }
        Self {
            features,
            dim,
            f_words,
            words,
        }
    }

    /// Number of features `D_iv` (bits per row).
    pub fn features(&self) -> usize {
        self.features
    }

    /// Hypervector dimensionality `D_hv` (number of rows).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed bit row for dimension `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.dim()`.
    pub fn row(&self, j: usize) -> &[u64] {
        &self.words[j * self.f_words..(j + 1) * self.f_words]
    }
}

/// Level-sliced scalar encode (Eq. 2a): see the [module docs](self) for
/// the factorization. `input` must hold exactly `im_t.features()` values;
/// they are clamped to `[0, 1]` and snapped to the `levels`-point grid
/// exactly like the reference path.
///
/// # Panics
///
/// Panics if `input.len() != im_t.features()` or `levels < 2` (the
/// encoder validates both before calling).
pub fn scalar_encode_level_sliced(
    im_t: &TransposedItemMemory,
    input: &[f64],
    levels: usize,
) -> Vec<f64> {
    assert_eq!(input.len(), im_t.features, "feature count mismatch");
    assert!(levels >= 2, "need at least two levels");
    // The integer pipeline would silently snap NaN to grid index 0;
    // poison the whole encoding instead, as the reference path does.
    if input.iter().any(|v| v.is_nan()) {
        return vec![f64::NAN; im_t.dim];
    }
    let steps = (levels - 1) as f64;
    let max_index = (levels - 1) as u64;
    let bits = (u64::BITS - max_index.leading_zeros()) as usize;
    let f_words = im_t.f_words;

    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();

        // 1. Quantize each feature to its grid index g_k = round(v·(ℓ−1)).
        scratch.grid.clear();
        scratch
            .grid
            .extend(input.iter().map(|&raw| quantize_index(raw, steps)));

        // 2. Slice the indices into per-digit feature masks m_b and the
        //    per-query constant Σ_k g_k.
        scratch.masks.clear();
        scratch.masks.resize(bits * f_words, 0);
        let mut index_total: u64 = 0;
        for (k, &g) in scratch.grid.iter().enumerate() {
            index_total += g;
            let (fw, fb) = (k / WORD_BITS, k % WORD_BITS);
            let mut digits = g;
            while digits != 0 {
                let b = digits.trailing_zeros() as usize;
                scratch.masks[b * f_words + fw] |= 1 << fb;
                digits &= digits - 1;
            }
        }

        // 3. Pure popcount accumulation per dimension.
        let inv_steps = 1.0 / steps;
        let total = index_total as i64;
        let mut acc = Vec::with_capacity(im_t.dim);
        for row in im_t.words.chunks_exact(f_words) {
            let mut weighted: u64 = 0;
            for (b, mask) in scratch.masks.chunks_exact(f_words).enumerate() {
                let mut count: u32 = 0;
                for (rw, mw) in row.iter().zip(mask) {
                    count += (rw & mw).count_ones();
                }
                weighted += u64::from(count) << b;
            }
            // acc_j = (2·Σ_b 2^b·pos_count_{b,j} − Σ_k g_k) / (ℓ−1):
            // exact in integers, one rounding at the final scale.
            acc.push((2 * weighted as i64 - total) as f64 * inv_steps);
        }
        acc
    })
}

/// `round(clamp(v)·steps)` as the grid index, mirroring the reference
/// `snap` exactly (including `round`'s away-from-zero ties).
fn quantize_index(raw: f64, steps: f64) -> u64 {
    (raw.clamp(0.0, 1.0) * steps).round() as u64
}

/// [`scalar_encode_level_sliced`] fused with bipolar quantization: the
/// packed sign words are emitted directly (bit 1 ⇔ `acc_j ≥ 0`, the
/// [`crate::QuantScheme::Bipolar`] convention) and the dense `f64`
/// accumulator is never materialized. The sign test
/// `2·weighted_j ≥ Σ_k g_k` runs in exact integers, so the result
/// bit-matches bipolar-quantizing the dense kernel's output.
///
/// Returns `None` if any input is NaN: the dense path poisons the whole
/// encoding with NaN, which a 1-bit representation cannot carry.
///
/// # Panics
///
/// Panics if `input.len() != im_t.features()` or `levels < 2` (the
/// encoder validates both).
pub fn scalar_encode_packed(
    im_t: &TransposedItemMemory,
    input: &[f64],
    levels: usize,
) -> Option<BipolarHv> {
    scalar_encode_packed_batch(im_t, &[input], levels)
        .map(|mut out| out.pop().expect("one query in, one hypervector out"))
}

/// Batch form of [`scalar_encode_packed`]: every query's level-grid
/// digit masks are built up front, then each transposed item-memory row
/// is streamed *once* across the whole batch. The item-memory traffic —
/// `D_hv × ⌈D_iv/64⌉` words, the dominant memory term of Eq. (2a) — is
/// paid per batch instead of per query.
///
/// Returns `None` if any query contains NaN (see
/// [`scalar_encode_packed`]); an empty batch yields an empty vector.
///
/// # Panics
///
/// Panics if any query's length differs from `im_t.features()` or
/// `levels < 2`.
pub fn scalar_encode_packed_batch(
    im_t: &TransposedItemMemory,
    inputs: &[&[f64]],
    levels: usize,
) -> Option<Vec<BipolarHv>> {
    assert!(levels >= 2, "need at least two levels");
    for input in inputs {
        assert_eq!(input.len(), im_t.features, "feature count mismatch");
        if input.iter().any(|v| v.is_nan()) {
            return None;
        }
    }
    if inputs.is_empty() {
        return Some(Vec::new());
    }
    let steps = (levels - 1) as f64;
    let max_index = (levels - 1) as u64;
    let bits = (u64::BITS - max_index.leading_zeros()) as usize;
    let f_words = im_t.f_words;
    let hv_words = im_t.dim.div_ceil(WORD_BITS);

    // Phase 1: quantize every query and slice its grid indices into
    // digit masks (one `bits × f_words` block per query) plus the
    // per-query constant Σ_k g_k. Allocated per batch, not per query.
    let mut masks = vec![0u64; inputs.len() * bits * f_words];
    let mut totals = Vec::with_capacity(inputs.len());
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        for (input, qmasks) in inputs.iter().zip(masks.chunks_exact_mut(bits * f_words)) {
            scratch.grid.clear();
            scratch
                .grid
                .extend(input.iter().map(|&raw| quantize_index(raw, steps)));
            let mut index_total: u64 = 0;
            for (k, &g) in scratch.grid.iter().enumerate() {
                index_total += g;
                let (fw, fb) = (k / WORD_BITS, k % WORD_BITS);
                let mut digits = g;
                while digits != 0 {
                    let b = digits.trailing_zeros() as usize;
                    qmasks[b * f_words + fw] |= 1 << fb;
                    digits &= digits - 1;
                }
            }
            totals.push(index_total);
        }
    });

    // Phase 2: one pass over the transposed item memory, scoring all
    // queries against each dim-row while it is cache-hot.
    let mut out_words = vec![0u64; inputs.len() * hv_words];
    for (j, row) in im_t.words.chunks_exact(f_words).enumerate() {
        let (jw, jb) = (j / WORD_BITS, j % WORD_BITS);
        for (q, qmasks) in masks.chunks_exact(bits * f_words).enumerate() {
            let mut weighted: u64 = 0;
            for (b, mask) in qmasks.chunks_exact(f_words).enumerate() {
                let mut count: u32 = 0;
                for (rw, mw) in row.iter().zip(mask) {
                    count += (rw & mw).count_ones();
                }
                weighted += u64::from(count) << b;
            }
            // acc_j ≥ 0 ⇔ 2·weighted ≥ Σ_k g_k: the 1/(ℓ−1) scale is
            // positive, so the comparison happens in exact integers.
            if 2 * weighted >= totals[q] {
                out_words[q * hv_words + jw] |= 1 << jb;
            }
        }
    }

    Some(
        out_words
            .chunks_exact(hv_words)
            .map(|words| BipolarHv::from_words(im_t.dim, words.to_vec()))
            .collect(),
    )
}

/// [`scalar_encode_level_sliced`] fused with bipolar quantization *and*
/// dimension masking — the compiled
/// [`EncodePlan`](crate::plan::EncodePlan) kernel for the paper's
/// operating point (bipolar inference quantization + masked dims,
/// §III-C). `keep_words` packs one bit per dimension (bit set ⇔ the
/// dimension survives the obfuscation mask; `⌈dim/64⌉` words, zero tail
/// bits).
///
/// Masked dimensions are emitted as `0.0` *without ever accumulating
/// them*: the whole `bits × ⌈D_iv/64⌉` popcount phase — the dominant
/// cost of Eq. (2a) — is skipped for every masked dimension, which is
/// where the compiled plan's speedup over encode-then-obfuscate comes
/// from. Kept dimensions run the exact-integer sign test
/// `2·weighted_j ≥ Σ_k g_k` of [`scalar_encode_packed`], so the output
/// bit-matches `obfuscate(encode(input))` under
/// [`crate::QuantScheme::Bipolar`] (whose result is independent of the
/// σ threshold).
///
/// Returns `None` if any input is NaN — the generic composition then
/// defines the semantics (NaN poisons the accumulator and the bipolar
/// comparison resolves it) and the caller falls back to it.
///
/// # Panics
///
/// Panics if `input.len() != im_t.features()`, `levels < 2`, or
/// `keep_words` is shorter than `⌈dim/64⌉` (the plan compiler
/// guarantees all three).
pub fn scalar_encode_bipolar_masked(
    im_t: &TransposedItemMemory,
    input: &[f64],
    levels: usize,
    keep_words: &[u64],
) -> Option<Vec<f64>> {
    assert_eq!(input.len(), im_t.features, "feature count mismatch");
    assert!(levels >= 2, "need at least two levels");
    assert!(
        keep_words.len() >= im_t.dim.div_ceil(WORD_BITS),
        "keep mask shorter than the dimension"
    );
    if input.iter().any(|v| v.is_nan()) {
        return None;
    }
    let steps = (levels - 1) as f64;
    let max_index = (levels - 1) as u64;
    let bits = (u64::BITS - max_index.leading_zeros()) as usize;
    let f_words = im_t.f_words;

    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();

        // Phase 1: grid indices and digit masks, exactly as in
        // `scalar_encode_level_sliced`.
        scratch.grid.clear();
        scratch
            .grid
            .extend(input.iter().map(|&raw| quantize_index(raw, steps)));
        scratch.masks.clear();
        scratch.masks.resize(bits * f_words, 0);
        let mut index_total: u64 = 0;
        for (k, &g) in scratch.grid.iter().enumerate() {
            index_total += g;
            let (fw, fb) = (k / WORD_BITS, k % WORD_BITS);
            let mut digits = g;
            while digits != 0 {
                let b = digits.trailing_zeros() as usize;
                scratch.masks[b * f_words + fw] |= 1 << fb;
                digits &= digits - 1;
            }
        }

        // Phase 2: popcount accumulation for *kept* dimensions only.
        let total = index_total;
        let mut acc = Vec::with_capacity(im_t.dim);
        for (j, row) in im_t.words.chunks_exact(f_words).enumerate() {
            if keep_words[j / WORD_BITS] >> (j % WORD_BITS) & 1 == 0 {
                acc.push(0.0);
                continue;
            }
            let mut weighted: u64 = 0;
            for (b, mask) in scratch.masks.chunks_exact(f_words).enumerate() {
                let mut count: u32 = 0;
                for (rw, mw) in row.iter().zip(mask) {
                    count += (rw & mw).count_ones();
                }
                weighted += u64::from(count) << b;
            }
            // acc_j ≥ 0 ⇔ 2·weighted ≥ Σ_k g_k (positive 1/(ℓ−1) scale),
            // then Bipolar maps `≥ 0` to +1 — all in exact integers.
            acc.push(if 2 * weighted >= total { 1.0 } else { -1.0 });
        }
        Some(acc)
    })
}

/// True when the dot/popcount kernels of this module will dispatch to
/// their AVX2 arms on this host — the probe a [`crate::ModelPlan`]
/// runs *once* when it is built instead of (implicitly, inside each
/// kernel call) per batch. Always false off x86-64.
pub fn avx2_dispatch() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Record/level encode (Eq. 2b) by word-parallel majority accumulation:
/// every bound row `L_{v_k} ⊛ B_k` is XNOR-ed on the fly and inserted
/// into a carry-save bit-slice counter; the per-dimension counts are
/// extracted once at the end as `acc_j = 2·count_j − D_iv`.
///
/// Bit-matches the naive per-feature accumulation (all arithmetic is
/// exact small integers).
///
/// # Panics
///
/// Panics if `input.len() != item.len()` or the level/item memories
/// disagree on dimensionality (the encoder validates both).
pub fn level_encode_majority(item: &ItemMemory, lm: &LevelMemory, input: &[f64]) -> Vec<f64> {
    assert_eq!(input.len(), item.len(), "feature count mismatch");
    assert_eq!(item.dim(), lm.dim(), "item/level dimension mismatch");
    let dim = item.dim();
    let hv_words = dim.div_ceil(WORD_BITS);
    let features = input.len();
    // Counts reach `features`, so ⌈log₂(features+1)⌉ planes suffice.
    let planes = (u64::BITS - (features as u64).leading_zeros()) as usize;

    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.planes.clear();
        scratch.planes.resize(hv_words * planes, 0);

        for (k, &raw) in input.iter().enumerate() {
            let level = lm.level_for(raw).words();
            let base = item.base(k).words();
            for (w, (lw, bw)) in level.iter().zip(base).enumerate() {
                // Bound row word: bipolar bind is XNOR. Tail bits beyond
                // `dim` are garbage but never extracted below.
                let mut carry = !(lw ^ bw);
                let slots = &mut scratch.planes[w * planes..(w + 1) * planes];
                for slot in slots {
                    if carry == 0 {
                        break;
                    }
                    let next = *slot & carry;
                    *slot ^= carry;
                    carry = next;
                }
            }
        }

        let n = features as i64;
        let mut acc = Vec::with_capacity(dim);
        for (w, slots) in scratch.planes.chunks_exact(planes).enumerate() {
            let lanes = (dim - w * WORD_BITS).min(WORD_BITS);
            for b in 0..lanes {
                let mut count: i64 = 0;
                for (p, plane) in slots.iter().enumerate() {
                    count += (((plane >> b) & 1) << p) as i64;
                }
                acc.push((2 * count - n) as f64);
            }
        }
        acc
    })
}

/// True when the AVX2 kernel arms may run. Compiling with
/// `-C target-feature=+avx2` (the CI AVX2 leg) short-circuits the check
/// at compile time; otherwise a CPUID probe decides at runtime
/// (`std::is_x86_feature_detected!` memoizes, so steady-state dispatch
/// is one relaxed atomic load).
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    // Miri interprets MIR and cannot execute vendor intrinsics; force
    // the scalar arms so `cargo miri test` exercises these dispatch
    // sites instead of aborting on the first AVX2 instruction. The
    // guard beats the cfg!(target_feature) short-circuit on purpose:
    // a `-C target-feature=+avx2` build run under Miri must still take
    // the scalar path.
    if cfg!(miri) {
        return false;
    }
    cfg!(target_feature = "avx2") || std::is_x86_feature_detected!("avx2")
}

/// Dense `f64` dot product with four independent accumulators.
///
/// Mathematically identical to a sequential fold; the four-lane
/// accumulation breaks the serial `fadd` dependency chain, which is what
/// buys the throughput. The summation order differs from a naive fold,
/// so compare against it with a tolerance, not bit-equality. Trailing
/// elements of the longer slice are ignored (callers pass equal
/// lengths).
///
/// Dispatches to an AVX2 variant on capable x86-64 CPUs; the vector arm
/// keeps the scalar arm's per-lane operation order (separate mul+add,
/// no FMA contraction), so both arms return bit-identical sums.
pub fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available` verified the AVX2 requirement.
        return unsafe { dot_unrolled_avx2(a, b) };
    }
    dot_unrolled_scalar(a, b)
}

fn dot_unrolled_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let quads = n - n % 4;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..quads].chunks_exact(4).zip(b[..quads].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in a[quads..n].iter().zip(&b[quads..n]) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// AVX2 arm of [`dot_unrolled`]: one `__m256d` accumulator whose four
/// lanes mirror the scalar arm's four accumulators exactly.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_unrolled_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let quads = n - n % 4;
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i < quads {
        // SAFETY: `i + 3 < quads ≤ a.len(), b.len()` — both 32-byte
        // unaligned loads stay in bounds.
        let va = unsafe { _mm256_loadu_pd(a.as_ptr().add(i)) };
        // SAFETY: as above — same bound for `b`.
        let vb = unsafe { _mm256_loadu_pd(b.as_ptr().add(i)) };
        // Separate mul + add (no FMA): each lane performs the same two
        // correctly-rounded operations as the scalar arm, keeping the
        // two arms bit-identical.
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is exactly the 32 bytes the store writes.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
    let mut tail = 0.0;
    for (x, y) in a[quads..n].iter().zip(&b[quads..n]) {
        tail += x * y;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// Dot product of a bit-packed bipolar vector (`1 ↔ +1`) against dense
/// `f64` values, fully branchless: the query bit selects the sign by
/// XOR-ing the `f64` sign bit, with no `trailing_zeros` walk and no
/// data-dependent branches.
///
/// `values` beyond `64·words.len()` are ignored; unused tail bits of the
/// last word must be zero (both invariants hold for
/// [`crate::BipolarHv`]).
///
/// Dispatches to an AVX2 variant on capable x86-64 CPUs, bit-identical
/// to the scalar arm (same lane assignment and addition order).
pub fn dot_sign_dense(words: &[u64], values: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available` verified the AVX2 requirement.
        return unsafe { dot_sign_dense_avx2(words, values) };
    }
    dot_sign_dense_scalar(words, values)
}

fn dot_sign_dense_scalar(words: &[u64], values: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    for (w, chunk) in words.iter().zip(values.chunks(WORD_BITS)) {
        // Bit set → +v; bit clear → −v via the IEEE-754 sign bit. The
        // inverted word shifts right four bits per quad so each lane's
        // select is a constant-offset bit test.
        let mut nw = !w;
        let quads = chunk.chunks_exact(4);
        let tail = quads.remainder();
        for quad in quads {
            acc[0] += f64::from_bits(quad[0].to_bits() ^ ((nw & 1) << 63));
            acc[1] += f64::from_bits(quad[1].to_bits() ^ ((nw >> 1 & 1) << 63));
            acc[2] += f64::from_bits(quad[2].to_bits() ^ ((nw >> 2 & 1) << 63));
            acc[3] += f64::from_bits(quad[3].to_bits() ^ ((nw >> 3 & 1) << 63));
            nw >>= 4;
        }
        for (b, &v) in tail.iter().enumerate() {
            acc[b & 3] += f64::from_bits(v.to_bits() ^ ((nw >> b & 1) << 63));
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// AVX2 arm of [`dot_sign_dense`]: the per-lane sign masks come from a
/// variable 64-bit left shift of the inverted query word
/// (`(!w) << (63−lane)` isolates bit `lane` at the sign position), so
/// four sign selects and four adds happen per vector op. Lane
/// assignment (`position mod 4`) and addition order match the scalar
/// arm exactly — only a full 64-value chunk can be followed by another
/// chunk, so the global quad prefix coincides with the per-chunk quads.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_sign_dense_avx2(words: &[u64], values: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = values.len().min(words.len() * WORD_BITS);
    let quads = n - n % 4;
    let sign_bit = _mm256_set1_epi64x(i64::MIN);
    let shifts = _mm256_setr_epi64x(63, 62, 61, 60);
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i < quads {
        let nw = !words[i / WORD_BITS] >> (i % WORD_BITS);
        let signs = _mm256_and_si256(
            _mm256_sllv_epi64(_mm256_set1_epi64x(nw as i64), shifts),
            sign_bit,
        );
        // SAFETY: `i + 3 < quads ≤ values.len()` keeps the load in
        // bounds.
        let v = unsafe { _mm256_loadu_pd(values.as_ptr().add(i)) };
        acc = _mm256_add_pd(acc, _mm256_xor_pd(v, _mm256_castsi256_pd(signs)));
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is exactly the 32 bytes the store writes.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
    if quads < n {
        let nw = !words[quads / WORD_BITS] >> (quads % WORD_BITS);
        for (b, &v) in values[quads..n].iter().enumerate() {
            lanes[b & 3] += f64::from_bits(v.to_bits() ^ ((nw >> b & 1) << 63));
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Number of mismatching sign bits between two packed bipolar rows:
/// `Σ_w popcount(a_w ⊕ b_w)` over the shorter slice — the Hamming
/// kernel of the packed predict path.
///
/// Dispatches to an AVX2 variant (256-bit XOR, scalar `POPCNT`
/// extraction — see `docs/PERF.md`); both arms are pure integer
/// arithmetic and trivially agree.
pub fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available` verified the AVX2 requirement.
        return unsafe { xor_popcount_avx2(a, b) };
    }
    xor_popcount_scalar(a, b)
}

fn xor_popcount_scalar(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// AVX2 arm of [`xor_popcount`]: XOR four words per 256-bit op, count
/// with scalar `POPCNT` (no AVX-512 `VPOPCNTDQ` dependence).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xor_popcount_avx2(a: &[u64], b: &[u64]) -> u64 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let quads = n - n % 4;
    let mut total = 0u64;
    let mut i = 0;
    while i < quads {
        // SAFETY: `i + 3 < quads ≤ a.len(), b.len()` keeps both 32-byte
        // loads in bounds.
        let va = unsafe { _mm256_loadu_si256(a.as_ptr().add(i).cast()) };
        // SAFETY: as above — same bound for `b`.
        let vb = unsafe { _mm256_loadu_si256(b.as_ptr().add(i).cast()) };
        let mut x = [0u64; 4];
        // SAFETY: `x` is exactly the 32 bytes the store writes.
        unsafe { _mm256_storeu_si256(x.as_mut_ptr().cast(), _mm256_xor_si256(va, vb)) };
        total += x.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        i += 4;
    }
    for (x, y) in a[quads..n].iter().zip(&b[quads..n]) {
        total += u64::from((x ^ y).count_ones());
    }
    total
}

/// A contiguous, inference-ready snapshot of a model's class
/// hypervectors.
///
/// Holds the dense values row-major (`classes × dim`, so one class is
/// one cache-friendly streak) and the cached ℓ2 norms. Owned by the
/// model's compiled [`crate::ModelPlan`] and rebuilt only after
/// mutation.
#[derive(Debug, Clone)]
pub struct ClassMatrix {
    num_classes: usize,
    dim: usize,
    dense: Vec<f64>,
    norms: Vec<f64>,
}

impl ClassMatrix {
    /// Snapshots `classes` (all of the same dimensionality) into the
    /// contiguous layout. An empty slice yields an empty matrix whose
    /// [`ClassMatrix::all_zero`] is true, so degenerate models degrade
    /// to [`crate::HdError::ZeroNorm`] instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if class dimensionalities disagree (the model guarantees
    /// they do not).
    pub fn from_classes(classes: &[Hypervector]) -> Self {
        let dim = classes.first().map_or(0, Hypervector::dim);
        let num_classes = classes.len();
        let mut dense = Vec::with_capacity(num_classes * dim);
        let mut norms = Vec::with_capacity(num_classes);
        for class in classes {
            assert_eq!(class.dim(), dim, "class dimension mismatch");
            dense.extend_from_slice(class.as_slice());
            norms.push(class.l2_norm());
        }
        Self {
            num_classes,
            dim,
            dense,
            norms,
        }
    }

    /// Number of classes (rows).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Hypervector dimensionality (columns).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The dense values of class `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.num_classes()`.
    pub fn class_row(&self, l: usize) -> &[f64] {
        &self.dense[l * self.dim..(l + 1) * self.dim]
    }

    /// Cached ℓ2 norms, index = class label.
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// True when every class hypervector is all-zero (untrained model)
    /// — vacuously true for an empty matrix.
    pub fn all_zero(&self) -> bool {
        self.norms.iter().all(|&n| n == 0.0)
    }

    /// Re-snapshots a single class row in place (dense values, norm)
    /// after a targeted mutation such as a retraining update, avoiding
    /// a full matrix rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range or `class` has the wrong
    /// dimensionality (the model guarantees both).
    pub fn update_class(&mut self, l: usize, class: &Hypervector) {
        assert_eq!(class.dim(), self.dim, "class dimension mismatch");
        self.dense[l * self.dim..(l + 1) * self.dim].copy_from_slice(class.as_slice());
        self.norms[l] = class.l2_norm();
    }

    /// Normalized scores of one dense query against every class, written
    /// into `scores` (cleared first). Zero-norm classes score
    /// [`f64::NEG_INFINITY`]. Routed through the same tiled accumulation
    /// as [`ClassMatrix::scores_block_into`] (with a block of one), so
    /// single-query and blocked results are bit-identical.
    pub fn scores_into(&self, query: &[f64], scores: &mut Vec<f64>) {
        scores.clear();
        scores.resize(self.num_classes, 0.0);
        self.scores_tiled([query].as_slice(), std::slice::from_mut(scores));
    }

    /// [`ClassMatrix::scores_into`] for a block of queries at once — the
    /// cache-friendly tile of batched inference.
    ///
    /// # Panics
    ///
    /// Panics if `queries` and `out` lengths differ.
    pub fn scores_block_into(&self, queries: &[&[f64]], out: &mut [Vec<f64>]) {
        assert_eq!(queries.len(), out.len(), "one score row per query");
        for scores in out.iter_mut() {
            scores.clear();
            scores.resize(self.num_classes, 0.0);
        }
        self.scores_tiled(queries, out);
    }

    /// Shared tiled scoring core. The dimension axis is cut into
    /// [`DIM_TILE`]-column tiles and every `(query, class)` pair
    /// accumulates one partial [`dot_unrolled`] per tile: each matrix
    /// element is read once per *block* instead of once per query, so a
    /// block of `B` queries cuts class-matrix memory traffic by `B×`.
    /// Tile boundaries are a function of the dimension alone, so the
    /// per-pair summation order is independent of the block size —
    /// blocked, single-query and batched paths all bit-match.
    fn scores_tiled(&self, queries: &[&[f64]], out: &mut [Vec<f64>]) {
        for tile_start in (0..self.dim).step_by(DIM_TILE) {
            let tile_end = (tile_start + DIM_TILE).min(self.dim);
            for l in 0..self.num_classes {
                let row = &self.dense[l * self.dim + tile_start..l * self.dim + tile_end];
                for (q, scores) in queries.iter().zip(out.iter_mut()) {
                    scores[l] += dot_unrolled(&q[tile_start..tile_end], row);
                }
            }
        }
        for scores in out.iter_mut() {
            for (s, &norm) in scores.iter_mut().zip(&self.norms) {
                *s = if norm == 0.0 {
                    f64::NEG_INFINITY
                } else {
                    *s / norm
                };
            }
        }
    }

    /// Normalized scores of a bit-packed bipolar query against every
    /// class via [`dot_sign_dense`]. Zero-norm classes score
    /// [`f64::NEG_INFINITY`].
    pub fn scores_packed_into(&self, query_words: &[u64], scores: &mut Vec<f64>) {
        scores.clear();
        scores.reserve(self.num_classes);
        for l in 0..self.num_classes {
            let norm = self.norms[l];
            scores.push(if norm == 0.0 {
                f64::NEG_INFINITY
            } else {
                dot_sign_dense(query_words, self.class_row(l)) / norm
            });
        }
    }

    /// Heap footprint of this snapshot in bytes (dense values, cached
    /// norms) — the dense side of the per-model `memory_bytes` serving
    /// metric.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.dense.as_slice()) + std::mem::size_of_val(self.norms.as_slice())
    }
}

/// A bit-packed, inference-ready snapshot of a model's class
/// hypervectors — the packed-native counterpart of [`ClassMatrix`].
///
/// Each class is stored as its packed sign row (bit 1 ⇔ `value ≥ 0`,
/// the binarization convention of [`crate::BinaryHdModel`]) plus one `f64`
/// magnitude scale per 64-dimension word block. Construction succeeds
/// only when that factorization is *exact* — every block holds values
/// of one shared magnitude (signs free) or is entirely zero (scale 0) —
/// which covers sign-only models produced by
/// [`crate::HdModel::quantize_classes`] with
/// [`crate::QuantScheme::Bipolar`] and blockwise-uniform quantized
/// rows; anything else returns `None` and the caller keeps scoring
/// through the dense rows.
///
/// Scoring a packed query is then pure word arithmetic:
/// `dot_l = Σ_w s_lw · (valid_w − 2·popcount(q_w ⊕ σ_lw))` — tail bits
/// of both operands are zero, so the XOR never counts them — at
/// 64 dimensions per `XOR` + `POPCNT` instead of one `f64` add per
/// dimension. For ±1 rows every partial sum is a small exact integer,
/// so the scores bit-match the dense path (asserted by the parity
/// proptests in `tests/properties.rs`).
#[derive(Debug, Clone)]
pub struct PackedClassMatrix {
    num_classes: usize,
    dim: usize,
    hv_words: usize,
    sign_rows: Vec<u64>,
    /// One magnitude per (class, 64-dim word block), row-major.
    word_scales: Vec<f64>,
    /// Per-class uniform scale when every word block shares one
    /// magnitude (the sign-only fast path: one popcount chain per class,
    /// one multiply at the end); `None` for mixed-scale rows.
    uniform: Vec<Option<f64>>,
    norms: Vec<f64>,
}

impl PackedClassMatrix {
    /// Attempts to snapshot `classes` into the packed layout. Returns
    /// `None` unless every 64-dim block of every class is exactly
    /// `sign × scale` (see the type docs); an empty slice yields an
    /// empty matrix.
    ///
    /// # Panics
    ///
    /// Panics if class dimensionalities disagree (the model guarantees
    /// they do not).
    pub fn try_from_classes(classes: &[Hypervector]) -> Option<Self> {
        let dim = classes.first().map_or(0, Hypervector::dim);
        let hv_words = dim.div_ceil(WORD_BITS);
        let num_classes = classes.len();
        let mut sign_rows = Vec::with_capacity(num_classes * hv_words);
        let mut word_scales = Vec::with_capacity(num_classes * hv_words);
        let mut uniform = Vec::with_capacity(num_classes);
        let mut norms = Vec::with_capacity(num_classes);
        for class in classes {
            assert_eq!(class.dim(), dim, "class dimension mismatch");
            let row = PackedRow::pack(class.as_slice())?;
            sign_rows.extend_from_slice(&row.signs);
            word_scales.extend_from_slice(&row.scales);
            uniform.push(row.uniform);
            norms.push(class.l2_norm());
        }
        Some(Self {
            num_classes,
            dim,
            hv_words,
            sign_rows,
            word_scales,
            uniform,
            norms,
        })
    }

    /// True when `class` alone factors exactly into `sign × scale`
    /// word blocks — the per-row condition of
    /// [`PackedClassMatrix::try_from_classes`].
    pub(crate) fn row_packs(class: &Hypervector) -> bool {
        PackedRow::pack(class.as_slice()).is_some()
    }

    /// Re-packs class row `l` in place after a targeted mutation, in
    /// O(dim). Returns `false`, leaving the matrix untouched, when the
    /// new row no longer factors into `sign × scale` (so neither does
    /// the model).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range or `class` has the wrong
    /// dimensionality (the model guarantees both).
    pub(crate) fn update_class(&mut self, l: usize, class: &Hypervector) -> bool {
        assert_eq!(class.dim(), self.dim, "class dimension mismatch");
        let Some(row) = PackedRow::pack(class.as_slice()) else {
            return false;
        };
        let words = l * self.hv_words..(l + 1) * self.hv_words;
        self.sign_rows[words.clone()].copy_from_slice(&row.signs);
        self.word_scales[words].copy_from_slice(&row.scales);
        self.uniform[l] = row.uniform;
        self.norms[l] = class.l2_norm();
        true
    }

    /// Number of classes (rows).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Hypervector dimensionality (columns).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed sign bits of class `l` (`value ≥ 0 ↔ 1`; tail bits
    /// zero).
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.num_classes()`.
    pub fn sign_row(&self, l: usize) -> &[u64] {
        &self.sign_rows[l * self.hv_words..(l + 1) * self.hv_words]
    }

    /// Cached ℓ2 norms, index = class label.
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// True when every class hypervector is all-zero (untrained model)
    /// — vacuously true for an empty matrix.
    pub fn all_zero(&self) -> bool {
        self.norms.iter().all(|&n| n == 0.0)
    }

    /// Heap footprint of this snapshot in bytes (sign rows, word
    /// scales, uniform flags, norms) — the packed side of the per-model
    /// `memory_bytes` serving metric. Roughly 64× smaller than
    /// [`ClassMatrix::memory_bytes`] on the dense values it replaces.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.sign_rows.as_slice())
            + std::mem::size_of_val(self.word_scales.as_slice())
            + std::mem::size_of_val(self.uniform.as_slice())
            + std::mem::size_of_val(self.norms.as_slice())
    }

    /// Normalized scores of a bit-packed bipolar query against every
    /// class, written into `scores` (cleared first) — the popcount
    /// realization of Eq. (4). Zero-norm classes score
    /// [`f64::NEG_INFINITY`]. `query_words` must hold exactly
    /// `⌈dim/64⌉` words with zero tail bits (the [`BipolarHv`]
    /// invariants).
    pub fn scores_packed_into(&self, query_words: &[u64], scores: &mut Vec<f64>) {
        scores.clear();
        scores.reserve(self.num_classes);
        for l in 0..self.num_classes {
            let norm = self.norms[l];
            if norm == 0.0 {
                scores.push(f64::NEG_INFINITY);
                continue;
            }
            let row = self.sign_row(l);
            let dot = match self.uniform[l] {
                // Uniform row: one popcount chain, one multiply. The
                // parenthesized integer is exact, so for scale 1 this
                // bit-matches the dense `±1` summation.
                Some(scale) => {
                    let mismatches = xor_popcount(query_words, row) as i64;
                    scale * (self.dim as i64 - 2 * mismatches) as f64
                }
                // Mixed scales: per-word popcount × scale. Tail bits of
                // both operands are zero, so the last word's mismatch
                // count only covers its `valid_w` live lanes.
                None => {
                    let scales = &self.word_scales[l * self.hv_words..(l + 1) * self.hv_words];
                    let mut dot = 0.0;
                    for (w, (qw, (sw, &scale))) in
                        query_words.iter().zip(row.iter().zip(scales)).enumerate()
                    {
                        let valid = (self.dim - w * WORD_BITS).min(WORD_BITS) as i64;
                        let mismatches = i64::from((qw ^ sw).count_ones());
                        dot += scale * (valid - 2 * mismatches) as f64;
                    }
                    dot
                }
            };
            scores.push(dot / norm);
        }
    }
}

/// One class row in the packed layout of [`PackedClassMatrix`].
struct PackedRow {
    /// Sign bits, `value ≥ 0 ↔ 1`, zero tail bits.
    signs: Vec<u64>,
    /// One magnitude per 64-dim word block.
    scales: Vec<f64>,
    /// The row-wide scale when every word block shares one.
    uniform: Option<f64>,
}

impl PackedRow {
    /// Packs `values`, or `None` unless every 64-dim block is exactly
    /// `sign × scale` (one shared finite magnitude, or all zero).
    fn pack(values: &[f64]) -> Option<Self> {
        let hv_words = values.len().div_ceil(WORD_BITS);
        let mut signs = vec![0u64; hv_words];
        let mut scales = Vec::with_capacity(hv_words);
        let mut row_scale: Option<f64> = None;
        let mut row_uniform = true;
        for (block, word) in values.chunks(WORD_BITS).zip(signs.iter_mut()) {
            let mut scale = 0.0f64;
            let mut zeros = false;
            for (b, &v) in block.iter().enumerate() {
                if v >= 0.0 {
                    *word |= 1 << b;
                }
                let mag = v.abs();
                if !mag.is_finite() {
                    return None;
                }
                if mag == 0.0 {
                    zeros = true;
                } else if scale == 0.0 {
                    scale = mag;
                } else if mag != scale {
                    return None;
                }
            }
            // A block mixing zeros and non-zeros is not `sign×scale`:
            // the factorization puts ±scale at every lane.
            if zeros && scale != 0.0 {
                return None;
            }
            scales.push(scale);
            match row_scale {
                None => row_scale = Some(scale),
                Some(s) if s == scale => {}
                Some(_) => row_uniform = false,
            }
        }
        Some(Self {
            signs,
            scales,
            uniform: if row_uniform { row_scale } else { None },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisGenerator;
    use crate::hypervector::BipolarHv;

    #[test]
    fn transposed_item_memory_matches_signs() {
        let im = BasisGenerator::new(3).item_memory(70, 130).unwrap();
        let t = TransposedItemMemory::from_item_memory(&im);
        assert_eq!(t.features(), 70);
        assert_eq!(t.dim(), 130);
        for j in 0..130 {
            let row = t.row(j);
            for k in 0..70 {
                let bit = (row[k / 64] >> (k % 64)) & 1;
                let expected = u64::from(im.base(k).sign(j) > 0.0);
                assert_eq!(bit, expected, "dim {j} feature {k}");
            }
        }
    }

    #[test]
    fn scalar_kernel_matches_direct_sum() {
        let im = BasisGenerator::new(9).item_memory(13, 190).unwrap();
        let t = TransposedItemMemory::from_item_memory(&im);
        let levels = 10;
        let input: Vec<f64> = (0..13).map(|i| i as f64 / 12.0).collect();
        let acc = scalar_encode_level_sliced(&t, &input, levels);
        let steps = (levels - 1) as f64;
        for (j, &a) in acc.iter().enumerate() {
            let expected: f64 = (0..13)
                .map(|k| {
                    let g = (input[k].clamp(0.0, 1.0) * steps).round();
                    g / steps * im.base(k).sign(j)
                })
                .sum();
            assert!((a - expected).abs() < 1e-9, "dim {j}: {a} vs {expected}");
        }
    }

    #[test]
    fn level_kernel_matches_bound_row_sum() {
        let gen = BasisGenerator::new(4);
        let im = gen.item_memory(9, 200).unwrap();
        let lm = gen.level_memory(12, 200).unwrap();
        let input: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
        let acc = level_encode_majority(&im, &lm, &input);
        for (j, &a) in acc.iter().enumerate() {
            let expected: f64 = (0..9)
                .map(|k| lm.level_for(input[k]).sign(j) * im.base(k).sign(j))
                .sum();
            assert_eq!(a, expected, "dim {j}");
        }
    }

    #[test]
    fn dot_kernels_match_naive() {
        let values: Vec<f64> = (0..133).map(|i| (i as f64 * 0.37).sin() * 5.0).collect();
        let other: Vec<f64> = (0..133).map(|i| (i as f64 * 0.11).cos() * 3.0).collect();
        let naive: f64 = values.iter().zip(&other).map(|(a, b)| a * b).sum();
        assert!((dot_unrolled(&values, &other) - naive).abs() < 1e-9);

        let packed = BipolarHv::random(133, 5);
        let naive_signed: f64 = (0..133).map(|j| packed.sign(j) * values[j]).sum();
        let fast = dot_sign_dense(packed.words(), &values);
        assert!(
            (fast - naive_signed).abs() < 1e-9,
            "{fast} vs {naive_signed}"
        );
    }

    #[test]
    fn class_matrix_snapshots_classes() {
        let classes = vec![
            Hypervector::from_vec(vec![1.0, -2.0, 0.0, 3.0, -1.0]),
            Hypervector::from_vec(vec![0.0; 5]),
        ];
        let m = ClassMatrix::from_classes(&classes);
        assert_eq!(m.num_classes(), 2);
        assert_eq!(m.dim(), 5);
        assert_eq!(m.class_row(0), classes[0].as_slice());
        assert_eq!(m.norms()[1], 0.0);
        assert!(!m.all_zero());

        let mut scores = Vec::new();
        m.scores_into(&[1.0, 1.0, 1.0, 1.0, 1.0], &mut scores);
        assert_eq!(scores[1], f64::NEG_INFINITY);
        let expected = (1.0 - 2.0 + 0.0 + 3.0 - 1.0) / classes[0].l2_norm();
        assert!((scores[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_class_matrix_degrades_gracefully() {
        let m = ClassMatrix::from_classes(&[]);
        assert_eq!(m.num_classes(), 0);
        assert!(m.all_zero());
        let mut scores = vec![1.0];
        m.scores_into(&[], &mut scores);
        assert!(scores.is_empty());
    }

    #[test]
    fn update_class_matches_fresh_snapshot() {
        let mut classes = vec![
            Hypervector::from_vec((0..70).map(|j| (j as f64 * 0.3).sin()).collect()),
            Hypervector::from_vec((0..70).map(|j| (j as f64 * 0.7).cos()).collect()),
        ];
        let mut incremental = ClassMatrix::from_classes(&classes);
        classes[1] = Hypervector::from_vec((0..70).map(|j| (j as f64 * 1.3).sin()).collect());
        incremental.update_class(1, &classes[1]);
        let fresh = ClassMatrix::from_classes(&classes);
        assert_eq!(incremental.class_row(1), fresh.class_row(1));
        assert_eq!(incremental.norms(), fresh.norms());
    }

    #[test]
    fn xor_popcount_matches_hamming() {
        let a = BipolarHv::random(517, 11);
        let b = BipolarHv::random(517, 12);
        assert_eq!(
            xor_popcount(a.words(), b.words()),
            a.hamming(&b).unwrap() as u64
        );
        assert_eq!(xor_popcount(a.words(), a.words()), 0);
    }

    #[test]
    fn packed_matrix_bit_matches_dense_for_sign_rows() {
        // ±1 rows across an off-word-boundary dimension: every partial
        // sum is an exact small integer, so packed and dense scores
        // must be bit-identical.
        let dim = 197;
        let classes: Vec<Hypervector> = (0..5)
            .map(|c| {
                Hypervector::from_vec(
                    (0..dim)
                        .map(|j| {
                            if ((c * dim + j) * 2654435761) % 7 < 3 {
                                1.0
                            } else {
                                -1.0
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let dense = ClassMatrix::from_classes(&classes);
        let packed = PackedClassMatrix::try_from_classes(&classes).expect("±1 rows pack exactly");
        let query = BipolarHv::random(dim, 99);
        let (mut ds, mut ps) = (Vec::new(), Vec::new());
        dense.scores_packed_into(query.words(), &mut ds);
        packed.scores_packed_into(query.words(), &mut ps);
        assert_eq!(ds, ps, "packed popcount scores must bit-match dense");
    }

    #[test]
    fn packed_matrix_handles_zero_norm_and_scaled_rows() {
        let dim = 70;
        let classes = vec![
            Hypervector::from_vec(vec![0.0; dim]),
            Hypervector::from_vec(
                (0..dim)
                    .map(|j| if j % 3 == 0 { 2.5 } else { -2.5 })
                    .collect(),
            ),
        ];
        let packed = PackedClassMatrix::try_from_classes(&classes).expect("uniform scale packs");
        assert!(!packed.all_zero());
        let query = BipolarHv::random(dim, 3);
        let mut scores = Vec::new();
        packed.scores_packed_into(query.words(), &mut scores);
        assert_eq!(scores[0], f64::NEG_INFINITY);
        let naive: f64 = (0..dim).map(|j| query.sign(j) * classes[1][j]).sum();
        let expected = naive / classes[1].l2_norm();
        assert!(
            (scores[1] - expected).abs() < 1e-9,
            "{} vs {expected}",
            scores[1]
        );
    }

    #[test]
    fn packed_matrix_rejects_inexact_rows() {
        // Mixed magnitudes inside one 64-dim block are not sign×scale.
        let mixed = vec![Hypervector::from_vec(vec![1.0, -2.0, 1.0, 1.0])];
        assert!(PackedClassMatrix::try_from_classes(&mixed).is_none());
        // So is a block mixing zeros with non-zeros (masked dims).
        let masked = vec![Hypervector::from_vec(vec![1.0, 0.0, -1.0, 1.0])];
        assert!(PackedClassMatrix::try_from_classes(&masked).is_none());
        // Per-block scales are fine: block 0 all ±3, block 1 all ±0.5.
        let blocky = vec![Hypervector::from_vec(
            (0..100)
                .map(|j| {
                    let mag = if j < 64 { 3.0 } else { 0.5 };
                    if j % 2 == 0 {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect(),
        )];
        let packed = PackedClassMatrix::try_from_classes(&blocky).expect("blockwise uniform packs");
        let dense = ClassMatrix::from_classes(&blocky);
        let query = BipolarHv::random(100, 8);
        let (mut ds, mut ps) = (Vec::new(), Vec::new());
        dense.scores_packed_into(query.words(), &mut ds);
        packed.scores_packed_into(query.words(), &mut ps);
        assert!((ds[0] - ps[0]).abs() < 1e-9, "{} vs {}", ds[0], ps[0]);
    }

    #[test]
    fn empty_packed_matrix_degrades_gracefully() {
        let m = PackedClassMatrix::try_from_classes(&[]).expect("empty packs");
        assert_eq!(m.num_classes(), 0);
        assert!(m.all_zero());
        let mut scores = vec![1.0];
        m.scores_packed_into(&[], &mut scores);
        assert!(scores.is_empty());
    }

    #[test]
    fn packed_encode_matches_dense_sign() {
        let im = BasisGenerator::new(21).item_memory(23, 150).unwrap();
        let t = TransposedItemMemory::from_item_memory(&im);
        let levels = 12;
        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|q| {
                (0..23)
                    .map(|k| ((q * 23 + k) as f64 * 0.17).sin().abs())
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let batch = scalar_encode_packed_batch(&t, &refs, levels).expect("no NaN");
        assert_eq!(batch.len(), inputs.len());
        for (input, packed) in inputs.iter().zip(&batch) {
            let dense = scalar_encode_level_sliced(&t, input, levels);
            for (j, &v) in dense.iter().enumerate() {
                let expected = if v >= 0.0 { 1.0 } else { -1.0 };
                assert_eq!(packed.sign(j), expected, "dim {j}");
            }
            let single = scalar_encode_packed(&t, input, levels).expect("no NaN");
            assert_eq!(&single, packed, "single-query path must match batch");
        }
    }

    #[test]
    fn packed_encode_refuses_nan() {
        let im = BasisGenerator::new(2).item_memory(4, 64).unwrap();
        let t = TransposedItemMemory::from_item_memory(&im);
        assert!(scalar_encode_packed(&t, &[0.1, f64::NAN, 0.3, 0.4], 4).is_none());
    }

    #[test]
    fn masked_bipolar_encode_matches_encode_then_mask() {
        // Off-word-boundary dim; mask out every third dimension.
        let dim = 197;
        let im = BasisGenerator::new(17).item_memory(19, dim).unwrap();
        let t = TransposedItemMemory::from_item_memory(&im);
        let levels = 10;
        let mut keep = vec![0u64; dim.div_ceil(64)];
        for j in 0..dim {
            if j % 3 != 0 {
                keep[j / 64] |= 1 << (j % 64);
            }
        }
        let input: Vec<f64> = (0..19).map(|k| (k as f64 * 0.29).sin().abs()).collect();
        let fused = scalar_encode_bipolar_masked(&t, &input, levels, &keep).expect("no NaN input");
        let dense = scalar_encode_level_sliced(&t, &input, levels);
        for (j, (&f, &d)) in fused.iter().zip(&dense).enumerate() {
            let expected = if j % 3 == 0 {
                0.0
            } else if d >= 0.0 {
                1.0
            } else {
                -1.0
            };
            assert_eq!(f, expected, "dim {j}");
        }
        // NaN input falls back to the generic composition.
        let mut poisoned = input.clone();
        poisoned[3] = f64::NAN;
        assert!(scalar_encode_bipolar_masked(&t, &poisoned, levels, &keep).is_none());
    }

    #[test]
    fn blocked_scores_bit_match_single_query_scores() {
        let classes: Vec<Hypervector> = (0..3)
            .map(|c| {
                Hypervector::from_vec((0..97).map(|j| ((c * 97 + j) as f64 * 0.7).sin()).collect())
            })
            .collect();
        let m = ClassMatrix::from_classes(&classes);
        let queries: Vec<Vec<f64>> = (0..5)
            .map(|q| (0..97).map(|j| ((q * 31 + j) as f64 * 0.3).cos()).collect())
            .collect();
        let refs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let mut blocked: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
        m.scores_block_into(&refs, &mut blocked);
        for (q, b) in queries.iter().zip(&blocked) {
            let mut single = Vec::new();
            m.scores_into(q, &mut single);
            assert_eq!(&single, b, "blocked path must be bit-identical");
        }
    }
}
