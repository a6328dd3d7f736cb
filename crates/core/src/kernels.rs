//! Throughput-oriented encode and predict kernels.
//!
//! The straightforward implementations of Eq. (2) and Eq. (4) walk one
//! `±v` update per feature per dimension and one dense `f64` dot per
//! class per query. This module replaces those hot paths with kernels
//! that exploit the bit-packed structure of the item/level memories:
//!
//! * [`TransposedItemMemory`] + [`scalar_encode_level_sliced`] — the
//!   scalar encoding of Eq. (2a). `snap` maps every feature onto one of
//!   `ℓ_iv` grid values `g_k/(ℓ−1)`, so the per-dimension sum factors
//!   as `acc_j = (2·w_j − Σ_k g_k)/(ℓ−1)` with `w_j = Σ_k g_k·T_j[k]`,
//!   where `T_j[k]` is 1 exactly when base hypervector `B_k` is `+1` at
//!   dimension `j`. The transposed item memory stores `T` as byte
//!   planes (plane `p` holds features `8p…8p+7` of every dimension), so
//!   one query builds one 16-entry table per four features — entry `v`
//!   is the sum of `g` over the set bits of nibble `v` — and `w_j` is
//!   one table lookup per nibble of column `j`: the CPU form of the
//!   paper's §III-D point that Eq. (2) maps onto lookup tables. The
//!   AVX2 arm looks up 32 dimensions per `vpshufb` (the nibble lookup
//!   of Muła, Kurz and Lemire's AVX2 population count). The integer sum
//!   is exact; a single final multiply scales it back to the grid.
//! * [`level_encode_majority`] — the record encoding of Eq. (2b) as a
//!   word-parallel majority accumulation: the bound rows `L_{v_k} ⊛ B_k`
//!   are streamed through a carry-save-adder (CSA) bit-slice counter, so
//!   64 dimensions advance per machine-word operation instead of one
//!   `f64` update per dimension. Counts are exact small integers, so the
//!   result bit-matches the naive accumulation.
//! * [`ClassMatrix`] + [`dot_unrolled`] / [`dot_sign_dense`] — inference
//!   (Eq. 4) against a contiguous row-major copy of the class
//!   hypervectors with cached norms. Dots run with four independent
//!   accumulators (breaking the serial `fadd` dependency chain of a
//!   naive fold) and the packed-query variant selects the sign
//!   branchlessly via the `f64` sign bit — no `trailing_zeros` loops.
//!   The matrix scores its classes four rows per kernel pass: each query
//!   quad is loaded (and its sign mask built) once for the group, while
//!   every row keeps its own accumulator in the single-row lane and
//!   addition order, so grouped scores bit-match the one-row kernels.
//!   A block of packed queries ([`ClassMatrix::scores_packed_block_into`])
//!   is scored in column tiles: each query's sign masks are expanded
//!   once per tile, and each row group's tile is streamed against the
//!   whole block while it is L1-hot, with the same per-lane adds.
//! * The crate-private `PackedClassMatrix` + [`xor_popcount`] — the
//!   packed-native inference path for sign rows: each class stored as
//!   bit-packed signs plus one magnitude scale, scored against
//!   bit-packed queries with pure `XOR` + popcount word arithmetic
//!   (`dot = s·(D − 2·popcount(q ⊕ row))`), so a 1-bit/dim wire query
//!   is never expanded to dense `f64`s on the serving path.
//! * [`scalar_encode_packed`] / [`scalar_encode_bipolar_masked`] — the
//!   Eq. (2a) kernel fused with bipolar quantization (and, for the
//!   second, dimension masking): both map the same `w_j` to a sign in
//!   exact integers (`2·w_j ≥ Σ_k g_k`), so the dense `f64` accumulator
//!   is never materialized.
//!
//! The `f64` dot kernels and the weighted-count core of the Eq. (2a)
//! kernels dispatch to explicit AVX2 (`std::arch`) variants when the CPU
//! supports them, and [`xor_popcount`] to its scalar loop compiled with
//! AVX2 enabled. Every kernel call makes that choice itself, from a
//! memoized CPUID check (short-circuited at compile time under
//! `-C target-feature=+avx2`); nothing about it is decided when a plan
//! is built. The scalar fallbacks bit-match the AVX2 arms (separate
//! mul+add, identical lane order, or pure integer arithmetic; see
//! `docs/PERF.md` for the dispatch policy). The scalar fallbacks of the
//! row-grouped dots simply run the one-row scalar kernel once per row:
//! rows are independent, so that is already the grouped arm's order.
//!
//! The naive paths stay available as `*_reference` methods on the
//! encoders/model; the property tests in `tests/properties.rs` hold the
//! kernels to them (bit-exact where the arithmetic is integer, ≤1e-9
//! absolute where only the floating-point summation order differs).
//!
//! Per-query scratch (nibble tables, weighted counts, CSA planes, and a
//! query block's tile masks and carried accumulators) lives in a
//! thread-local buffer so steady-state encoding and blocked scoring
//! perform no allocations beyond their results.

use std::cell::RefCell;
use std::ops::Range;

use crate::basis::{ItemMemory, LevelMemory};
use crate::hypervector::{BipolarHv, Hypervector};

const WORD_BITS: usize = 64;

/// Columns per dense scoring tile: 2048 × 8 B = 16 KB per class-row
/// slice. Each class sums one partial dot per tile, in tile order, so
/// this cut is part of every dense score's summation order.
const DIM_TILE: usize = 2_048;

/// Columns per tile of the blocked packed-query pass: 512 × 8 B = 4 KB
/// per class-row slice, so a four-row group's tile (16 KB) stays
/// L1-resident while every query of the block streams against it.
const SIGN_TILE: usize = 512;

/// Class rows scored per pass of the float-row dot kernels: four
/// `__m256d` accumulators hide the `fadd` latency that bounds a single
/// chain, and leave registers for the shared query quad.
const ROW_GROUP: usize = 4;

/// `SIGN_MASKS[n][k]` is the `f64` sign bit when bit `k` of the nibble
/// `n` of an *inverted* query word is set: XOR-ing it into a class
/// value is [`dot_sign_dense`]'s sign select (query bit clear → `−v`).
const SIGN_MASKS: [[u64; 4]; 16] = {
    let mut masks = [[0u64; 4]; 16];
    let mut n = 0;
    while n < 16 {
        let mut k = 0;
        while k < 4 {
            masks[n][k] = ((n as u64) >> k & 1) << 63;
            k += 1;
        }
        n += 1;
    }
    masks
};

/// Features per byte plane of a [`TransposedItemMemory`].
const PLANE_FEATURES: usize = 8;

/// Columns per block of the byte-plane layout: one 256-bit `vpshufb`
/// looks up a block's nibbles of one plane at once.
const PLANE_LANES: usize = 32;

/// Largest `ℓ` the AVX2 weighted-count arm takes: one plane adds at
/// most `8·(ℓ−1)` to a `u16` lane, which must not exceed `u16::MAX`.
const AVX2_MAX_LEVELS: usize = u16::MAX as usize / PLANE_FEATURES + 1;

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Reusable per-thread buffers for the encode kernels and the blocked
/// packed-query pass.
#[derive(Debug, Default)]
struct KernelScratch {
    /// One 16-entry table per nibble of features (scalar encode).
    tables: Vec<[u32; 16]>,
    /// The same tables split into 16 low then 16 high bytes, the
    /// `vpshufb` operands of the AVX2 arm (scalar encode).
    table_bytes: Vec<[u8; 32]>,
    /// Weighted counts `w_j`, one per (padded) column (scalar encode).
    counts: Vec<u32>,
    /// CSA bit-planes, word-major `hv_words × planes` (level encode).
    planes: Vec<u64>,
    /// The current column tile's sign masks, one `[u64; 4]` per quad,
    /// query-major (blocked packed scoring).
    sign_masks: Vec<[u64; 4]>,
    /// One four-lane accumulator per (query, class), query-major,
    /// carried across column tiles (blocked packed scoring).
    sign_acc: Vec<[f64; 4]>,
}

/// Byte-plane transpose of an [`ItemMemory`], or of a subset of its
/// dimensions (columns).
///
/// Plane `p` holds bit `i` = "base hypervector `B_{8p+i}` is `+1` at
/// this column" for every column, one byte per column; a column's
/// `⌈D_iv/8⌉` bytes are its whole row `T_j` of signs. Columns are
/// padded to a multiple of 32 and stored block-major (the 32 columns of
/// a block, plane by plane), so the encode kernels stream the memory
/// once, in order. This is the layout that lets
/// [`scalar_encode_level_sliced`] answer "what is `Σ_k g_k` over the
/// features positive at column `j`" with one table lookup per nibble.
#[derive(Debug, Clone)]
pub struct TransposedItemMemory {
    features: usize,
    dim: usize,
    planes: usize,
    /// `⌈dim/32⌉` blocks of `planes × 32` bytes.
    bytes: Vec<u8>,
}

impl TransposedItemMemory {
    /// Builds the transpose of `item` (done once per encoder).
    pub fn from_item_memory(item: &ItemMemory) -> Self {
        let mut t = Self::zeroed(item.len(), item.dim());
        for (k, base) in item.iter().enumerate() {
            let (p, bit) = (k / PLANE_FEATURES, k % PLANE_FEATURES);
            for (w, &bw) in base.words().iter().enumerate() {
                let mut word = bw;
                while word != 0 {
                    let j = w * WORD_BITS + word.trailing_zeros() as usize;
                    if j >= t.dim {
                        break;
                    }
                    let at = t.offset(j, p);
                    t.bytes[at] |= 1 << bit;
                    word &= word - 1;
                }
            }
        }
        t
    }

    /// The byte planes of the columns whose bit is set in `keep_words`
    /// (bit `j` of word `j/64` ⇔ column `j` is kept), in index order —
    /// what a masked plan compiles so that it never computes a masked
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics if `keep_words` is shorter than `⌈dim/64⌉` words.
    pub(crate) fn kept_columns(&self, keep_words: &[u64]) -> Self {
        let kept: Vec<usize> = (0..self.dim)
            .filter(|&j| keep_words[j / WORD_BITS] >> (j % WORD_BITS) & 1 == 1)
            .collect();
        let mut t = Self::zeroed(self.features, kept.len());
        for (c, &j) in kept.iter().enumerate() {
            for p in 0..self.planes {
                let (to, from) = (t.offset(c, p), self.offset(j, p));
                t.bytes[to] = self.bytes[from];
            }
        }
        t
    }

    fn zeroed(features: usize, dim: usize) -> Self {
        let planes = features.div_ceil(PLANE_FEATURES);
        Self {
            features,
            dim,
            planes,
            bytes: vec![0; dim.div_ceil(PLANE_LANES) * planes * PLANE_LANES],
        }
    }

    /// Index of column `j`'s byte in plane `p`.
    fn offset(&self, j: usize, p: usize) -> usize {
        ((j / PLANE_LANES) * self.planes + p) * PLANE_LANES + j % PLANE_LANES
    }

    /// Number of features `D_iv` (bits per column).
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of columns: the hypervector dimensionality `D_hv`, or the
    /// number of kept dimensions of a masked plan's subset.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Level-sliced scalar encode (Eq. 2a): see the [module docs](self) for
/// the factorization. `input` must hold exactly `im_t.features()` values;
/// they are clamped to `[0, 1]` and snapped to the `levels`-point grid
/// exactly like the reference path.
///
/// # Panics
///
/// Panics if `input.len() != im_t.features()`, `levels < 2`, or
/// `features·(levels−1)` exceeds `u32::MAX` (the encoder validates all
/// three).
pub fn scalar_encode_level_sliced(
    im_t: &TransposedItemMemory,
    input: &[f64],
    levels: usize,
) -> Vec<f64> {
    assert_eq!(input.len(), im_t.features, "feature count mismatch");
    // The integer pipeline would silently snap NaN to grid index 0;
    // poison the whole encoding instead, as the reference path does.
    if input.iter().any(|v| v.is_nan()) {
        return vec![f64::NAN; im_t.dim];
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let total = weighted_counts(im_t, input, levels, scratch) as i64;
        let inv_steps = 1.0 / (levels - 1) as f64;
        // acc_j = (2·w_j − Σ_k g_k) / (ℓ−1): exact in integers, one
        // rounding at the final scale.
        scratch.counts[..im_t.dim]
            .iter()
            .map(|&w| (2 * i64::from(w) - total) as f64 * inv_steps)
            .collect()
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
/// `2·w_j ≥ Σ_k g_k` runs in exact integers, so the result
/// bit-matches bipolar-quantizing the dense kernel's output.
///
/// Returns `None` if any input is NaN: the dense path poisons the whole
/// encoding with NaN, which a 1-bit representation cannot carry.
///
/// # Panics
///
/// Same contract as [`scalar_encode_level_sliced`].
pub fn scalar_encode_packed(
    im_t: &TransposedItemMemory,
    input: &[f64],
    levels: usize,
) -> Option<BipolarHv> {
    assert_eq!(input.len(), im_t.features, "feature count mismatch");
    if input.iter().any(|v| v.is_nan()) {
        return None;
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let total = weighted_counts(im_t, input, levels, scratch);
        let mut words = vec![0u64; im_t.dim.div_ceil(WORD_BITS)];
        for (word, counts) in words
            .iter_mut()
            .zip(scratch.counts[..im_t.dim].chunks(WORD_BITS))
        {
            // acc_j ≥ 0 ⇔ 2·w_j ≥ Σ_k g_k: the 1/(ℓ−1) scale is
            // positive, so the comparison happens in exact integers.
            for (b, &w) in counts.iter().enumerate() {
                *word |= u64::from(2 * u64::from(w) >= total) << b;
            }
        }
        Some(BipolarHv::from_words(im_t.dim, words))
    })
}

/// [`scalar_encode_level_sliced`] fused with bipolar quantization *and*
/// dimension masking — the compiled
/// [`EncodePlan`](crate::plan::EncodePlan) kernel for the paper's
/// operating point (bipolar inference quantization + masked dims,
/// §III-C). `keep_words` packs one bit per output dimension (bit set ⇔
/// the dimension survives the obfuscation mask; at least `⌈dim/64⌉`
/// words, zero tail bits), and `kept` holds the byte planes of exactly
/// the kept columns, in index order (what an `EncodePlan` compiles, or
/// the whole item memory when nothing is masked).
///
/// Masked dimensions are emitted as `0.0` and never computed: the
/// weighted counts run over the kept columns only. Kept dimensions run
/// the exact-integer sign test `2·w_j ≥ Σ_k g_k` of
/// [`scalar_encode_packed`], so the output bit-matches
/// `obfuscate(encode(input))` under [`crate::QuantScheme::Bipolar`]
/// (whose result is independent of the σ threshold).
///
/// Returns `None` if any input is NaN — the generic composition then
/// defines the semantics (NaN poisons the accumulator and the bipolar
/// comparison resolves it) and the caller falls back to it.
///
/// # Panics
///
/// Panics if `input.len() != kept.features()`, `keep_words` is shorter
/// than `⌈dim/64⌉`, its first `⌈dim/64⌉` words do not set exactly
/// `kept.dim()` bits, or `levels` breaks the contract of
/// [`scalar_encode_level_sliced`] (the plan compiler guarantees all of
/// them).
pub fn scalar_encode_bipolar_masked(
    kept: &TransposedItemMemory,
    input: &[f64],
    levels: usize,
    keep_words: &[u64],
    dim: usize,
) -> Option<Vec<f64>> {
    assert_eq!(input.len(), kept.features, "feature count mismatch");
    let keep_words = &keep_words[..dim.div_ceil(WORD_BITS)];
    assert_eq!(
        keep_words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>(),
        kept.dim,
        "keep mask does not match the kept columns"
    );
    if input.iter().any(|v| v.is_nan()) {
        return None;
    }
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let total = weighted_counts(kept, input, levels, scratch);
        let mut counts = scratch.counts[..kept.dim].iter();
        let mut acc = vec![0.0; dim];
        for (w, &keep) in keep_words.iter().enumerate() {
            let mut bits = keep;
            while bits != 0 {
                let j = w * WORD_BITS + bits.trailing_zeros() as usize;
                // Kept columns and set bits are equinumerous (asserted
                // above), in the same index order.
                let w_j = *counts.next().expect("one count per kept column");
                // acc_j ≥ 0 ⇔ 2·w_j ≥ Σ_k g_k (positive 1/(ℓ−1) scale),
                // then Bipolar maps `≥ 0` to +1 — all in exact integers.
                acc[j] = if 2 * u64::from(w_j) >= total {
                    1.0
                } else {
                    -1.0
                };
                bits &= bits - 1;
            }
        }
        Some(acc)
    })
}

/// Computes `w_j = Σ_k g_k·T_j[k]` exactly for every column of `im`
/// into `scratch.counts` (padded to whole 32-column blocks; the padding
/// counts are 0), where `g_k = round(clamp(input_k)·(ℓ−1))`, and
/// returns `Σ_k g_k`.
///
/// Builds one 16-entry table per nibble of features, then looks every
/// column's nibbles up in them. The AVX2 arm runs while one plane's
/// contribution `8·(ℓ−1)` fits its `u16` lanes (`ℓ ≤ 8,192`); above
/// that, or without AVX2, the scalar arm runs. Both are exact integer
/// arithmetic, so they agree bit for bit.
///
/// # Panics
///
/// Panics if `levels < 2` or `features·(levels−1) > u32::MAX`: every
/// table entry and count is bounded by that product.
fn weighted_counts(
    im: &TransposedItemMemory,
    input: &[f64],
    levels: usize,
    scratch: &mut KernelScratch,
) -> u64 {
    assert!(levels >= 2, "need at least two levels");
    assert!(
        im.features
            .checked_mul(levels - 1)
            .is_some_and(|n| n <= u32::MAX as usize),
        "features·(levels−1) must fit 32-bit counts"
    );
    let total = nibble_tables(input, levels, im.planes, &mut scratch.tables);
    scratch.counts.clear();
    scratch
        .counts
        .resize(im.dim.div_ceil(PLANE_LANES) * PLANE_LANES, 0);
    #[cfg(target_arch = "x86_64")]
    if levels <= AVX2_MAX_LEVELS && avx2_available() {
        scratch.table_bytes.clear();
        scratch
            .table_bytes
            .extend(scratch.tables.iter().map(|table| {
                // Entries are at most 4·(ℓ−1) < 2^16: two bytes each.
                let mut split = [0u8; 32];
                for (v, &entry) in table.iter().enumerate() {
                    split[v] = entry as u8;
                    split[16 + v] = (entry >> 8) as u8;
                }
                split
            }));
        let flush_every = u16::MAX as usize / (PLANE_FEATURES * (levels - 1));
        // SAFETY: `avx2_available` verified the AVX2 requirement, the
        // arm's only precondition: its loads and stores are bounded by
        // array types.
        unsafe {
            weighted_counts_avx2(
                &im.bytes,
                im.planes,
                &scratch.table_bytes,
                flush_every,
                &mut scratch.counts,
            )
        };
        return total;
    }
    weighted_counts_scalar(&im.bytes, im.planes, &scratch.tables, &mut scratch.counts);
    total
}

/// Fills `tables` with the query's `2·planes` nibble tables — entry `v`
/// of table `n` is `Σ g_{4n+i}` over the set bits `i` of `v`, features
/// past the input counting 0 — and returns `Σ_k g_k`.
fn nibble_tables(input: &[f64], levels: usize, planes: usize, tables: &mut Vec<[u32; 16]>) -> u64 {
    let steps = (levels - 1) as f64;
    let mut total = 0u64;
    let mut nibbles = input.chunks(PLANE_FEATURES / 2);
    tables.clear();
    tables.extend((0..2 * planes).map(|_| {
        let mut table = [0u32; 16];
        for (i, &raw) in nibbles.next().unwrap_or_default().iter().enumerate() {
            let g = quantize_index(raw, steps);
            total += g;
            // Entries with bit `i` set add g_i to the entry without it;
            // the caller bounds every sum by features·(ℓ−1) ≤ u32::MAX.
            for v in 0..1 << i {
                table[1 << i | v] = table[v] + g as u32;
            }
        }
        table
    }));
    total
}

/// Scalar arm of [`weighted_counts`]: per column, one table lookup per
/// nibble of every plane.
fn weighted_counts_scalar(bytes: &[u8], planes: usize, tables: &[[u32; 16]], counts: &mut [u32]) {
    let (blocks, _) = counts.as_chunks_mut::<PLANE_LANES>();
    for (block, out) in bytes.chunks_exact(planes * PLANE_LANES).zip(blocks) {
        let (block, _) = block.as_chunks::<PLANE_LANES>();
        for (c, w) in out.iter_mut().enumerate() {
            let mut sum = 0u32;
            for (plane, pair) in block.iter().zip(tables.chunks_exact(2)) {
                let byte = plane[c];
                sum += pair[0][usize::from(byte & 0x0F)] + pair[1][usize::from(byte >> 4)];
            }
            *w = sum;
        }
    }
}

/// AVX2 arm of [`weighted_counts`]: for each 32-column block, every
/// plane's low and high nibbles index their tables with two `vpshufb`
/// each (one for the entries' low bytes, one for their high bytes), and
/// the byte pairs are interleaved into `u16` lanes and added. The `u16`
/// sums are widened into `u32` accumulators every `flush_every` planes,
/// before `flush_every·8·(ℓ−1)` could exceed `u16::MAX`. The unpacks
/// work within 128-bit halves, so the accumulators hold columns
/// `{0–3, 16–19}`, `{4–7, 20–23}`, `{8–11, 24–27}`, `{12–15, 28–31}`,
/// and one cross-half permute per output vector restores column order.
/// Every raw load and store addresses a fixed-size array (a plane, a
/// table, eight counts), so no shape of the arguments can take it out of
/// bounds; [`weighted_counts`] passes one table per nibble and one
/// count per padded column.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weighted_counts_avx2(
    bytes: &[u8],
    planes: usize,
    tables: &[[u8; 32]],
    flush_every: usize,
    counts: &mut [u32],
) {
    use std::arch::x86_64::*;
    let low_nibble = _mm256_set1_epi8(0x0F);
    let zero = _mm256_setzero_si256();
    let (blocks, _) = counts.as_chunks_mut::<PLANE_LANES>();
    for (block, out) in bytes.chunks_exact(planes * PLANE_LANES).zip(blocks) {
        let mut wide = [zero; 4];
        let (block, _) = block.as_chunks::<PLANE_LANES>();
        for (run, run_tables) in block
            .chunks(flush_every)
            .zip(tables.chunks(2 * flush_every))
        {
            let mut narrow = [zero; 2];
            for (plane, pair) in run.iter().zip(run_tables.chunks_exact(2)) {
                // SAFETY: `plane` is a `[u8; 32]`: exactly the 32 bytes
                // the unaligned load reads.
                let v = unsafe { _mm256_loadu_si256(plane.as_ptr().cast()) };
                let lo = _mm256_and_si256(v, low_nibble);
                let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_nibble);
                for (index, table) in [lo, hi].into_iter().zip(pair) {
                    // SAFETY: `table` is a `[u8; 32]`; the two 16-byte
                    // loads read its low-byte and high-byte halves.
                    let (low, high) = unsafe {
                        (
                            _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().cast())),
                            _mm256_broadcastsi128_si256(_mm_loadu_si128(
                                table.as_ptr().add(16).cast(),
                            )),
                        )
                    };
                    let low = _mm256_shuffle_epi8(low, index);
                    let high = _mm256_shuffle_epi8(high, index);
                    narrow[0] = _mm256_add_epi16(narrow[0], _mm256_unpacklo_epi8(low, high));
                    narrow[1] = _mm256_add_epi16(narrow[1], _mm256_unpackhi_epi8(low, high));
                }
            }
            wide[0] = _mm256_add_epi32(wide[0], _mm256_unpacklo_epi16(narrow[0], zero));
            wide[1] = _mm256_add_epi32(wide[1], _mm256_unpackhi_epi16(narrow[0], zero));
            wide[2] = _mm256_add_epi32(wide[2], _mm256_unpacklo_epi16(narrow[1], zero));
            wide[3] = _mm256_add_epi32(wide[3], _mm256_unpackhi_epi16(narrow[1], zero));
        }
        let ordered = [
            _mm256_permute2x128_si256::<0x20>(wide[0], wide[1]),
            _mm256_permute2x128_si256::<0x20>(wide[2], wide[3]),
            _mm256_permute2x128_si256::<0x31>(wide[0], wide[1]),
            _mm256_permute2x128_si256::<0x31>(wide[2], wide[3]),
        ];
        let (chunks, _) = out.as_chunks_mut::<8>();
        for (chunk, v) in chunks.iter_mut().zip(ordered) {
            // SAFETY: `chunk` is a `[u32; 8]`: exactly the 32 bytes the
            // unaligned store writes.
            unsafe { _mm256_storeu_si256(chunk.as_mut_ptr().cast(), v) };
        }
    }
}

/// True when the dot/popcount kernels of this module dispatch to their
/// AVX2 arms on this host: the memoized check each kernel call makes,
/// exposed for reports such as [`crate::ModelPlan::describe`]. Always
/// false off x86-64.
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
    let [dot] = dot_unrolled_rows(a, [b]);
    dot
}

/// [`dot_unrolled`] of `a` against `R` rows at once (`1 ≤ R ≤ 4`):
/// element `r` of the result bit-matches `dot_unrolled(a, rows[r])`.
/// The AVX2 arm loads each quad of `a` once for all rows; every row
/// keeps its own accumulator in the single-row lane and addition order.
/// Every row must be as long as `rows[0]`.
fn dot_unrolled_rows<const R: usize>(a: &[f64], rows: [&[f64]; R]) -> [f64; R] {
    const { assert!(1 <= R && R <= ROW_GROUP) };
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available` verified the AVX2 requirement.
        return unsafe { dot_unrolled_avx2(a, rows) };
    }
    // Rows are independent, so one scalar pass per row is already the
    // interleaved arm's order.
    rows.map(|row| dot_unrolled_scalar(a, row))
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

/// AVX2 arm of [`dot_unrolled_rows`]: one `__m256d` accumulator per
/// row, whose four lanes mirror the scalar arm's four accumulators
/// exactly. Each quad of `a` is loaded once and multiplied into every
/// row, so `R` independent add chains share one pass.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_unrolled_avx2<const R: usize>(a: &[f64], rows: [&[f64]; R]) -> [f64; R] {
    use std::arch::x86_64::*;
    let n = a.len().min(rows[0].len());
    // The raw loads below read every row up to `n`.
    assert!(
        rows.iter().all(|row| row.len() == rows[0].len()),
        "rows differ in length"
    );
    let quads = n - n % 4;
    let mut acc = [_mm256_setzero_pd(); R];
    let mut i = 0;
    while i < quads {
        // SAFETY: `i + 3 < quads ≤ n ≤ a.len()` keeps the 32-byte
        // unaligned load in bounds.
        let va = unsafe { _mm256_loadu_pd(a.as_ptr().add(i)) };
        for (acc, row) in acc.iter_mut().zip(rows) {
            // SAFETY: as above — `n ≤ row.len()`, asserted for every
            // row before the loop.
            let vb = unsafe { _mm256_loadu_pd(row.as_ptr().add(i)) };
            // Separate mul + add (no FMA): each lane performs the same
            // two correctly-rounded operations as the scalar arm,
            // keeping the two arms bit-identical.
            *acc = _mm256_add_pd(*acc, _mm256_mul_pd(va, vb));
        }
        i += 4;
    }
    let mut dots = [0.0f64; R];
    for ((dot, acc), row) in dots.iter_mut().zip(acc).zip(rows) {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` is exactly the 32 bytes the store writes.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
        let mut tail = 0.0;
        for (x, y) in a[quads..n].iter().zip(&row[quads..n]) {
            tail += x * y;
        }
        *dot = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail;
    }
    dots
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
    let [dot] = dot_sign_dense_rows(words, [values]);
    dot
}

/// [`dot_sign_dense`] of one packed query against `R` value rows at
/// once (`1 ≤ R ≤ 4`): element `r` of the result bit-matches
/// `dot_sign_dense(words, rows[r])`. The AVX2 arm builds each quad's
/// sign mask once for all rows; every row keeps its own accumulator in
/// the single-row lane and addition order. Every row must be as long
/// as `rows[0]`.
fn dot_sign_dense_rows<const R: usize>(words: &[u64], rows: [&[f64]; R]) -> [f64; R] {
    const { assert!(1 <= R && R <= ROW_GROUP) };
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available` verified the AVX2 requirement.
        return unsafe { dot_sign_dense_avx2(words, rows) };
    }
    // Rows are independent, so one scalar pass per row is already the
    // interleaved arm's order.
    rows.map(|row| dot_sign_dense_scalar(words, row))
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

/// AVX2 arm of [`dot_sign_dense_rows`]: the per-lane sign masks come
/// from a variable 64-bit left shift of the inverted query word
/// (`(!w) << (63−lane)` isolates bit `lane` at the sign position), so
/// four sign selects and four adds happen per vector op, and one mask
/// serves all `R` rows. Each row has its own `__m256d` accumulator.
/// Lane assignment (`position mod 4`) and addition order match the
/// scalar arm exactly — only a full 64-value chunk can be followed by
/// another chunk, so the global quad prefix coincides with the
/// per-chunk quads.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_sign_dense_avx2<const R: usize>(words: &[u64], rows: [&[f64]; R]) -> [f64; R] {
    use std::arch::x86_64::*;
    let n = rows[0].len().min(words.len() * WORD_BITS);
    // The raw loads below read every row up to `n`.
    assert!(
        rows.iter().all(|row| row.len() == rows[0].len()),
        "rows differ in length"
    );
    let quads = n - n % 4;
    let sign_bit = _mm256_set1_epi64x(i64::MIN);
    let shifts = _mm256_setr_epi64x(63, 62, 61, 60);
    let mut acc = [_mm256_setzero_pd(); R];
    let mut i = 0;
    while i < quads {
        let nw = !words[i / WORD_BITS] >> (i % WORD_BITS);
        let signs = _mm256_castsi256_pd(_mm256_and_si256(
            _mm256_sllv_epi64(_mm256_set1_epi64x(nw as i64), shifts),
            sign_bit,
        ));
        for (acc, row) in acc.iter_mut().zip(rows) {
            // SAFETY: `i + 3 < quads ≤ n ≤ row.len()`, asserted for
            // every row before the loop, keeps the load in bounds.
            let v = unsafe { _mm256_loadu_pd(row.as_ptr().add(i)) };
            *acc = _mm256_add_pd(*acc, _mm256_xor_pd(v, signs));
        }
        i += 4;
    }
    let mut dots = [0.0f64; R];
    for ((dot, acc), row) in dots.iter_mut().zip(acc).zip(rows) {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` is exactly the 32 bytes the store writes.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
        if quads < n {
            let nw = !words[quads / WORD_BITS] >> (quads % WORD_BITS);
            for (b, &v) in row[quads..n].iter().enumerate() {
                lanes[b & 3] += f64::from_bits(v.to_bits() ^ ((nw >> b & 1) << 63));
            }
        }
        *dot = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    }
    dots
}

/// One column tile of the blocked packed-query pass: adds `±rows[r]`
/// into `acc[r]` quad by quad (`1 ≤ R ≤ 4`), the sign of lane `k` of
/// quad `i` taken from `masks[i][k]`. Each lane receives the adds of
/// [`dot_sign_dense_rows`] over the same columns in the same order, so
/// carrying `acc` from tile to tile reproduces the one-query pass. Every
/// row must hold at least `4·masks.len()` values.
fn sign_tile_rows<const R: usize>(masks: &[[u64; 4]], rows: [&[f64]; R], acc: &mut [[f64; 4]; R]) {
    const { assert!(1 <= R && R <= ROW_GROUP) };
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available` verified the AVX2 requirement.
        return unsafe { sign_tile_avx2(masks, rows, acc) };
    }
    sign_tile_scalar(masks, rows, acc);
}

/// Scalar arm of [`sign_tile_rows`]. Rows are independent, so one pass
/// per row is already the interleaved arm's order.
fn sign_tile_scalar<const R: usize>(
    masks: &[[u64; 4]],
    rows: [&[f64]; R],
    acc: &mut [[f64; 4]; R],
) {
    for (row, lanes) in rows.iter().zip(acc.iter_mut()) {
        for (quad, mask) in row.as_chunks::<4>().0.iter().zip(masks) {
            for ((lane, &v), &sign) in lanes.iter_mut().zip(quad).zip(mask) {
                *lane += f64::from_bits(v.to_bits() ^ sign);
            }
        }
    }
}

/// AVX2 arm of [`sign_tile_rows`]: one `__m256d` per row, loaded from
/// and stored back to its carried accumulator; each quad's mask is
/// loaded once for all `R` rows.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sign_tile_avx2<const R: usize>(
    masks: &[[u64; 4]],
    rows: [&[f64]; R],
    acc: &mut [[f64; 4]; R],
) {
    use std::arch::x86_64::*;
    // The raw row loads below read every row up to `4·masks.len()`.
    assert!(
        rows.iter().all(|row| row.len() >= 4 * masks.len()),
        "row shorter than its tile"
    );
    let mut sums = [_mm256_setzero_pd(); R];
    for (sum, lanes) in sums.iter_mut().zip(acc.iter()) {
        // SAFETY: `lanes` is a `[f64; 4]`: exactly the 32 bytes the
        // unaligned load reads.
        *sum = unsafe { _mm256_loadu_pd(lanes.as_ptr()) };
    }
    for (i, mask) in masks.iter().enumerate() {
        // SAFETY: `mask` is a `[u64; 4]`: exactly the 32 bytes the
        // unaligned load reads.
        let signs = unsafe { _mm256_loadu_pd(mask.as_ptr().cast()) };
        for (sum, row) in sums.iter_mut().zip(rows) {
            // SAFETY: `4i + 3 < 4·masks.len() ≤ row.len()`, asserted for
            // every row before the loop, keeps the load in bounds.
            let v = unsafe { _mm256_loadu_pd(row.as_ptr().add(4 * i)) };
            *sum = _mm256_add_pd(*sum, _mm256_xor_pd(v, signs));
        }
    }
    for (lanes, sum) in acc.iter_mut().zip(sums) {
        // SAFETY: `lanes` is a `[f64; 4]`: exactly the 32 bytes the
        // unaligned store writes.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), sum) };
    }
}

/// Number of mismatching sign bits between two packed bipolar rows:
/// `Σ_w popcount(a_w ⊕ b_w)` over the shorter slice — the Hamming
/// kernel of the packed predict path.
///
/// Dispatches to an AVX2 arm (see `docs/PERF.md`); both arms are the
/// same pure integer loop and trivially agree. Neither emits a `POPCNT`
/// instruction: the default x86-64 target lacks the `popcnt` feature,
/// so `count_ones` compiles to a shift-and-mask (SWAR) count in the
/// scalar arm and is vectorized into a `vpshufb` nibble lookup in the
/// AVX2 arm.
pub fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: `avx2_available` verified the AVX2 requirement.
        return unsafe { xor_popcount_avx2(a, b) };
    }
    xor_popcount_scalar(a, b)
}

#[inline(always)]
fn xor_popcount_scalar(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

/// AVX2 arm of [`xor_popcount`]: the scalar loop, inlined into a body
/// compiled with AVX2 enabled, which the compiler vectorizes into
/// 256-bit XORs and a `vpshufb` nibble count (no `POPCNT`, no AVX-512
/// `VPOPCNTDQ`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn xor_popcount_avx2(a: &[u64], b: &[u64]) -> u64 {
    xor_popcount_scalar(a, b)
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
    /// [`f64::NEG_INFINITY`].
    ///
    /// The dimension axis is cut into 2,048-column tiles and every
    /// class accumulates one partial [`dot_unrolled`] per tile, in tile
    /// order. Within a tile the classes go in groups of four rows (the
    /// last group holds the 1–3 left over), and the query slice is
    /// scored against a whole group in one pass. Tile boundaries are a
    /// function of the dimension alone and each row keeps
    /// [`dot_unrolled`]'s order, so the summation order is independent
    /// of the grouping.
    pub fn scores_into(&self, query: &[f64], scores: &mut Vec<f64>) {
        scores.clear();
        scores.resize(self.num_classes, 0.0);
        for tile_start in (0..self.dim).step_by(DIM_TILE) {
            let cols = tile_start..(tile_start + DIM_TILE).min(self.dim);
            for first in (0..self.num_classes).step_by(ROW_GROUP) {
                match self.num_classes - first {
                    1 => self.tile_group::<1>(first, cols.clone(), query, scores),
                    2 => self.tile_group::<2>(first, cols.clone(), query, scores),
                    3 => self.tile_group::<3>(first, cols.clone(), query, scores),
                    _ => self.tile_group::<4>(first, cols.clone(), query, scores),
                }
            }
        }
        self.normalize(scores);
    }

    /// Adds the query's partial dots over `cols` against classes
    /// `first..first + R` to its scores.
    fn tile_group<const R: usize>(
        &self,
        first: usize,
        cols: Range<usize>,
        query: &[f64],
        scores: &mut [f64],
    ) {
        let rows = self.row_group::<R>(first, cols.clone());
        let dots = dot_unrolled_rows(&query[cols], rows);
        for (s, dot) in scores[first..first + R].iter_mut().zip(dots) {
            *s += dot;
        }
    }

    /// Classes `first..first + R`, restricted to the columns `cols`.
    fn row_group<const R: usize>(&self, first: usize, cols: Range<usize>) -> [&[f64]; R] {
        std::array::from_fn(|r| &self.class_row(first + r)[cols.clone()])
    }

    /// Divides raw dots by the cached class norms; zero-norm classes
    /// score [`f64::NEG_INFINITY`].
    fn normalize(&self, scores: &mut [f64]) {
        for (s, &norm) in scores.iter_mut().zip(&self.norms) {
            *s = if norm == 0.0 {
                f64::NEG_INFINITY
            } else {
                *s / norm
            };
        }
    }

    /// Normalized scores of a bit-packed bipolar query against every
    /// class via [`dot_sign_dense`]'s sign select. The classes go in
    /// groups of four rows (the last group holds the 1–3 left over),
    /// and each query quad's sign mask is built once per group; every
    /// score bit-matches `dot_sign_dense(query_words, row) / norm`.
    /// Zero-norm classes score [`f64::NEG_INFINITY`].
    pub fn scores_packed_into(&self, query_words: &[u64], scores: &mut Vec<f64>) {
        scores.clear();
        scores.resize(self.num_classes, 0.0);
        for (g, dots) in scores.chunks_mut(ROW_GROUP).enumerate() {
            let first = g * ROW_GROUP;
            match dots.len() {
                1 => self.packed_group::<1>(query_words, first, dots),
                2 => self.packed_group::<2>(query_words, first, dots),
                3 => self.packed_group::<3>(query_words, first, dots),
                _ => self.packed_group::<4>(query_words, first, dots),
            }
        }
        self.normalize(scores);
    }

    /// Writes the raw sign-select dots of the query against classes
    /// `first..first + R` into `dots`.
    fn packed_group<const R: usize>(&self, query_words: &[u64], first: usize, dots: &mut [f64]) {
        let rows = self.row_group::<R>(first, 0..self.dim);
        dots.copy_from_slice(&dot_sign_dense_rows(query_words, rows));
    }

    /// [`ClassMatrix::scores_packed_into`] for a block of packed queries
    /// at once: `out[q]` bit-matches `scores_packed_into(queries[q], ..)`.
    ///
    /// A block of one takes the one-query pass, which builds each quad's
    /// sign mask inline. A larger block cuts the quad prefix of the
    /// dimension axis into 512-column tiles. Per tile, every query's
    /// sign masks are expanded once into thread-local scratch, and then
    /// each four-row class group's tile is streamed against every query
    /// while it is L1-hot. So the matrix is read once per block instead
    /// of once per query, and no mask is rebuilt per row group. Each `(query, class)` pair keeps its four lanes across
    /// tiles, and every lane receives the one-query pass's adds in the
    /// same order; the `dim mod 4` tail and the `(l0+l1)+(l2+l3)`
    /// reduction run after the last tile, as they do there.
    ///
    /// # Panics
    ///
    /// Panics if `queries` and `out` lengths differ, or a query holds
    /// fewer than `⌈dim/64⌉` words.
    pub fn scores_packed_block_into(&self, queries: &[&[u64]], out: &mut [Vec<f64>]) {
        assert_eq!(queries.len(), out.len(), "one score row per query");
        if let ([query], [scores]) = (queries, &mut *out) {
            return self.scores_packed_into(query, scores);
        }
        assert!(
            queries.iter().all(|q| q.len() * WORD_BITS >= self.dim),
            "query shorter than the class rows"
        );
        for scores in out.iter_mut() {
            scores.clear();
        }
        if self.num_classes == 0 {
            return;
        }
        SCRATCH.with(|scratch| self.packed_block(queries, out, &mut scratch.borrow_mut()));
    }

    /// The tiled pass of [`ClassMatrix::scores_packed_block_into`].
    fn packed_block(&self, queries: &[&[u64]], out: &mut [Vec<f64>], scratch: &mut KernelScratch) {
        let quads = self.dim - self.dim % 4;
        scratch.sign_acc.clear();
        scratch
            .sign_acc
            .resize(queries.len() * self.num_classes, [0.0; 4]);
        for tile_start in (0..quads).step_by(SIGN_TILE) {
            let cols = tile_start..(tile_start + SIGN_TILE).min(quads);
            scratch.sign_masks.clear();
            for words in queries {
                scratch.sign_masks.extend(cols.clone().step_by(4).map(|i| {
                    SIGN_MASKS[(!words[i / WORD_BITS] >> (i % WORD_BITS) & 0xF) as usize]
                }));
            }
            let (masks, acc) = (&scratch.sign_masks, &mut scratch.sign_acc);
            for first in (0..self.num_classes).step_by(ROW_GROUP) {
                match self.num_classes - first {
                    1 => self.sign_tile_group::<1>(first, cols.clone(), masks, acc),
                    2 => self.sign_tile_group::<2>(first, cols.clone(), masks, acc),
                    3 => self.sign_tile_group::<3>(first, cols.clone(), masks, acc),
                    _ => self.sign_tile_group::<4>(first, cols.clone(), masks, acc),
                }
            }
        }
        let carried = scratch.sign_acc.chunks_exact(self.num_classes);
        for ((words, scores), acc) in queries.iter().zip(out).zip(carried) {
            let tail_signs =
                (quads < self.dim).then(|| !words[quads / WORD_BITS] >> (quads % WORD_BITS));
            scores.extend(acc.iter().enumerate().map(|(l, &lanes)| {
                let mut lanes = lanes;
                if let Some(nw) = tail_signs {
                    for (b, &v) in self.class_row(l)[quads..].iter().enumerate() {
                        lanes[b] += f64::from_bits(v.to_bits() ^ ((nw >> b & 1) << 63));
                    }
                }
                (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
            }));
            self.normalize(scores);
        }
    }

    /// Streams classes `first..first + R`, restricted to the tile `cols`,
    /// against every query's expanded tile masks (`masks`, query-major),
    /// into the queries' carried accumulators (`acc`, query-major).
    fn sign_tile_group<const R: usize>(
        &self,
        first: usize,
        cols: Range<usize>,
        masks: &[[u64; 4]],
        acc: &mut [[f64; 4]],
    ) {
        let rows = self.row_group::<R>(first, cols.clone());
        let per_query = masks.chunks_exact(cols.len() / 4);
        for (masks, acc) in per_query.zip(acc.chunks_exact_mut(self.num_classes)) {
            let group = acc[first..]
                .first_chunk_mut::<R>()
                .expect("a group's rows are classes");
            sign_tile_rows(masks, rows, group);
        }
    }

    /// Heap footprint of this snapshot in bytes (dense values, cached
    /// norms) — the dense side of the per-model `memory_bytes` serving
    /// metric.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.dense.as_slice()) + std::mem::size_of_val(self.norms.as_slice())
    }
}

/// A bit-packed, inference-ready snapshot of a sign-row model's class
/// hypervectors: the packed-native counterpart of [`ClassMatrix`],
/// compiled next to it by [`crate::ModelPlan`].
///
/// Each class is stored as its packed sign row (bit 1 ⇔ `value ≥ 0`,
/// the `sign(0) = +1` rule of [`crate::QuantScheme::Bipolar`]) plus one
/// `f64` magnitude. Construction succeeds only when that factorization
/// is *exact*: every value of a row shares one magnitude (signs free),
/// or the row is all zero (scale 0). That covers the sign-only models
/// produced by [`crate::HdModel::quantize_classes`] with
/// [`crate::QuantScheme::Bipolar`]; anything else returns `None` and
/// the plan keeps scoring through the dense rows.
///
/// Scoring a packed query is then pure word arithmetic:
/// `dot_l = s_l · (D − 2·popcount(q ⊕ σ_l))` — tail bits of both
/// operands are zero, so the XOR never counts them — at 64 dimensions
/// per `XOR` + popcount instead of one `f64` add per dimension. For ±1
/// rows every partial sum is a small exact integer, so the scores
/// bit-match the dense path (asserted by the parity proptests in
/// `tests/properties.rs`). The class norms are the [`ClassMatrix`]'s.
#[derive(Debug, Clone)]
pub(crate) struct PackedClassMatrix {
    dim: usize,
    hv_words: usize,
    sign_rows: Vec<u64>,
    /// One magnitude per class, index = class label.
    scales: Vec<f64>,
}

impl PackedClassMatrix {
    /// Attempts to snapshot `classes` into the packed layout. Returns
    /// `None` unless every class is exactly `scale × sign` (see the type
    /// docs); an empty slice yields an empty matrix.
    ///
    /// # Panics
    ///
    /// Panics if class dimensionalities disagree (the model guarantees
    /// they do not).
    pub(crate) fn try_from_classes(classes: &[Hypervector]) -> Option<Self> {
        let dim = classes.first().map_or(0, Hypervector::dim);
        let hv_words = dim.div_ceil(WORD_BITS);
        let mut packed = Self {
            dim,
            hv_words,
            sign_rows: vec![0; classes.len() * hv_words],
            scales: vec![0.0; classes.len()],
        };
        for (l, class) in classes.iter().enumerate() {
            if !packed.update_class(l, class) {
                return None;
            }
        }
        Some(packed)
    }

    /// True when `class` alone is exactly `scale × sign`: the per-row
    /// condition of [`PackedClassMatrix::try_from_classes`].
    pub(crate) fn row_packs(class: &Hypervector) -> bool {
        row_scale(class.as_slice()).is_some()
    }

    /// Re-packs class row `l` in place after a targeted mutation, in
    /// O(dim). Returns `false`, leaving the matrix untouched, when the
    /// new row is no longer `scale × sign` (so neither is the model).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range or `class` has the wrong
    /// dimensionality (the model guarantees both).
    pub(crate) fn update_class(&mut self, l: usize, class: &Hypervector) -> bool {
        assert_eq!(class.dim(), self.dim, "class dimension mismatch");
        let Some(scale) = row_scale(class.as_slice()) else {
            return false;
        };
        self.scales[l] = scale;
        pack_signs(
            class.as_slice(),
            &mut self.sign_rows[l * self.hv_words..(l + 1) * self.hv_words],
        );
        true
    }

    /// Heap footprint of this snapshot in bytes (sign rows and one
    /// scale per class) — the packed side of the per-model
    /// `memory_bytes` serving metric. Roughly 64× smaller than
    /// [`ClassMatrix::memory_bytes`].
    pub(crate) fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.sign_rows.as_slice())
            + std::mem::size_of_val(self.scales.as_slice())
    }

    /// Normalized scores of a bit-packed bipolar query against every
    /// class, written into `scores` (cleared first) — the popcount
    /// realization of Eq. (4). `norms` are the classes' ℓ2 norms (the
    /// plan's [`ClassMatrix::norms`]); zero-norm classes score
    /// [`f64::NEG_INFINITY`]. `query_words` must hold exactly
    /// `⌈dim/64⌉` words with zero tail bits (the [`BipolarHv`]
    /// invariants).
    pub(crate) fn scores_packed_into(
        &self,
        query_words: &[u64],
        norms: &[f64],
        scores: &mut Vec<f64>,
    ) {
        scores.clear();
        scores.reserve(self.scales.len());
        for (l, (&scale, &norm)) in self.scales.iter().zip(norms).enumerate() {
            if norm == 0.0 {
                scores.push(f64::NEG_INFINITY);
                continue;
            }
            let row = &self.sign_rows[l * self.hv_words..(l + 1) * self.hv_words];
            // The parenthesized integer is exact, so for scale 1 this
            // bit-matches the dense `±1` summation.
            let mismatches = xor_popcount(query_words, row) as i64;
            scores.push(scale * (self.dim as i64 - 2 * mismatches) as f64 / norm);
        }
    }
}

/// The one magnitude every value of a row shares (0 for an all-zero
/// row), or `None` when the row is not exactly `scale × sign`: mixed
/// magnitudes, zeros beside non-zeros, or a non-finite value.
fn row_scale(values: &[f64]) -> Option<f64> {
    let scale = values.first().map_or(0.0, |v| v.abs());
    (scale.is_finite() && values.iter().all(|v| v.abs() == scale)).then_some(scale)
}

/// Writes the sign bits of `values` (`value ≥ 0 ↔ 1`, zero tail bits)
/// into `words`, one word per 64 values.
fn pack_signs(values: &[f64], words: &mut [u64]) {
    for (word, block) in words.iter_mut().zip(values.chunks(WORD_BITS)) {
        *word = block
            .iter()
            .enumerate()
            .fold(0, |w, (b, &v)| w | u64::from(v >= 0.0) << b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisGenerator;
    use crate::hypervector::BipolarHv;

    /// Bit `k` of column `j` of a byte-plane set.
    fn plane_bit(t: &TransposedItemMemory, j: usize, k: usize) -> bool {
        t.bytes[t.offset(j, k / PLANE_FEATURES)] >> (k % PLANE_FEATURES) & 1 == 1
    }

    #[test]
    fn transposed_item_memory_matches_signs() {
        let im = BasisGenerator::new(3).item_memory(70, 130).unwrap();
        let t = TransposedItemMemory::from_item_memory(&im);
        assert_eq!(t.features(), 70);
        assert_eq!(t.dim(), 130);
        // 9 planes × 5 blocks of 32 columns; padding stays clear.
        assert_eq!(t.bytes.len(), 9 * 5 * PLANE_LANES);
        for j in 0..160 {
            for k in 0..72 {
                let expected = j < 130 && k < 70 && im.base(k).sign(j) > 0.0;
                assert_eq!(plane_bit(&t, j, k), expected, "dim {j} feature {k}");
            }
        }
        // A kept-column subset holds the same bits, renumbered in order.
        let keep = [0x8000_0000_0000_0005u64, 0x1, 0];
        let kept = t.kept_columns(&keep);
        assert_eq!(kept.dim(), 4);
        for (c, j) in [0, 2, 63, 64].into_iter().enumerate() {
            for k in 0..70 {
                assert_eq!(plane_bit(&kept, c, k), plane_bit(&t, j, k), "column {j}");
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
        let mut blocked = vec![vec![1.0]; 2];
        m.scores_packed_block_into(&[&[0], &[0]], &mut blocked);
        assert!(blocked.iter().all(Vec::is_empty));
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
        packed.scores_packed_into(query.words(), dense.norms(), &mut ps);
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
        let norms = ClassMatrix::from_classes(&classes).norms().to_vec();
        let query = BipolarHv::random(dim, 3);
        let mut scores = Vec::new();
        packed.scores_packed_into(query.words(), &norms, &mut scores);
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
        // Mixed magnitudes in a row are not sign×scale.
        let mixed = vec![Hypervector::from_vec(vec![1.0, -2.0, 1.0, 1.0])];
        assert!(PackedClassMatrix::try_from_classes(&mixed).is_none());
        // So is a block mixing zeros with non-zeros (masked dims).
        let masked = vec![Hypervector::from_vec(vec![1.0, 0.0, -1.0, 1.0])];
        assert!(PackedClassMatrix::try_from_classes(&masked).is_none());
        // And a row whose 64-dim blocks differ in scale: block 0 all ±3,
        // block 1 all ±0.5. One scale per row, so it stays dense.
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
        assert!(PackedClassMatrix::try_from_classes(&blocky).is_none());
    }

    #[test]
    fn empty_packed_matrix_degrades_gracefully() {
        let m = PackedClassMatrix::try_from_classes(&[]).expect("empty packs");
        assert_eq!(m.memory_bytes(), 0);
        let mut scores = vec![1.0];
        m.scores_packed_into(&[], &[], &mut scores);
        assert!(scores.is_empty());
    }

    #[test]
    fn packed_encode_matches_dense_sign() {
        let im = BasisGenerator::new(21).item_memory(23, 150).unwrap();
        let t = TransposedItemMemory::from_item_memory(&im);
        let levels = 12;
        for q in 0..5 {
            let input: Vec<f64> = (0..23)
                .map(|k| ((q * 23 + k) as f64 * 0.17).sin().abs())
                .collect();
            let packed = scalar_encode_packed(&t, &input, levels).expect("no NaN");
            let dense = scalar_encode_level_sliced(&t, &input, levels);
            for (j, &v) in dense.iter().enumerate() {
                let expected = if v >= 0.0 { 1.0 } else { -1.0 };
                assert_eq!(packed.sign(j), expected, "query {q}, dim {j}");
            }
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
        let kept = t.kept_columns(&keep);
        let input: Vec<f64> = (0..19).map(|k| (k as f64 * 0.29).sin().abs()).collect();
        let fused =
            scalar_encode_bipolar_masked(&kept, &input, levels, &keep, dim).expect("no NaN input");
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
        assert!(scalar_encode_bipolar_masked(&kept, &poisoned, levels, &keep, dim).is_none());
    }

    /// Dimensions around the quad, word and tile boundaries. Miri runs
    /// only the scalar arms, and slowly, so it gets a short list.
    fn parity_dims() -> &'static [usize] {
        if cfg!(miri) {
            &[1, 5, 65, 2_049]
        } else {
            &[1, 3, 4, 5, 63, 64, 65, 2_047, 2_048, 2_049, 10_000]
        }
    }

    /// Non-integer values spread over twelve binary orders of magnitude,
    /// so any change to a row's addition order changes its bits.
    fn spread_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ seed.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                (unit - 0.5) * f64::from(1u32 << (state % 12))
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// With AVX2 detected the row dispatchers run their AVX2 arm (called
    /// here without an `unsafe` site of its own); each of the `R`
    /// results must equal the scalar arm on that row alone.
    fn check_row_arms<const R: usize>(dim: usize) {
        let rows: Vec<Vec<f64>> = (0..R)
            .map(|r| spread_values(dim, (dim * 16 + r) as u64))
            .collect();
        let rows: [&[f64]; R] = std::array::from_fn(|r| rows[r].as_slice());
        let query = spread_values(dim, dim as u64 + 7);
        let words = BipolarHv::random(dim, dim as u64);
        let signed = dot_sign_dense_rows(words.words(), rows);
        let dense = dot_unrolled_rows(&query, rows);
        for r in 0..R {
            assert_eq!(
                signed[r].to_bits(),
                dot_sign_dense_scalar(words.words(), rows[r]).to_bits(),
                "sign-select row {r} of {R}, dim {dim}"
            );
            assert_eq!(
                dense[r].to_bits(),
                dot_unrolled_scalar(&query, rows[r]).to_bits(),
                "dense row {r} of {R}, dim {dim}"
            );
        }

        // One column tile of the blocked packed pass, over the quad
        // prefix, onto carried (non-zero) accumulators.
        let masks: Vec<[u64; 4]> = (0..dim / 4)
            .map(|i| {
                std::array::from_fn(|k| {
                    let c = 4 * i + k;
                    (!words.words()[c / WORD_BITS] >> (c % WORD_BITS) & 1) << 63
                })
            })
            .collect();
        let carried = spread_values(4 * R, dim as u64 + 11);
        let start: [[f64; 4]; R] =
            std::array::from_fn(|r| std::array::from_fn(|k| carried[4 * r + k]));
        let (mut dispatched, mut scalar) = (start, start);
        sign_tile_rows(&masks, rows, &mut dispatched);
        sign_tile_scalar(&masks, rows, &mut scalar);
        for r in 0..R {
            assert_eq!(
                bits(&dispatched[r]),
                bits(&scalar[r]),
                "sign tile row {r} of {R}, dim {dim}"
            );
        }
    }

    #[test]
    fn row_interleaved_arms_bit_match_the_scalar_arm_per_row() {
        if !avx2_dispatch() {
            eprintln!("no AVX2 arm on this host: the dispatchers run the scalar arm");
        }
        for &dim in parity_dims() {
            check_row_arms::<1>(dim);
            check_row_arms::<2>(dim);
            check_row_arms::<3>(dim);
            check_row_arms::<4>(dim);
        }
    }

    #[test]
    fn grouped_class_scores_bit_match_a_per_row_loop() {
        for &dim in parity_dims() {
            for num_classes in 1..=9 {
                let mut classes: Vec<Hypervector> = (0..num_classes)
                    .map(|c| Hypervector::from_vec(spread_values(dim, (c * 977 + dim) as u64)))
                    .collect();
                // One never-trained class (inside a full group when
                // there is one), unless it would be the only class.
                let zero = (num_classes > 1).then_some(num_classes / 2);
                if let Some(z) = zero {
                    classes[z] = Hypervector::from_vec(vec![0.0; dim]);
                }
                let m = ClassMatrix::from_classes(&classes);
                let norms = m.norms();
                let scaled = |l: usize, dot: f64| {
                    if zero == Some(l) {
                        f64::NEG_INFINITY
                    } else {
                        dot / norms[l]
                    }
                };

                // Packed query: the pre-change loop, one row at a time.
                let words = BipolarHv::random(dim, (dim + num_classes) as u64);
                let want: Vec<f64> = (0..num_classes)
                    .map(|l| scaled(l, dot_sign_dense_scalar(words.words(), m.class_row(l))))
                    .collect();
                let mut got = Vec::new();
                m.scores_packed_into(words.words(), &mut got);
                if let Some(z) = zero {
                    assert_eq!(got[z], f64::NEG_INFINITY);
                }
                assert_eq!(bits(&got), bits(&want), "packed, {num_classes} × {dim}");

                // Dense query: per row, one partial dot per tile in tile
                // order.
                let query = spread_values(dim, (31 + dim) as u64);
                let want: Vec<f64> = (0..num_classes)
                    .map(|l| {
                        let row = m.class_row(l);
                        let mut dot = 0.0;
                        for start in (0..dim).step_by(DIM_TILE) {
                            let end = (start + DIM_TILE).min(dim);
                            dot += dot_unrolled_scalar(&query[start..end], &row[start..end]);
                        }
                        scaled(l, dot)
                    })
                    .collect();
                let mut got = Vec::new();
                m.scores_into(&query, &mut got);
                if let Some(z) = zero {
                    assert_eq!(got[z], f64::NEG_INFINITY);
                }
                assert_eq!(bits(&got), bits(&want), "dense, {num_classes} × {dim}");
            }
        }
    }

    /// Query blocks, class counts and dims (around the quad, word and
    /// column-tile boundaries) of the blocked packed parity test. Miri
    /// runs only the scalar arm, and slowly, so it gets short lists.
    fn packed_block_shapes() -> (&'static [usize], &'static [usize], &'static [usize]) {
        const T: usize = SIGN_TILE;
        if cfg!(miri) {
            (&[1, 2, 5], &[1, 5], &[3, 65, T + 1])
        } else {
            (
                &[1, 2, 3, 5, 17, 33],
                &[1, 2, 3, 4, 5, 9],
                &[1, 3, 4, 63, 64, 65, T - 1, T, T + 1, 2 * T + 3, 10_000],
            )
        }
    }

    #[test]
    fn packed_block_scores_bit_match_the_one_query_pass() {
        let (blocks, class_counts, dims) = packed_block_shapes();
        let most = blocks.iter().copied().max().unwrap_or(1);
        for &dim in dims {
            let queries: Vec<BipolarHv> = (0..most)
                .map(|q| BipolarHv::random(dim, (q * 131 + dim) as u64))
                .collect();
            for &num_classes in class_counts {
                let mut classes: Vec<Hypervector> = (0..num_classes)
                    .map(|c| Hypervector::from_vec(spread_values(dim, (c * 613 + dim) as u64)))
                    .collect();
                // One never-trained class, unless it would be the only one.
                if num_classes > 1 {
                    classes[num_classes / 2] = Hypervector::from_vec(vec![0.0; dim]);
                }
                let m = ClassMatrix::from_classes(&classes);
                let want: Vec<Vec<f64>> = queries
                    .iter()
                    .map(|q| {
                        let mut scores = Vec::new();
                        m.scores_packed_into(q.words(), &mut scores);
                        scores
                    })
                    .collect();
                for &block in blocks {
                    let words: Vec<&[u64]> =
                        queries[..block].iter().map(BipolarHv::words).collect();
                    // Stale contents must not leak into the scores.
                    let mut out = vec![vec![7.0; 3]; block];
                    m.scores_packed_block_into(&words, &mut out);
                    for (q, (got, want)) in out.iter().zip(&want).enumerate() {
                        assert_eq!(
                            bits(got),
                            bits(want),
                            "block {block}, query {q}, {num_classes} × {dim}"
                        );
                    }
                }
            }
        }
    }

    /// A byte-plane set whose feature `k` is set at column `j` exactly
    /// when `bit(k, j)`.
    fn planes_with(
        features: usize,
        dim: usize,
        bit: impl Fn(usize, usize) -> bool,
    ) -> TransposedItemMemory {
        let mut t = TransposedItemMemory::zeroed(features, dim);
        for j in 0..dim {
            for k in (0..features).filter(|&k| bit(k, j)) {
                let at = t.offset(j, k / PLANE_FEATURES);
                t.bytes[at] |= 1 << (k % PLANE_FEATURES);
            }
        }
        t
    }

    /// Shapes around the nibble, plane, block and word boundaries, the
    /// ISOLET and MNIST feature counts (784 features at ℓ = 100 flush
    /// the AVX2 arm's u16 lanes once per block), and levels on either
    /// side of the AVX2 arm's bound. Miri gets a short list.
    fn weighted_count_shapes() -> (&'static [usize], &'static [usize], &'static [usize]) {
        if cfg!(miri) {
            (&[1, 5, 9, 65], &[1, 33], &[2, 100, 8_193])
        } else {
            (
                &[1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 617, 784],
                &[1, 31, 32, 33, 64, 65, 10_000],
                &[2, 3, 16, 100, 1_000, 8_192, 8_193],
            )
        }
    }

    #[test]
    fn weighted_count_arms_match_a_direct_sum() {
        if !avx2_dispatch() {
            eprintln!("no AVX2 arm on this host: the dispatcher runs the scalar arm");
        }
        let (features_list, dims, levels_list) = weighted_count_shapes();
        let hash = |k: usize, j: usize| {
            let mut x = (k as u64) << 32 ^ j as u64 ^ 0x9E37_79B9_7F4A_7C15;
            x ^= x >> 31;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^ x >> 29
        };
        let mut scratch = KernelScratch::default();
        for &features in features_list {
            for &dim in dims {
                // Column 0 is all ones: with every g_k at ℓ−1 it reaches
                // the largest count the shape allows.
                let t = planes_with(features, dim, |k, j| j == 0 || hash(k, j) & 1 == 1);
                for &levels in levels_list {
                    let steps = (levels - 1) as f64;
                    let top: Vec<f64> = vec![1.0; features];
                    let spread: Vec<f64> = (0..features)
                        .map(|k| (hash(k, dim + levels) % levels as u64) as f64 / steps)
                        .collect();
                    for input in [&top, &spread] {
                        let g: Vec<u64> = input.iter().map(|&x| quantize_index(x, steps)).collect();
                        let want: Vec<u32> = (0..dim)
                            .map(|j| {
                                let w: u64 = (0..features)
                                    .filter(|&k| plane_bit(&t, j, k))
                                    .map(|k| g[k])
                                    .sum();
                                w as u32
                            })
                            .collect();
                        let shape = format!("{features} features × {dim} columns, ℓ = {levels}");

                        let total = weighted_counts(&t, input, levels, &mut scratch);
                        assert_eq!(total, g.iter().sum::<u64>(), "{shape}");
                        assert_eq!(
                            &scratch.counts[..dim],
                            want.as_slice(),
                            "dispatched, {shape}"
                        );
                        assert!(scratch.counts[dim..].iter().all(|&w| w == 0), "{shape}");

                        let mut tables = Vec::new();
                        nibble_tables(input, levels, t.planes, &mut tables);
                        let mut counts = vec![u32::MAX; scratch.counts.len()];
                        weighted_counts_scalar(&t.bytes, t.planes, &tables, &mut counts);
                        assert_eq!(&counts[..dim], want.as_slice(), "scalar, {shape}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 48 }))]

        #[test]
        fn encode_plan_bit_matches_obfuscate_encode_at_every_mask_size(
            values in proptest::collection::vec(0.0f64..1.0, 1..80),
            dim in 1usize..300,
            levels in 2usize..9_000,
            seed in 0u64..1_000,
        ) {
            use crate::encoder::{Encoder, EncoderConfig, ScalarEncoder};
            use crate::obfuscate::{ObfuscateConfig, Obfuscator};
            use crate::plan::EncodePlan;
            use crate::quantize::QuantScheme;

            let enc = ScalarEncoder::new(
                EncoderConfig::new(values.len(), dim).with_levels(levels).with_seed(seed),
            ).unwrap();
            let encoded = enc.encode(&values).unwrap();
            for masked in [0, 1, dim / 2, dim - 1] {
                if masked >= dim {
                    continue;
                }
                let obfuscator = Obfuscator::new(
                    dim,
                    ObfuscateConfig::new(QuantScheme::Bipolar)
                        .with_masked_dims(masked)
                        .with_seed(seed ^ 0x5A),
                ).unwrap();
                let plan = EncodePlan::from_obfuscator(&enc, &obfuscator).unwrap();
                proptest::prop_assert_eq!(
                    plan.apply(&enc, &values).unwrap(),
                    obfuscator.obfuscate(&encoded).unwrap()
                );
            }
        }
    }

    #[test]
    fn encode_plan_refuses_an_encoder_it_was_not_compiled_for() {
        use crate::encoder::{EncoderConfig, ScalarEncoder};
        use crate::error::HdError;
        use crate::obfuscate::{ObfuscateConfig, Obfuscator};
        use crate::plan::EncodePlan;
        use crate::quantize::QuantScheme;

        let config = EncoderConfig::new(6, 200).with_levels(20).with_seed(1);
        let enc = ScalarEncoder::new(config.clone()).unwrap();
        let x = [0.5; 6];
        for (scheme, masked) in [
            (QuantScheme::Bipolar, 0),
            (QuantScheme::Bipolar, 50),
            (QuantScheme::Ternary, 50),
        ] {
            let obfuscate = ObfuscateConfig::new(scheme).with_masked_dims(masked);
            let plan = EncodePlan::compile(&enc, obfuscate).unwrap();
            assert!(plan.apply(&enc, &x).is_ok());
            // Same dimension, another basis, grid or feature count.
            for other in [
                config.clone().with_seed(2),
                config.clone().with_levels(21),
                EncoderConfig::new(7, 200).with_levels(20).with_seed(1),
            ] {
                let features = other.features;
                let stranger = ScalarEncoder::new(other).unwrap();
                assert_eq!(
                    plan.apply(&stranger, &vec![0.5; features]),
                    Err(HdError::EncoderMismatch),
                    "{scheme}, {masked} masked"
                );
            }
            // Another dimension keeps its own error.
            let wide = ScalarEncoder::new(EncoderConfig::new(6, 300).with_seed(1)).unwrap();
            assert_eq!(
                plan.apply(&wide, &x),
                Err(HdError::DimensionMismatch {
                    expected: 200,
                    actual: 300
                })
            );
            // So does an obfuscator sized for another dimension.
            let narrow = Obfuscator::new(100, obfuscate).unwrap();
            assert_eq!(
                EncodePlan::from_obfuscator(&enc, &narrow).unwrap_err(),
                HdError::DimensionMismatch {
                    expected: 200,
                    actual: 100
                }
            );
        }
    }
}
