//! 8×8 DCT and JPEG quantization.
//!
//! The paper's prototype deliberately uses a naive O(n⁴) DCT ("there are
//! versions of DCT that can significantly improve performance, such as
//! FastDCT [2]"); both the naive transform and the Arai–Agui–Nakajima
//! (AAN) fast scaled DCT it cites are implemented here, and an ablation
//! bench compares them. An inverse DCT supports round-trip testing.
//!
//! With the `simd` cargo feature (default) on x86_64 hosts with AVX, the
//! AAN transform and quantization run on explicit `core::arch` intrinsics:
//! the block is transposed into 8-lane f64 vectors so one vectorized AAN
//! butterfly pass processes all 8 rows (then all 8 columns) at once, and
//! quantization divides 4 coefficients per instruction. The vector path
//! performs the *same* IEEE-754 add/sub/mul/div sequence per lane as the
//! scalar code (no FMA contraction, rounding stays scalar), so its output
//! is bit-identical to the scalar oracle — asserted by unit tests here and
//! proptests in `tests/simd_exact.rs`.

use std::f64::consts::PI;

/// ITU T.81 Annex K luminance quantization table (natural order).
pub const QUANT_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// ITU T.81 Annex K chrominance quantization table (natural order).
pub const QUANT_CHROMA: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// Scale a base quantization table by IJG quality (1..=100).
pub fn scaled_quant_table(base: &[u16; 64], quality: u8) -> [u16; 64] {
    let q = quality.clamp(1, 100) as i32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut out = [0u16; 64];
    for (o, &b) in out.iter_mut().zip(base) {
        *o = ((b as i32 * scale + 50) / 100).clamp(1, 255) as u16;
    }
    out
}

/// Naive forward 8×8 DCT (the paper's prototype): direct evaluation of the
/// type-II DCT definition, O(64²) multiply-adds per block.
pub(crate) fn fdct_naive(block: &[u8; 64]) -> [f64; 64] {
    let mut shifted = [0.0f64; 64];
    for (s, &p) in shifted.iter_mut().zip(block) {
        *s = p as f64 - 128.0;
    }
    let mut out = [0.0f64; 64];
    for v in 0..8 {
        for u in 0..8 {
            let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            let cv = if v == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
            let mut sum = 0.0;
            for y in 0..8 {
                for x in 0..8 {
                    sum += shifted[y * 8 + x]
                        * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * PI / 16.0).cos();
                }
            }
            out[v * 8 + u] = 0.25 * cu * cv * sum;
        }
    }
    out
}

/// AAN scale factors: `s[u] * s[v]` must divide coefficient (u, v) of the
/// raw AAN output to obtain true DCT coefficients; we fold the factors
/// into the quantization step as JPEG encoders do.
fn aan_scale() -> [f64; 8] {
    let mut s = [0.0f64; 8];
    for (k, v) in s.iter_mut().enumerate() {
        *v = if k == 0 {
            1.0
        } else {
            (k as f64 * PI / 16.0).cos() * 2f64.sqrt()
        };
    }
    s
}

// Constants from Arai, Agui, Nakajima 1988 (shared by the scalar and
// vectorized butterflies so both perform identical multiplications).
const A1: f64 = std::f64::consts::FRAC_1_SQRT_2; // cos(pi/4)
const A2: f64 = 0.541_196_100_146_197; // cos(pi/8) - cos(3pi/8)
const A3: f64 = A1;
const A4: f64 = 1.306_562_964_876_377; // cos(pi/8) + cos(3pi/8)
const A5: f64 = 0.382_683_432_365_09; // cos(3pi/8)

/// 1-D AAN forward DCT (8 points, scaled output), operating in place.
#[inline]
fn aan_1d(d: &mut [f64; 8]) {
    let tmp0 = d[0] + d[7];
    let tmp7 = d[0] - d[7];
    let tmp1 = d[1] + d[6];
    let tmp6 = d[1] - d[6];
    let tmp2 = d[2] + d[5];
    let tmp5 = d[2] - d[5];
    let tmp3 = d[3] + d[4];
    let tmp4 = d[3] - d[4];

    // Even part.
    let tmp10 = tmp0 + tmp3;
    let tmp13 = tmp0 - tmp3;
    let tmp11 = tmp1 + tmp2;
    let tmp12 = tmp1 - tmp2;

    d[0] = tmp10 + tmp11;
    d[4] = tmp10 - tmp11;

    let z1 = (tmp12 + tmp13) * A1;
    d[2] = tmp13 + z1;
    d[6] = tmp13 - z1;

    // Odd part.
    let tmp10 = tmp4 + tmp5;
    let tmp11 = tmp5 + tmp6;
    let tmp12 = tmp6 + tmp7;

    let z5 = (tmp10 - tmp12) * A5;
    let z2 = A2 * tmp10 + z5;
    let z4 = A4 * tmp12 + z5;
    let z3 = tmp11 * A3;

    let z11 = tmp7 + z3;
    let z13 = tmp7 - z3;

    d[5] = z13 + z2;
    d[3] = z13 - z2;
    d[1] = z11 + z4;
    d[7] = z11 - z4;
}

/// AAN fast forward DCT — the scalar oracle the SIMD path is checked
/// against. Output equals `fdct_naive` after descaling, which
/// [`quantize_aan`] folds into quantization.
pub fn fdct_aan_scalar(block: &[u8; 64]) -> [f64; 64] {
    let mut data = [0.0f64; 64];
    for (s, &p) in data.iter_mut().zip(block) {
        *s = p as f64 - 128.0;
    }
    // Rows.
    for r in 0..8 {
        let mut row = [0.0f64; 8];
        row.copy_from_slice(&data[r * 8..r * 8 + 8]);
        aan_1d(&mut row);
        data[r * 8..r * 8 + 8].copy_from_slice(&row);
    }
    // Columns.
    for c in 0..8 {
        let mut col = [0.0f64; 8];
        for r in 0..8 {
            col[r] = data[r * 8 + c];
        }
        aan_1d(&mut col);
        for r in 0..8 {
            data[r * 8 + c] = col[r];
        }
    }
    data
}

/// AAN fast forward DCT: the vectorized path when available (bit-identical
/// per lane), the scalar oracle otherwise.
pub fn fdct_aan(block: &[u8; 64]) -> [f64; 64] {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx_available() {
        // SAFETY: AVX support was just detected.
        return unsafe { simd::fdct_aan_avx(block) };
    }
    fdct_aan_scalar(block)
}

/// Quantize true (unscaled) DCT coefficients.
pub(crate) fn quantize(coeffs: &[f64; 64], table: &[u16; 64]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for i in 0..64 {
        out[i] = (coeffs[i] / table[i] as f64).round() as i16;
    }
    out
}

/// Quantize raw AAN output, folding the AAN scale factors into the
/// divisor (`table[v*8+u] * s[u] * s[v] * 8`) — the scalar oracle.
pub fn quantize_aan(coeffs: &[f64; 64], table: &[u16; 64]) -> [i16; 64] {
    let s = aan_scale();
    let mut out = [0i16; 64];
    for v in 0..8 {
        for u in 0..8 {
            let i = v * 8 + u;
            let divisor = table[i] as f64 * s[u] * s[v] * 8.0;
            out[i] = (coeffs[i] / divisor).round() as i16;
        }
    }
    out
}

/// Precompute the AAN-folded quantization divisors for a table, so
/// multi-block batches pay the `aan_scale` products once. The expression
/// matches [`quantize_aan`] exactly (same operation order), keeping the
/// precomputed path bit-identical.
pub fn aan_divisors(table: &[u16; 64]) -> [f64; 64] {
    let s = aan_scale();
    let mut div = [0.0f64; 64];
    for v in 0..8 {
        for u in 0..8 {
            let i = v * 8 + u;
            div[i] = table[i] as f64 * s[u] * s[v] * 8.0;
        }
    }
    div
}

/// Quantize raw AAN output against precomputed [`aan_divisors`]. The
/// division vectorizes (IEEE division is lane-exact); rounding stays
/// scalar because `_mm256_round_pd` rounds half-to-even while
/// `f64::round` rounds half-away-from-zero.
pub fn quantize_aan_div(coeffs: &[f64; 64], divisors: &[f64; 64]) -> [i16; 64] {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx_available() {
        // SAFETY: AVX support was just detected.
        return unsafe { simd::quantize_aan_div_avx(coeffs, divisors) };
    }
    let mut out = [0i16; 64];
    for i in 0..64 {
        out[i] = (coeffs[i] / divisors[i]).round() as i16;
    }
    out
}

/// Forward DCT + quantization with the naive transform (the paper's
/// configuration).
pub fn dct_quantize_naive(block: &[u8; 64], table: &[u16; 64]) -> [i16; 64] {
    quantize(&fdct_naive(block), table)
}

/// Forward DCT + quantization with the AAN transform (vectorized when
/// available, bit-identical to [`dct_quantize_aan_scalar`]).
pub fn dct_quantize_aan(block: &[u8; 64], table: &[u16; 64]) -> [i16; 64] {
    quantize_aan_div(&fdct_aan(block), &aan_divisors(table))
}

/// Forward DCT + quantization on the pure scalar path — the bit-exactness
/// oracle for [`dct_quantize_aan`].
pub fn dct_quantize_aan_scalar(block: &[u8; 64], table: &[u16; 64]) -> [i16; 64] {
    quantize_aan(&fdct_aan_scalar(block), table)
}

/// Forward DCT + quantization with precomputed divisors — the form the
/// MJPEG DCT kernel body uses, with divisors derived once per body rather
/// than once per block.
pub fn dct_quantize_aan_div(block: &[u8; 64], divisors: &[f64; 64]) -> [i16; 64] {
    quantize_aan_div(&fdct_aan(block), divisors)
}

/// Inverse 8×8 DCT (naive), for round-trip tests.
pub fn idct_naive(coeffs: &[f64; 64]) -> [u8; 64] {
    let mut out = [0u8; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut sum = 0.0;
            for v in 0..8 {
                for u in 0..8 {
                    let cu = if u == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
                    let cv = if v == 0 { 1.0 / 2f64.sqrt() } else { 1.0 };
                    sum += cu
                        * cv
                        * coeffs[v * 8 + u]
                        * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos()
                        * ((2 * y + 1) as f64 * v as f64 * PI / 16.0).cos();
                }
            }
            out[y * 8 + x] = (0.25 * sum + 128.0).round().clamp(0.0, 255.0) as u8;
        }
    }
    out
}

/// Dequantize back to coefficient space.
pub fn dequantize(q: &[i16; 64], table: &[u16; 64]) -> [f64; 64] {
    let mut out = [0.0f64; 64];
    for i in 0..64 {
        out[i] = q[i] as f64 * table[i] as f64;
    }
    out
}

/// Explicit-SIMD AAN DCT + quantization (x86_64 AVX, stable `core::arch`).
///
/// The transform keeps bit-exactness with the scalar oracle by
/// construction: the block is transposed so each [`V8`] vector holds one
/// butterfly index across all 8 rows (then all 8 columns), and
/// [`aan_vec`] performs exactly the add/sub/mul sequence of [`aan_1d`]
/// per lane. AVX `add/sub/mul/div_pd` are IEEE-754 operations identical
/// to their scalar counterparts, and no FMA contraction is used, so every
/// lane computes the same bits the scalar code would.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use core::arch::x86_64::*;

    use super::{A1, A2, A3, A4, A5};

    /// Runtime AVX detection (cached by std behind an atomic).
    #[inline]
    pub(crate) fn avx_available() -> bool {
        std::arch::is_x86_feature_detected!("avx")
    }

    /// Eight f64 lanes as a pair of 256-bit registers (lanes 0–3, 4–7).
    #[derive(Copy, Clone)]
    struct V8(__m256d, __m256d);

    #[target_feature(enable = "avx")]
    fn vadd(a: V8, b: V8) -> V8 {
        V8(_mm256_add_pd(a.0, b.0), _mm256_add_pd(a.1, b.1))
    }

    #[target_feature(enable = "avx")]
    fn vsub(a: V8, b: V8) -> V8 {
        V8(_mm256_sub_pd(a.0, b.0), _mm256_sub_pd(a.1, b.1))
    }

    #[target_feature(enable = "avx")]
    fn vmul_s(a: V8, s: f64) -> V8 {
        let k = _mm256_set1_pd(s);
        V8(_mm256_mul_pd(a.0, k), _mm256_mul_pd(a.1, k))
    }

    /// The AAN butterfly of [`super::aan_1d`], one lane per row/column.
    #[target_feature(enable = "avx")]
    fn aan_vec(d: &mut [V8; 8]) {
        let tmp0 = vadd(d[0], d[7]);
        let tmp7 = vsub(d[0], d[7]);
        let tmp1 = vadd(d[1], d[6]);
        let tmp6 = vsub(d[1], d[6]);
        let tmp2 = vadd(d[2], d[5]);
        let tmp5 = vsub(d[2], d[5]);
        let tmp3 = vadd(d[3], d[4]);
        let tmp4 = vsub(d[3], d[4]);

        // Even part.
        let tmp10 = vadd(tmp0, tmp3);
        let tmp13 = vsub(tmp0, tmp3);
        let tmp11 = vadd(tmp1, tmp2);
        let tmp12 = vsub(tmp1, tmp2);

        d[0] = vadd(tmp10, tmp11);
        d[4] = vsub(tmp10, tmp11);

        let z1 = vmul_s(vadd(tmp12, tmp13), A1);
        d[2] = vadd(tmp13, z1);
        d[6] = vsub(tmp13, z1);

        // Odd part.
        let tmp10 = vadd(tmp4, tmp5);
        let tmp11 = vadd(tmp5, tmp6);
        let tmp12 = vadd(tmp6, tmp7);

        let z5 = vmul_s(vsub(tmp10, tmp12), A5);
        let z2 = vadd(vmul_s(tmp10, A2), z5);
        let z4 = vadd(vmul_s(tmp12, A4), z5);
        let z3 = vmul_s(tmp11, A3);

        let z11 = vadd(tmp7, z3);
        let z13 = vsub(tmp7, z3);

        d[5] = vadd(z13, z2);
        d[3] = vsub(z13, z2);
        d[1] = vadd(z11, z4);
        d[7] = vsub(z11, z4);
    }

    /// Transpose four 4×4 f64 rows.
    #[target_feature(enable = "avx")]
    fn transpose4(
        a: __m256d,
        b: __m256d,
        c: __m256d,
        d: __m256d,
    ) -> (__m256d, __m256d, __m256d, __m256d) {
        let t0 = _mm256_shuffle_pd(a, b, 0x0); // a0 b0 a2 b2
        let t1 = _mm256_shuffle_pd(a, b, 0xF); // a1 b1 a3 b3
        let t2 = _mm256_shuffle_pd(c, d, 0x0);
        let t3 = _mm256_shuffle_pd(c, d, 0xF);
        (
            _mm256_permute2f128_pd(t0, t2, 0x20), // a0 b0 c0 d0
            _mm256_permute2f128_pd(t1, t3, 0x20),
            _mm256_permute2f128_pd(t0, t2, 0x31), // a2 b2 c2 d2
            _mm256_permute2f128_pd(t1, t3, 0x31),
        )
    }

    /// Full 8×8 transpose: 2×2 arrangement of 4×4 tiles, each transposed
    /// in place with the off-diagonal tiles swapped.
    #[target_feature(enable = "avx")]
    fn transpose8(m: &mut [V8; 8]) {
        let (a0, a1, a2, a3) = transpose4(m[0].0, m[1].0, m[2].0, m[3].0);
        let (b0, b1, b2, b3) = transpose4(m[0].1, m[1].1, m[2].1, m[3].1);
        let (c0, c1, c2, c3) = transpose4(m[4].0, m[5].0, m[6].0, m[7].0);
        let (d0, d1, d2, d3) = transpose4(m[4].1, m[5].1, m[6].1, m[7].1);
        m[0] = V8(a0, c0);
        m[1] = V8(a1, c1);
        m[2] = V8(a2, c2);
        m[3] = V8(a3, c3);
        m[4] = V8(b0, d0);
        m[5] = V8(b1, d1);
        m[6] = V8(b2, d2);
        m[7] = V8(b3, d3);
    }

    /// Vectorized AAN forward DCT, bit-identical to
    /// [`super::fdct_aan_scalar`].
    ///
    /// # Safety
    /// The caller must have verified AVX support ([`avx_available`]).
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn fdct_aan_avx(block: &[u8; 64]) -> [f64; 64] {
        let mut data = [0.0f64; 64];
        for (s, &p) in data.iter_mut().zip(block) {
            *s = p as f64 - 128.0;
        }
        let mut m = [V8(_mm256_setzero_pd(), _mm256_setzero_pd()); 8];
        for (r, v) in m.iter_mut().enumerate() {
            *v = V8(
                _mm256_loadu_pd(data.as_ptr().add(r * 8)),
                _mm256_loadu_pd(data.as_ptr().add(r * 8 + 4)),
            );
        }
        // Row pass: lanes = rows, butterfly index = column.
        transpose8(&mut m);
        aan_vec(&mut m);
        // Column pass: lanes = columns, butterfly index = row.
        transpose8(&mut m);
        aan_vec(&mut m);
        let mut out = [0.0f64; 64];
        for (r, v) in m.iter().enumerate() {
            _mm256_storeu_pd(out.as_mut_ptr().add(r * 8), v.0);
            _mm256_storeu_pd(out.as_mut_ptr().add(r * 8 + 4), v.1);
        }
        out
    }

    /// Vectorized quantization against precomputed divisors: IEEE-exact
    /// vector division, scalar half-away-from-zero rounding.
    ///
    /// # Safety
    /// The caller must have verified AVX support ([`avx_available`]).
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn quantize_aan_div_avx(coeffs: &[f64; 64], divisors: &[f64; 64]) -> [i16; 64] {
        let mut q = [0.0f64; 64];
        for i in (0..64).step_by(4) {
            let c = _mm256_loadu_pd(coeffs.as_ptr().add(i));
            let d = _mm256_loadu_pd(divisors.as_ptr().add(i));
            _mm256_storeu_pd(q.as_mut_ptr().add(i), _mm256_div_pd(c, d));
        }
        let mut out = [0i16; 64];
        for i in 0..64 {
            out[i] = q[i].round() as i16;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_block(seed: u8) -> [u8; 64] {
        let mut b = [0u8; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = seed
                .wrapping_mul(31)
                .wrapping_add((i as u8).wrapping_mul(7))
                .wrapping_add((i as u8 / 8) * 13);
        }
        b
    }

    #[test]
    fn flat_block_is_dc_only() {
        let block = [200u8; 64];
        let c = fdct_naive(&block);
        // DC = 8 * (200 - 128) = 576.
        assert!((c[0] - 576.0).abs() < 1e-9);
        for (i, &v) in c.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-9, "AC coefficient {i} = {v}");
        }
    }

    #[test]
    fn aan_matches_naive_after_descale() {
        let s = aan_scale();
        for seed in [0u8, 3, 91, 255] {
            let block = test_block(seed);
            let naive = fdct_naive(&block);
            let aan = fdct_aan(&block);
            for v in 0..8 {
                for u in 0..8 {
                    let i = v * 8 + u;
                    let descaled = aan[i] / (s[u] * s[v] * 8.0);
                    assert!(
                        (descaled - naive[i]).abs() < 1e-6,
                        "coeff ({u},{v}): aan {descaled} vs naive {}",
                        naive[i]
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_paths_agree_within_rounding() {
        // The two transforms compute identical coefficients up to float
        // rounding; a coefficient landing exactly on a .5 quantization
        // boundary may round differently (as in real encoders' fast
        // paths). Allow a ±1 step on such coefficients, nothing more.
        for seed in [1u8, 42, 200] {
            let block = test_block(seed);
            let a = dct_quantize_naive(&block, &QUANT_LUMA);
            let b = dct_quantize_aan(&block, &QUANT_LUMA);
            let mut boundary_diffs = 0;
            for i in 0..64 {
                let d = (a[i] - b[i]).abs();
                assert!(d <= 1, "seed {seed} coeff {i}: {} vs {}", a[i], b[i]);
                boundary_diffs += d as usize;
            }
            assert!(boundary_diffs <= 2, "seed {seed}: too many rounding diffs");
        }
    }

    #[test]
    fn round_trip_reconstruction_close() {
        let block = test_block(7);
        // Quality 100: quantization is nearly lossless.
        let table = scaled_quant_table(&QUANT_LUMA, 100);
        let q = dct_quantize_naive(&block, &table);
        let back = idct_naive(&dequantize(&q, &table));
        for i in 0..64 {
            let err = (block[i] as i32 - back[i] as i32).abs();
            assert!(
                err <= 3,
                "pixel {i}: {} vs {} (err {err})",
                block[i],
                back[i]
            );
        }
    }

    #[test]
    fn quality_scaling_monotone() {
        let q10 = scaled_quant_table(&QUANT_LUMA, 10);
        let q50 = scaled_quant_table(&QUANT_LUMA, 50);
        let q90 = scaled_quant_table(&QUANT_LUMA, 90);
        assert_eq!(q50, QUANT_LUMA); // quality 50 = base table
        for i in 0..64 {
            assert!(q10[i] >= q50[i]);
            assert!(q90[i] <= q50[i]);
            assert!(q90[i] >= 1);
        }
    }

    #[test]
    fn simd_fdct_bit_identical_to_scalar_oracle() {
        // On hosts without AVX (or with the feature off) fdct_aan *is*
        // the scalar path and the assertion is trivially true.
        for seed in 0u8..=255 {
            let block = test_block(seed);
            let simd = fdct_aan(&block);
            let scalar = fdct_aan_scalar(&block);
            for i in 0..64 {
                assert_eq!(
                    simd[i].to_bits(),
                    scalar[i].to_bits(),
                    "seed {seed} coeff {i}: {} vs {}",
                    simd[i],
                    scalar[i]
                );
            }
        }
    }

    #[test]
    fn simd_quantize_bit_identical_to_scalar_oracle() {
        for seed in [0u8, 1, 42, 128, 200, 255] {
            for quality in [5u8, 50, 75, 95] {
                let block = test_block(seed);
                let table = scaled_quant_table(&QUANT_LUMA, quality);
                assert_eq!(
                    dct_quantize_aan(&block, &table),
                    dct_quantize_aan_scalar(&block, &table),
                    "seed {seed} quality {quality}"
                );
            }
        }
    }

    #[test]
    fn coarser_quantization_zeroes_more() {
        let block = test_block(9);
        let fine = dct_quantize_naive(&block, &scaled_quant_table(&QUANT_LUMA, 95));
        let coarse = dct_quantize_naive(&block, &scaled_quant_table(&QUANT_LUMA, 5));
        let nz = |q: &[i16; 64]| q.iter().filter(|&&v| v != 0).count();
        assert!(nz(&coarse) <= nz(&fine));
    }
}
