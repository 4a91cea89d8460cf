//! Planar YUV 4:2:0 frames, 8×8 macro-block extraction, and RGB↔YUV
//! colour conversion.
//!
//! The conversions use BT.601 full-range fixed-point arithmetic (16-bit
//! fractional scale) so the AVX2 integer path — enabled by the `simd`
//! cargo feature on x86_64 hosts, with runtime detection — is trivially
//! bit-identical to the scalar oracle: both perform the same i32
//! multiply/add/arithmetic-shift/clamp sequence per pixel.

/// A planar YUV 4:2:0 frame: full-resolution luma, chroma subsampled by 2
/// in both dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct YuvFrame {
    pub width: usize,
    pub height: usize,
    pub y: Vec<u8>,
    pub u: Vec<u8>,
    pub v: Vec<u8>,
}

impl YuvFrame {
    /// A black frame. Dimensions must be multiples of 16 (whole MCUs),
    /// which holds for all standard video sizes (CIF is 352×288).
    pub fn new(width: usize, height: usize) -> YuvFrame {
        assert!(
            width.is_multiple_of(16) && height.is_multiple_of(16),
            "frame dimensions must be multiples of 16"
        );
        YuvFrame {
            width,
            height,
            y: vec![0; width * height],
            u: vec![128; width * height / 4],
            v: vec![128; width * height / 4],
        }
    }

    /// Parse one frame of planar I420 data (the layout of `.yuv` test
    /// sequences like Foreman). Returns `None` when `data` is too short.
    pub fn from_i420(width: usize, height: usize, data: &[u8]) -> Option<YuvFrame> {
        let ysz = width * height;
        let csz = ysz / 4;
        if data.len() < ysz + 2 * csz {
            return None;
        }
        Some(YuvFrame {
            width,
            height,
            y: data[..ysz].to_vec(),
            u: data[ysz..ysz + csz].to_vec(),
            v: data[ysz + csz..ysz + 2 * csz].to_vec(),
        })
    }

    /// Size of one I420 frame in bytes.
    pub fn i420_size(width: usize, height: usize) -> usize {
        width * height * 3 / 2
    }

    /// Number of 8×8 luma blocks (1584 for CIF — the paper's `yDCT`
    /// instance count per frame).
    pub fn luma_blocks(&self) -> usize {
        (self.width / 8) * (self.height / 8)
    }

    /// Number of 8×8 chroma blocks per component (396 for CIF).
    pub fn chroma_blocks(&self) -> usize {
        (self.width / 16) * (self.height / 16)
    }

    /// Extract luma block `i` (row-major block order) as 64 samples.
    pub fn luma_block(&self, i: usize) -> [u8; 64] {
        extract_block(&self.y, self.width, i)
    }

    /// All luma blocks flattened into one buffer (block-major, 64 samples
    /// per block) — the layout of the `y_input` field.
    pub fn luma_plane_blocks(&self) -> Vec<u8> {
        plane_blocks(&self.y, self.width, self.height)
    }

    /// All U blocks flattened.
    pub(crate) fn u_plane_blocks(&self) -> Vec<u8> {
        plane_blocks(&self.u, self.width / 2, self.height / 2)
    }

    /// All V blocks flattened.
    pub(crate) fn v_plane_blocks(&self) -> Vec<u8> {
        plane_blocks(&self.v, self.width / 2, self.height / 2)
    }
}

// BT.601 full-range coefficients at 16-bit fixed point. The forward luma
// row sums to exactly 65536 and each chroma row to ±32768, so no clamp is
// ever *required* for Y; it is applied uniformly anyway so the scalar and
// vector paths share one arithmetic contract.
const Y_R: i32 = 19595; // 0.299
const Y_G: i32 = 38470; // 0.587
const Y_B: i32 = 7471; // 0.114
const CB_R: i32 = -11059; // -0.168736
const CB_G: i32 = -21709; // -0.331264
const CB_B: i32 = 32768; // 0.5
const CR_R: i32 = 32768; // 0.5
const CR_G: i32 = -27439; // -0.418688
const CR_B: i32 = -5329; // -0.081312
const R_CR: i32 = 91881; // 1.402
const G_CB: i32 = -22554; // -0.344136
const G_CR: i32 = -46802; // -0.714136
const B_CB: i32 = 116130; // 1.772
const ROUND: i32 = 32768;

/// Convert full-resolution RGB planes to full-resolution Y/Cb/Cr planes —
/// the scalar per-pixel kernel (and oracle for the AVX2 kernel).
fn rgb_planes_to_ycbcr_scalar(
    r: &[u8],
    g: &[u8],
    b: &[u8],
    y: &mut [u8],
    cb: &mut [u8],
    cr: &mut [u8],
) {
    for i in 0..r.len() {
        let (ri, gi, bi) = (r[i] as i32, g[i] as i32, b[i] as i32);
        y[i] = ((Y_R * ri + Y_G * gi + Y_B * bi + ROUND) >> 16).clamp(0, 255) as u8;
        cb[i] = (((CB_R * ri + CB_G * gi + CB_B * bi + ROUND) >> 16) + 128).clamp(0, 255) as u8;
        cr[i] = (((CR_R * ri + CR_G * gi + CR_B * bi + ROUND) >> 16) + 128).clamp(0, 255) as u8;
    }
}

/// Convert full-resolution Y/Cb/Cr planes back to RGB planes (scalar
/// kernel and oracle).
fn ycbcr_planes_to_rgb_scalar(
    y: &[u8],
    cb: &[u8],
    cr: &[u8],
    r: &mut [u8],
    g: &mut [u8],
    b: &mut [u8],
) {
    for i in 0..y.len() {
        let yi = y[i] as i32;
        let u = cb[i] as i32 - 128;
        let v = cr[i] as i32 - 128;
        r[i] = (yi + ((R_CR * v + ROUND) >> 16)).clamp(0, 255) as u8;
        g[i] = (yi + ((G_CB * u + G_CR * v + ROUND) >> 16)).clamp(0, 255) as u8;
        b[i] = (yi + ((B_CB * u + ROUND) >> 16)).clamp(0, 255) as u8;
    }
}

/// Explicit-SIMD pixel kernels (x86_64 AVX2): 8 pixels per iteration of
/// the same i32 fixed-point sequence as the scalar oracles, so outputs
/// are bit-identical (`_mm256_srai_epi32` is Rust's arithmetic `>>`).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use core::arch::x86_64::*;

    use super::*;

    /// Runtime AVX2 detection (cached by std).
    #[inline]
    pub(crate) fn avx2_available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Load 8 bytes as 8 i32 lanes.
    ///
    /// # Safety
    /// `p` must point at 8 readable bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn load8(p: *const u8) -> __m256i {
        // SAFETY: caller guarantees 8 readable bytes at `p`.
        unsafe { _mm256_cvtepu8_epi32(_mm_loadl_epi64(p as *const __m128i)) }
    }

    /// `(a*ka + b*kb + c*kc + ROUND) >> 16`, then `+ offset`, clamped to
    /// 0..=255 — one output plane's worth of the fixed-point kernel.
    #[target_feature(enable = "avx2")]
    fn mac3(a: __m256i, ka: i32, b: __m256i, kb: i32, c: __m256i, kc: i32, offset: i32) -> __m256i {
        let mut acc = _mm256_set1_epi32(ROUND);
        acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(a, _mm256_set1_epi32(ka)));
        acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(b, _mm256_set1_epi32(kb)));
        acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(c, _mm256_set1_epi32(kc)));
        acc = _mm256_add_epi32(_mm256_srai_epi32(acc, 16), _mm256_set1_epi32(offset));
        _mm256_max_epi32(
            _mm256_min_epi32(acc, _mm256_set1_epi32(255)),
            _mm256_setzero_si256(),
        )
    }

    /// Store 8 clamped i32 lanes as bytes.
    #[target_feature(enable = "avx2")]
    fn store8(v: __m256i, out: &mut [u8]) {
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` is exactly 32 writable bytes.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v) };
        for (o, l) in out.iter_mut().zip(lanes) {
            *o = l as u8;
        }
    }

    /// # Safety
    /// The caller must have verified AVX2 support ([`avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn rgb_planes_to_ycbcr_avx2(
        r: &[u8],
        g: &[u8],
        b: &[u8],
        y: &mut [u8],
        cb: &mut [u8],
        cr: &mut [u8],
    ) {
        let n = r.len();
        let mut i = 0;
        while i + 8 <= n {
            let rv = load8(r.as_ptr().add(i));
            let gv = load8(g.as_ptr().add(i));
            let bv = load8(b.as_ptr().add(i));
            store8(mac3(rv, Y_R, gv, Y_G, bv, Y_B, 0), &mut y[i..i + 8]);
            store8(mac3(rv, CB_R, gv, CB_G, bv, CB_B, 128), &mut cb[i..i + 8]);
            store8(mac3(rv, CR_R, gv, CR_G, bv, CR_B, 128), &mut cr[i..i + 8]);
            i += 8;
        }
        rgb_planes_to_ycbcr_scalar(
            &r[i..],
            &g[i..],
            &b[i..],
            &mut y[i..],
            &mut cb[i..],
            &mut cr[i..],
        );
    }

    /// # Safety
    /// The caller must have verified AVX2 support ([`avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn ycbcr_planes_to_rgb_avx2(
        y: &[u8],
        cb: &[u8],
        cr: &[u8],
        r: &mut [u8],
        g: &mut [u8],
        b: &mut [u8],
    ) {
        let n = y.len();
        let off = _mm256_set1_epi32(-128);
        let mut i = 0;
        while i + 8 <= n {
            let yv = load8(y.as_ptr().add(i));
            let u = _mm256_add_epi32(load8(cb.as_ptr().add(i)), off);
            let v = _mm256_add_epi32(load8(cr.as_ptr().add(i)), off);
            let term = |ku: i32, kv: i32| {
                let mut acc = _mm256_set1_epi32(ROUND);
                acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(u, _mm256_set1_epi32(ku)));
                acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(v, _mm256_set1_epi32(kv)));
                _mm256_srai_epi32(acc, 16)
            };
            let clamp = |x: __m256i| {
                _mm256_max_epi32(
                    _mm256_min_epi32(x, _mm256_set1_epi32(255)),
                    _mm256_setzero_si256(),
                )
            };
            store8(clamp(_mm256_add_epi32(yv, term(0, R_CR))), &mut r[i..i + 8]);
            store8(
                clamp(_mm256_add_epi32(yv, term(G_CB, G_CR))),
                &mut g[i..i + 8],
            );
            store8(clamp(_mm256_add_epi32(yv, term(B_CB, 0))), &mut b[i..i + 8]);
            i += 8;
        }
        ycbcr_planes_to_rgb_scalar(
            &y[i..],
            &cb[i..],
            &cr[i..],
            &mut r[i..],
            &mut g[i..],
            &mut b[i..],
        );
    }
}

fn rgb_planes_to_ycbcr(r: &[u8], g: &[u8], b: &[u8], y: &mut [u8], cb: &mut [u8], cr: &mut [u8]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx2_available() {
        // SAFETY: AVX2 support was just detected.
        unsafe { simd::rgb_planes_to_ycbcr_avx2(r, g, b, y, cb, cr) };
        return;
    }
    rgb_planes_to_ycbcr_scalar(r, g, b, y, cb, cr);
}

fn ycbcr_planes_to_rgb(y: &[u8], cb: &[u8], cr: &[u8], r: &mut [u8], g: &mut [u8], b: &mut [u8]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd::avx2_available() {
        // SAFETY: AVX2 support was just detected.
        unsafe { simd::ycbcr_planes_to_rgb_avx2(y, cb, cr, r, g, b) };
        return;
    }
    ycbcr_planes_to_rgb_scalar(y, cb, cr, r, g, b);
}

/// A planar three-in/three-out conversion kernel (RGB→YCbCr or back).
type PlaneKernel = fn(&[u8], &[u8], &[u8], &mut [u8], &mut [u8], &mut [u8]);

fn rgb_to_yuv_with(rgb: &[u8], width: usize, height: usize, kernel: PlaneKernel) -> YuvFrame {
    assert_eq!(rgb.len(), width * height * 3, "interleaved RGB24 expected");
    let n = width * height;
    let mut r = vec![0u8; n];
    let mut g = vec![0u8; n];
    let mut b = vec![0u8; n];
    for i in 0..n {
        r[i] = rgb[i * 3];
        g[i] = rgb[i * 3 + 1];
        b[i] = rgb[i * 3 + 2];
    }
    let mut frame = YuvFrame::new(width, height);
    let mut cb = vec![0u8; n];
    let mut cr = vec![0u8; n];
    let mut y = std::mem::take(&mut frame.y);
    kernel(&r, &g, &b, &mut y, &mut cb, &mut cr);
    frame.y = y;
    // 4:2:0 subsample: each chroma sample is the rounded mean of its 2×2
    // full-resolution neighbourhood (identical on both paths).
    let cw = width / 2;
    for cy in 0..height / 2 {
        for cx in 0..cw {
            let i00 = (2 * cy) * width + 2 * cx;
            let i10 = i00 + width;
            let avg = |p: &[u8]| {
                ((p[i00] as u32 + p[i00 + 1] as u32 + p[i10] as u32 + p[i10 + 1] as u32 + 2) >> 2)
                    as u8
            };
            frame.u[cy * cw + cx] = avg(&cb);
            frame.v[cy * cw + cx] = avg(&cr);
        }
    }
    frame
}

/// Convert interleaved RGB24 to a planar YUV 4:2:0 frame (BT.601 full
/// range, 2×2 chroma averaging). Takes the AVX2 path when available;
/// output is bit-identical to [`rgb_to_yuv_scalar`] either way.
pub fn rgb_to_yuv(rgb: &[u8], width: usize, height: usize) -> YuvFrame {
    rgb_to_yuv_with(rgb, width, height, rgb_planes_to_ycbcr)
}

/// The pure-scalar oracle for [`rgb_to_yuv`].
pub fn rgb_to_yuv_scalar(rgb: &[u8], width: usize, height: usize) -> YuvFrame {
    rgb_to_yuv_with(rgb, width, height, rgb_planes_to_ycbcr_scalar)
}

fn yuv_to_rgb_with(frame: &YuvFrame, kernel: PlaneKernel) -> Vec<u8> {
    let (w, h) = (frame.width, frame.height);
    let n = w * h;
    // Nearest-neighbour chroma upsample to full resolution.
    let cw = w / 2;
    let mut cb = vec![0u8; n];
    let mut cr = vec![0u8; n];
    for py in 0..h {
        let crow = (py / 2) * cw;
        for px in 0..w {
            cb[py * w + px] = frame.u[crow + px / 2];
            cr[py * w + px] = frame.v[crow + px / 2];
        }
    }
    let mut r = vec![0u8; n];
    let mut g = vec![0u8; n];
    let mut b = vec![0u8; n];
    kernel(&frame.y, &cb, &cr, &mut r, &mut g, &mut b);
    let mut rgb = vec![0u8; n * 3];
    for i in 0..n {
        rgb[i * 3] = r[i];
        rgb[i * 3 + 1] = g[i];
        rgb[i * 3 + 2] = b[i];
    }
    rgb
}

/// Convert a planar YUV 4:2:0 frame to interleaved RGB24 (nearest-
/// neighbour chroma upsample). AVX2 when available, bit-identical to
/// [`yuv_to_rgb_scalar`].
pub fn yuv_to_rgb(frame: &YuvFrame) -> Vec<u8> {
    yuv_to_rgb_with(frame, ycbcr_planes_to_rgb)
}

/// The pure-scalar oracle for [`yuv_to_rgb`].
pub fn yuv_to_rgb_scalar(frame: &YuvFrame) -> Vec<u8> {
    yuv_to_rgb_with(frame, ycbcr_planes_to_rgb_scalar)
}

fn extract_block(plane: &[u8], stride: usize, block: usize) -> [u8; 64] {
    let blocks_per_row = stride / 8;
    let bx = (block % blocks_per_row) * 8;
    let by = (block / blocks_per_row) * 8;
    let mut out = [0u8; 64];
    for r in 0..8 {
        let src = (by + r) * stride + bx;
        out[r * 8..r * 8 + 8].copy_from_slice(&plane[src..src + 8]);
    }
    out
}

fn plane_blocks(plane: &[u8], width: usize, height: usize) -> Vec<u8> {
    let nblocks = (width / 8) * (height / 8);
    let mut out = Vec::with_capacity(nblocks * 64);
    for b in 0..nblocks {
        out.extend_from_slice(&extract_block(plane, width, b));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cif_block_counts_match_paper() {
        let f = YuvFrame::new(352, 288);
        assert_eq!(f.luma_blocks(), 1584);
        assert_eq!(f.chroma_blocks(), 396);
    }

    #[test]
    fn block_extraction_row_major() {
        let mut f = YuvFrame::new(16, 16);
        // Mark pixel (row 1, col 9): belongs to luma block 1, offset 8+1.
        f.y[16 + 9] = 200;
        let b = f.luma_block(1);
        assert_eq!(b[8 + 1], 200);
        assert_eq!(f.luma_block(0)[8 + 1], 0);
    }

    #[test]
    fn plane_blocks_cover_everything() {
        let mut f = YuvFrame::new(16, 16);
        for (i, p) in f.y.iter_mut().enumerate() {
            *p = (i % 251) as u8;
        }
        let blocks = f.luma_plane_blocks();
        assert_eq!(blocks.len(), 4 * 64);
        // Each block matches individual extraction.
        for b in 0..4 {
            assert_eq!(&blocks[b * 64..(b + 1) * 64], &f.luma_block(b));
        }
    }

    #[test]
    fn i420_round_trip() {
        let w = 32;
        let h = 16;
        let mut data = vec![0u8; YuvFrame::i420_size(w, h)];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 250) as u8;
        }
        let f = YuvFrame::from_i420(w, h, &data).unwrap();
        assert_eq!(f.y[..], data[..w * h]);
        assert_eq!(f.u.len(), w * h / 4);
        assert!(YuvFrame::from_i420(w, h, &data[..10]).is_none());
    }

    #[test]
    #[should_panic(expected = "multiples of 16")]
    fn odd_dimensions_rejected() {
        YuvFrame::new(20, 20);
    }

    fn test_rgb(w: usize, h: usize, seed: u8) -> Vec<u8> {
        (0..w * h * 3)
            .map(|i| ((i * 31 + seed as usize * 97 + 13) % 256) as u8)
            .collect()
    }

    #[test]
    fn known_colors_convert_sanely() {
        // A uniform white frame: Y=255, chroma neutral.
        let f = rgb_to_yuv(&vec![255u8; 16 * 16 * 3], 16, 16);
        assert!(f.y.iter().all(|&y| y == 255));
        assert!(f.u.iter().all(|&u| u == 128));
        assert!(f.v.iter().all(|&v| v == 128));
        // A uniform black frame: Y=0, chroma neutral.
        let f = rgb_to_yuv(&vec![0u8; 16 * 16 * 3], 16, 16);
        assert!(f.y.iter().all(|&y| y == 0));
        assert!(f.u.iter().all(|&u| u == 128));
        assert!(f.v.iter().all(|&v| v == 128));
        // Pure red: Y ≈ 76, Cb < 128, Cr > 128.
        let mut red = vec![0u8; 16 * 16 * 3];
        for px in red.chunks_exact_mut(3) {
            px[0] = 255;
        }
        let f = rgb_to_yuv(&red, 16, 16);
        assert_eq!(f.y[0], 76);
        assert!(f.u[0] < 128 && f.v[0] > 200);
    }

    #[test]
    fn simd_rgb_to_yuv_bit_identical_to_scalar_oracle() {
        for seed in 0..8 {
            let rgb = test_rgb(48, 32, seed);
            assert_eq!(rgb_to_yuv(&rgb, 48, 32), rgb_to_yuv_scalar(&rgb, 48, 32));
        }
    }

    #[test]
    fn simd_yuv_to_rgb_bit_identical_to_scalar_oracle() {
        for seed in 0..8 {
            let mut data = vec![0u8; YuvFrame::i420_size(48, 32)];
            for (i, b) in data.iter_mut().enumerate() {
                *b = ((i * 29 + seed as usize * 101 + 7) % 256) as u8;
            }
            let f = YuvFrame::from_i420(48, 32, &data).unwrap();
            assert_eq!(yuv_to_rgb(&f), yuv_to_rgb_scalar(&f));
        }
    }

    #[test]
    fn rgb_round_trip_stays_close() {
        let rgb = test_rgb(32, 32, 3);
        let back = yuv_to_rgb(&rgb_to_yuv(&rgb, 32, 32));
        assert_eq!(back.len(), rgb.len());
        // Lossy through 4:2:0 subsampling, but luma-dominated error stays
        // small on smooth-ish content; just require the frame to be
        // recognisably the same image.
        let mean_err: f64 = rgb
            .iter()
            .zip(&back)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / rgb.len() as f64;
        assert!(mean_err < 48.0, "mean abs error {mean_err}");
    }
}
