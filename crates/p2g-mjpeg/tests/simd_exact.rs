//! Property tests pinning the SIMD fast paths to their scalar oracles:
//! every vectorised kernel body (AAN DCT, quantization, RGB↔YUV) must be
//! bit-identical to the scalar implementation on arbitrary inputs, and a
//! full pipeline run with chunking + adaptation enabled must produce the
//! exact bytes of the standalone single-threaded encoder.
//!
//! With `--no-default-features` the fast paths compile to the scalar
//! code, so these properties degenerate to `x == x` — they only bite in
//! the default `simd` build, where they cover the intrinsics.

use std::sync::Arc;

use proptest::prelude::*;

use p2g_core::prelude::*;
use p2g_mjpeg::dct::{
    aan_divisors, dct_quantize_aan_div, dct_quantize_aan_scalar, fdct_aan, fdct_aan_scalar,
    quantize_aan, quantize_aan_div, scaled_quant_table, QUANT_CHROMA, QUANT_LUMA,
};
use p2g_mjpeg::yuv::{rgb_to_yuv, rgb_to_yuv_scalar, yuv_to_rgb, yuv_to_rgb_scalar, YuvFrame};
use p2g_mjpeg::{build_mjpeg_program, encode_standalone, MjpegConfig, SyntheticVideo};

fn block() -> impl Strategy<Value = [u8; 64]> {
    prop::collection::vec(any::<u8>(), 64).prop_map(|v| {
        let mut b = [0u8; 64];
        b.copy_from_slice(&v);
        b
    })
}

proptest! {
    /// The SIMD 2D AAN DCT matches the scalar implementation exactly
    /// (same f64 operations, just four butterflies per vector).
    #[test]
    fn simd_fdct_matches_scalar(b in block()) {
        let fast = fdct_aan(&b);
        let slow = fdct_aan_scalar(&b);
        prop_assert_eq!(&fast[..], &slow[..]);
    }

    /// SIMD quantization by precomputed reciprocal-free divisors matches
    /// the scalar divide-and-round on arbitrary coefficients and any
    /// quality's table.
    #[test]
    fn simd_quantize_matches_scalar(b in block(), quality in 1u8..=100, chroma in any::<bool>()) {
        let base = if chroma { QUANT_CHROMA } else { QUANT_LUMA };
        let table = scaled_quant_table(&base, quality);
        let coeffs = fdct_aan_scalar(&b);
        let fast = quantize_aan_div(&coeffs, &aan_divisors(&table));
        let slow = quantize_aan(&coeffs, &table);
        prop_assert_eq!(&fast[..], &slow[..]);
    }

    /// The fused block transform (what the pipeline's fast bodies run)
    /// matches the all-scalar oracle end to end.
    #[test]
    fn simd_block_transform_matches_scalar(b in block(), quality in 1u8..=100) {
        let table = scaled_quant_table(&QUANT_LUMA, quality);
        let fast = dct_quantize_aan_div(&b, &aan_divisors(&table));
        let slow = dct_quantize_aan_scalar(&b, &table);
        prop_assert_eq!(&fast[..], &slow[..]);
    }

    /// SIMD RGB→YUV (4:2:0 subsampling included) is bit-identical to the
    /// scalar conversion on arbitrary MCU-aligned images.
    #[test]
    fn simd_rgb_to_yuv_matches_scalar(
        w in 1usize..=6,
        h in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let (w, h) = (w * 16, h * 16);
        let mut state = seed | 1;
        let rgb: Vec<u8> = (0..w * h * 3)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xff) as u8
            })
            .collect();
        let fast = rgb_to_yuv(&rgb, w, h);
        let slow = rgb_to_yuv_scalar(&rgb, w, h);
        prop_assert_eq!(fast.y, slow.y);
        prop_assert_eq!(fast.u, slow.u);
        prop_assert_eq!(fast.v, slow.v);
    }

    /// SIMD YUV→RGB matches the scalar upsample + convert exactly.
    #[test]
    fn simd_yuv_to_rgb_matches_scalar(
        w in 1usize..=6,
        h in 1usize..=4,
        data in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let (w, h) = (w * 16, h * 16);
        let need = YuvFrame::i420_size(w, h);
        let mut bytes = data;
        bytes.resize(need, 0x80);
        let frame = YuvFrame::from_i420(w, h, &bytes).expect("sized i420 buffer");
        prop_assert_eq!(yuv_to_rgb(&frame), yuv_to_rgb_scalar(&frame));
    }
}

proptest! {
    // Full-runtime cases are expensive; a few random shapes suffice —
    // the per-kernel properties above carry the bit-level load.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The complete pipeline with SIMD bodies, chunked units that run the
    /// one per-instance body for each block, and online granularity
    /// adaptation emits byte-identical JPEG streams to the standalone
    /// scalar-order encoder.
    #[test]
    fn chunked_pipeline_encodes_bit_identically(
        seed in any::<u64>(),
        quality in prop_oneof![Just(50u8), Just(75u8), Just(90u8)],
        frames in 1u64..=3,
        dct_chunk in prop_oneof![Just(1usize), Just(4usize), Just(16usize)],
    ) {
        let src = SyntheticVideo::new(32, 32, frames, seed);
        let reference = encode_standalone(&src, quality, frames, true);
        let config = MjpegConfig {
            quality,
            max_frames: frames,
            fast_dct: true,
            dct_chunk,
            ..MjpegConfig::default()
        };
        let (program, sink) = build_mjpeg_program(Arc::new(src), config).expect("program builds");
        NodeBuilder::new(program)
            .workers(2)
            .launch(
                RunLimits::ages(frames + 1)
                    .with_gc_window(4)
                    .with_adaptive(AdaptiveGranularity::default()),
            )
            .and_then(|n| n.wait())
            .expect("run succeeds");
        prop_assert_eq!(sink.take(), reference);
    }
}
