//! A baseline JPEG decoder for the frames this crate produces — used to
//! validate the encoder end-to-end (decode ∘ encode ≈ id, measured as
//! PSNR against the source frame). It parses the exact header layout
//! `crate::jpeg::write_headers` emits (4:2:0, Annex-K Huffman tables) and
//! reconstructs planar YUV via dequantization + inverse DCT.

use crate::dct::{dequantize, idct_naive};
use crate::huffman::{decode_block, BitReader, ZIGZAG};
use crate::yuv::YuvFrame;

/// Decoder errors (malformed or unsupported streams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    BadMarker { offset: usize, found: u8 },
    Unsupported(&'static str),
    BadScan,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated JPEG stream"),
            DecodeError::BadMarker { offset, found } => {
                write!(f, "unexpected marker {found:#04x} at offset {offset}")
            }
            DecodeError::Unsupported(what) => write!(f, "unsupported JPEG feature: {what}"),
            DecodeError::BadScan => write!(f, "entropy-coded scan failed to decode"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Parser<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.data.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
    }

    fn slice(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.data.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// One decoded frame plus how many input bytes it consumed.
pub struct DecodedFrame {
    pub frame: YuvFrame,
    pub consumed: usize,
}

/// Decode a single JPEG frame from the start of `data` (as produced by
/// `crate::jpeg::write_frame`).
pub fn decode_frame(data: &[u8]) -> Result<DecodedFrame, DecodeError> {
    let mut p = Parser { data, pos: 0 };

    // SOI.
    if p.u8()? != 0xFF || p.u8()? != 0xD8 {
        return Err(DecodeError::BadMarker {
            offset: 0,
            found: data.first().copied().unwrap_or(0),
        });
    }

    let mut qtables: [[u16; 64]; 2] = [[1; 64]; 2];
    let mut width = 0usize;
    let mut height = 0usize;

    // Segments until SOS.
    loop {
        let off = p.pos;
        if p.u8()? != 0xFF {
            return Err(DecodeError::BadMarker {
                offset: off,
                found: data[off],
            });
        }
        let marker = p.u8()?;
        let len = p.u16()? as usize;
        let payload = p.slice(len - 2)?;
        match marker {
            0xE0 | 0xC4 => {} // APP0 / DHT (we use the standard tables)
            0xDB => {
                // DQT: id + 64 zigzag bytes.
                let id = (payload[0] & 0x0F) as usize;
                if id > 1 || payload[0] & 0xF0 != 0 {
                    return Err(DecodeError::Unsupported("16-bit or >2 quant tables"));
                }
                for (zz, &q) in ZIGZAG.iter().zip(&payload[1..65]) {
                    qtables[id][*zz] = q as u16;
                }
            }
            0xC0 => {
                // SOF0: precision, height, width, 3 components.
                if payload[0] != 8 || payload[5] != 3 {
                    return Err(DecodeError::Unsupported("non-8-bit or non-3-component"));
                }
                height = u16::from_be_bytes([payload[1], payload[2]]) as usize;
                width = u16::from_be_bytes([payload[3], payload[4]]) as usize;
                // Component 1 must be 2x2 (4:2:0), 2 and 3 must be 1x1.
                if payload[7] != 0x22 || payload[10] != 0x11 || payload[13] != 0x11 {
                    return Err(DecodeError::Unsupported("non-4:2:0 sampling"));
                }
            }
            0xDA => {
                // SOS: payload parsed implicitly (standard table bindings);
                // the entropy-coded scan follows.
                break;
            }
            other => {
                return Err(DecodeError::BadMarker {
                    offset: off,
                    found: other,
                })
            }
        }
    }

    if width == 0 || height == 0 {
        return Err(DecodeError::Unsupported("missing SOF before SOS"));
    }

    // Find EOI to bound the scan (stuffing makes 0xFFD9 unambiguous).
    let scan_start = p.pos;
    let mut eoi = None;
    let mut i = scan_start;
    while i + 1 < data.len() {
        if data[i] == 0xFF && data[i + 1] == 0xD9 {
            eoi = Some(i);
            break;
        }
        // Skip stuffed zero bytes so 0xFF 0xD9 inside data can't occur.
        i += if data[i] == 0xFF { 2 } else { 1 };
    }
    let eoi = eoi.ok_or(DecodeError::Truncated)?;
    let scan = &data[scan_start..eoi];

    // Decode MCUs.
    let mut frame = YuvFrame::new(width, height);
    let mcus_x = width / 16;
    let mcus_y = height / 16;
    let mut r = BitReader::new(scan);
    let mut pred = [0i16; 3];

    let write_block = |plane: &mut [u8],
                       stride: usize,
                       bx: usize,
                       by: usize,
                       q: &[i16; 64],
                       table: &[u16; 64]| {
        let pixels = idct_naive(&dequantize(q, table));
        for row in 0..8 {
            let dst = (by + row) * stride + bx;
            plane[dst..dst + 8].copy_from_slice(&pixels[row * 8..row * 8 + 8]);
        }
    };

    use crate::huffman::{AC_CHROMA, AC_LUMA, DC_CHROMA, DC_LUMA};
    for my in 0..mcus_y {
        for mx in 0..mcus_x {
            for dy in 0..2 {
                for dx in 0..2 {
                    let q = decode_block(&mut r, &mut pred[0], &DC_LUMA, &AC_LUMA)
                        .ok_or(DecodeError::BadScan)?;
                    write_block(
                        &mut frame.y,
                        width,
                        (2 * mx + dx) * 8,
                        (2 * my + dy) * 8,
                        &q,
                        &qtables[0],
                    );
                }
            }
            let qu = decode_block(&mut r, &mut pred[1], &DC_CHROMA, &AC_CHROMA)
                .ok_or(DecodeError::BadScan)?;
            write_block(&mut frame.u, width / 2, mx * 8, my * 8, &qu, &qtables[1]);
            let qv = decode_block(&mut r, &mut pred[2], &DC_CHROMA, &AC_CHROMA)
                .ok_or(DecodeError::BadScan)?;
            write_block(&mut frame.v, width / 2, mx * 8, my * 8, &qv, &qtables[1]);
        }
    }

    Ok(DecodedFrame {
        frame,
        consumed: eoi + 2,
    })
}

/// Decode every frame in an MJPEG stream.
pub fn decode_mjpeg(mut data: &[u8]) -> Result<Vec<YuvFrame>, DecodeError> {
    let mut frames = Vec::new();
    while !data.is_empty() {
        let d = decode_frame(data)?;
        frames.push(d.frame);
        data = &data[d.consumed..];
    }
    Ok(frames)
}

/// Peak signal-to-noise ratio between two planes, in dB.
pub fn psnr(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mse: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::encode_standalone;
    use crate::synthetic::{FrameSource, SyntheticVideo};

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_frame(&[0, 1, 2]).is_err());
        assert!(decode_frame(&[0xFF, 0xD8, 0xFF]).is_err());
    }

    #[test]
    fn round_trip_psnr_high_quality() {
        let src = SyntheticVideo::new(64, 48, 1, 5);
        let original = src.frame(0).unwrap();
        let stream = encode_standalone(&src, 95, 1, false);
        let decoded = decode_mjpeg(&stream).unwrap();
        assert_eq!(decoded.len(), 1);
        let y_psnr = psnr(&original.y, &decoded[0].y);
        assert!(y_psnr > 35.0, "luma PSNR too low: {y_psnr:.1} dB");
        let u_psnr = psnr(&original.u, &decoded[0].u);
        assert!(u_psnr > 35.0, "chroma PSNR too low: {u_psnr:.1} dB");
    }

    #[test]
    fn quality_ladder_monotone_psnr() {
        let src = SyntheticVideo::new(64, 48, 1, 9);
        let original = src.frame(0).unwrap();
        let mut last = 0.0;
        for q in [10u8, 50, 90] {
            let stream = encode_standalone(&src, q, 1, false);
            let decoded = decode_mjpeg(&stream).unwrap();
            let p = psnr(&original.y, &decoded[0].y);
            assert!(
                p >= last - 0.5,
                "PSNR decreased from {last:.1} to {p:.1} at q={q}"
            );
            last = p;
        }
        assert!(last > 30.0);
    }

    #[test]
    fn multi_frame_stream_decodes() {
        let src = SyntheticVideo::new(32, 32, 3, 1);
        let stream = encode_standalone(&src, 75, 3, true);
        let frames = decode_mjpeg(&stream).unwrap();
        assert_eq!(frames.len(), 3);
        // Frames differ (motion) and match their sources reasonably.
        assert_ne!(frames[0].y, frames[2].y);
        for (n, f) in frames.iter().enumerate() {
            let orig = src.frame(n as u64).unwrap();
            assert!(psnr(&orig.y, &f.y) > 25.0, "frame {n}");
        }
    }

    #[test]
    fn psnr_identity_is_infinite() {
        let a = vec![7u8; 64];
        assert!(psnr(&a, &a).is_infinite());
        let mut b = a.clone();
        b[0] = 8;
        assert!(psnr(&a, &b) > 40.0);
    }
}
