//! JFIF frame assembly: headers + entropy-coded scan → one baseline JPEG
//! per video frame. An MJPEG stream is the concatenation of such frames.

use crate::dct::{scaled_quant_table, QUANT_CHROMA, QUANT_LUMA};
use crate::huffman::{
    encode_block, BitWriter, HuffTable, AC_CHROMA, AC_LUMA, DC_CHROMA, DC_LUMA, ZIGZAG,
};

/// Encoding parameters shared by every kernel of the pipeline.
#[derive(Debug, Clone)]
pub(crate) struct JpegParams {
    pub width: usize,
    pub height: usize,
    pub luma_table: [u16; 64],
    pub chroma_table: [u16; 64],
}

impl JpegParams {
    /// Derive quantization tables for an IJG quality setting (1..=100).
    pub fn new(width: usize, height: usize, quality: u8) -> JpegParams {
        JpegParams {
            width,
            height,
            luma_table: scaled_quant_table(&QUANT_LUMA, quality),
            chroma_table: scaled_quant_table(&QUANT_CHROMA, quality),
        }
    }

    /// Luma 8×8 blocks per frame.
    pub fn luma_blocks(&self) -> usize {
        (self.width / 8) * (self.height / 8)
    }

    /// Chroma 8×8 blocks per component per frame.
    pub fn chroma_blocks(&self) -> usize {
        (self.width / 16) * (self.height / 16)
    }

    /// MCUs per row (one MCU covers 16×16 luma pixels in 4:2:0).
    pub(crate) fn mcus_x(&self) -> usize {
        self.width / 16
    }

    /// MCU rows.
    pub(crate) fn mcus_y(&self) -> usize {
        self.height / 16
    }
}

fn push_marker(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
    out.push(0xFF);
    out.push(marker);
    let len = (payload.len() + 2) as u16;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Emit the JPEG headers (SOI through SOS) for a 4:2:0 baseline frame.
pub(crate) fn write_headers(out: &mut Vec<u8>, params: &JpegParams) {
    // SOI.
    out.extend_from_slice(&[0xFF, 0xD8]);

    // APP0 / JFIF.
    push_marker(
        out,
        0xE0,
        &[
            b'J', b'F', b'I', b'F', 0, // identifier
            1, 1, // version
            0, // aspect units
            0, 1, 0, 1, // aspect ratio 1:1
            0, 0, // no thumbnail
        ],
    );

    // DQT: table 0 (luma) and 1 (chroma), zigzag order.
    for (id, table) in [(0u8, &params.luma_table), (1u8, &params.chroma_table)] {
        let mut payload = Vec::with_capacity(65);
        payload.push(id); // precision 0 (8-bit), table id
        for &zz in &ZIGZAG {
            payload.push(table[zz] as u8);
        }
        push_marker(out, 0xDB, &payload);
    }

    // SOF0: baseline, 3 components, 4:2:0 sampling.
    let mut sof = Vec::new();
    sof.push(8); // precision
    sof.extend_from_slice(&(params.height as u16).to_be_bytes());
    sof.extend_from_slice(&(params.width as u16).to_be_bytes());
    sof.push(3);
    sof.extend_from_slice(&[1, 0x22, 0]); // Y: 2x2 sampling, qtable 0
    sof.extend_from_slice(&[2, 0x11, 1]); // Cb: 1x1, qtable 1
    sof.extend_from_slice(&[3, 0x11, 1]); // Cr: 1x1, qtable 1
    push_marker(out, 0xC0, &sof);

    // DHT: 4 tables.
    for (class_id, spec) in [
        (0x00u8, &DC_LUMA),
        (0x10, &AC_LUMA),
        (0x01, &DC_CHROMA),
        (0x11, &AC_CHROMA),
    ] {
        let mut payload = Vec::with_capacity(1 + 16 + spec.values.len());
        payload.push(class_id);
        payload.extend_from_slice(&spec.bits);
        payload.extend_from_slice(spec.values);
        push_marker(out, 0xC4, &payload);
    }

    // SOS.
    push_marker(
        out,
        0xDA,
        &[
            3, // components
            1, 0x00, // Y uses DC0/AC0
            2, 0x11, // Cb uses DC1/AC1
            3, 0x11, // Cr uses DC1/AC1
            0, 63, 0, // spectral selection (baseline)
        ],
    );
}

/// Entropy-code one frame's quantized blocks in MCU order (4:2:0: four Y
/// blocks in 2×2 order, then Cb, then Cr per MCU) and append the complete
/// JPEG frame (headers + scan + EOI) to `out`.
///
/// `y`, `u`, `v` hold quantized coefficients in natural order, 64 per
/// block, in row-major block order per plane.
pub(crate) fn write_frame(out: &mut Vec<u8>, params: &JpegParams, y: &[i16], u: &[i16], v: &[i16]) {
    assert_eq!(y.len(), params.luma_blocks() * 64, "luma plane size");
    assert_eq!(u.len(), params.chroma_blocks() * 64, "u plane size");
    assert_eq!(v.len(), params.chroma_blocks() * 64, "v plane size");

    write_headers(out, params);

    let dc_luma = HuffTable::build(&DC_LUMA);
    let ac_luma = HuffTable::build(&AC_LUMA);
    let dc_chroma = HuffTable::build(&DC_CHROMA);
    let ac_chroma = HuffTable::build(&AC_CHROMA);

    let mut w = BitWriter::new();
    let mut pred = [0i16; 3];
    let luma_bpr = params.width / 8; // luma blocks per row
    let chroma_bpr = params.mcus_x();

    let block_at = |plane: &[i16], idx: usize| -> [i16; 64] {
        let mut b = [0i16; 64];
        b.copy_from_slice(&plane[idx * 64..idx * 64 + 64]);
        b
    };

    for my in 0..params.mcus_y() {
        for mx in 0..params.mcus_x() {
            // Four luma blocks: (2my, 2mx), (2my, 2mx+1), (2my+1, 2mx),
            // (2my+1, 2mx+1).
            for dy in 0..2 {
                for dx in 0..2 {
                    let idx = (2 * my + dy) * luma_bpr + 2 * mx + dx;
                    encode_block(&mut w, &block_at(y, idx), &mut pred[0], &dc_luma, &ac_luma);
                }
            }
            let cidx = my * chroma_bpr + mx;
            encode_block(
                &mut w,
                &block_at(u, cidx),
                &mut pred[1],
                &dc_chroma,
                &ac_chroma,
            );
            encode_block(
                &mut w,
                &block_at(v, cidx),
                &mut pred[2],
                &dc_chroma,
                &ac_chroma,
            );
        }
    }

    out.extend_from_slice(&w.finish());
    out.extend_from_slice(&[0xFF, 0xD9]); // EOI
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantized_planes(params: &JpegParams) -> (Vec<i16>, Vec<i16>, Vec<i16>) {
        // Simple deterministic coefficients.
        let mk = |blocks: usize, scale: i16| -> Vec<i16> {
            let mut v = vec![0i16; blocks * 64];
            for b in 0..blocks {
                v[b * 64] = (b as i16 % 100) - 50; // DC
                v[b * 64 + 1] = scale;
            }
            v
        };
        (
            mk(params.luma_blocks(), 3),
            mk(params.chroma_blocks(), -2),
            mk(params.chroma_blocks(), 1),
        )
    }

    #[test]
    fn headers_have_expected_markers() {
        let params = JpegParams::new(32, 32, 75);
        let mut out = Vec::new();
        write_headers(&mut out, &params);
        assert_eq!(&out[..2], &[0xFF, 0xD8]); // SOI
        let count = |marker: u8| {
            out.windows(2)
                .filter(|w| w[0] == 0xFF && w[1] == marker)
                .count()
        };
        assert_eq!(count(0xE0), 1); // APP0
        assert_eq!(count(0xDB), 2); // two DQT
        assert_eq!(count(0xC0), 1); // SOF0
        assert_eq!(count(0xC4), 4); // four DHT
        assert_eq!(count(0xDA), 1); // SOS
    }

    #[test]
    fn sof_encodes_dimensions() {
        let params = JpegParams::new(352, 288, 75);
        let mut out = Vec::new();
        write_headers(&mut out, &params);
        let sof = out
            .windows(2)
            .position(|w| w == [0xFF, 0xC0])
            .expect("SOF present");
        // Marker(2) + len(2) + precision(1) → height at sof+5.
        assert_eq!(&out[sof + 5..sof + 7], &288u16.to_be_bytes());
        assert_eq!(&out[sof + 7..sof + 9], &352u16.to_be_bytes());
    }

    #[test]
    fn frame_ends_with_eoi() {
        let params = JpegParams::new(32, 32, 50);
        let (y, u, v) = quantized_planes(&params);
        let mut out = Vec::new();
        write_frame(&mut out, &params, &y, &u, &v);
        assert_eq!(&out[out.len() - 2..], &[0xFF, 0xD9]);
        assert!(out.len() > 640, "frame has real content: {}", out.len());
    }

    #[test]
    fn scan_round_trips_through_decoder() {
        // Decode the entropy-coded scan back and compare with the input
        // coefficients (MCU order).
        use crate::huffman::{decode_block, BitReader};
        let params = JpegParams::new(32, 32, 50);
        let (y, u, v) = quantized_planes(&params);
        let mut out = Vec::new();
        write_frame(&mut out, &params, &y, &u, &v);

        // The scan starts right after the SOS segment (marker + length
        // field, where the length covers itself + payload) and ends before
        // EOI.
        let sos = out.windows(2).position(|w| w == [0xFF, 0xDA]).unwrap();
        let seg_len = u16::from_be_bytes([out[sos + 2], out[sos + 3]]) as usize;
        let scan = &out[sos + 2 + seg_len..out.len() - 2];

        let mut r = BitReader::new(scan);
        let mut pred = [0i16; 3];
        let luma_bpr = params.width / 8;
        for my in 0..params.mcus_y() {
            for mx in 0..params.mcus_x() {
                for dy in 0..2 {
                    for dx in 0..2 {
                        let idx = (2 * my + dy) * luma_bpr + 2 * mx + dx;
                        let got = decode_block(&mut r, &mut pred[0], &DC_LUMA, &AC_LUMA).unwrap();
                        assert_eq!(&got[..], &y[idx * 64..idx * 64 + 64], "Y block {idx}");
                    }
                }
                let cidx = my * params.mcus_x() + mx;
                let gu = decode_block(&mut r, &mut pred[1], &DC_CHROMA, &AC_CHROMA).unwrap();
                assert_eq!(&gu[..], &u[cidx * 64..cidx * 64 + 64], "U block {cidx}");
                let gv = decode_block(&mut r, &mut pred[2], &DC_CHROMA, &AC_CHROMA).unwrap();
                assert_eq!(&gv[..], &v[cidx * 64..cidx * 64 + 64], "V block {cidx}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "luma plane size")]
    fn wrong_plane_size_panics() {
        let params = JpegParams::new(32, 32, 50);
        let mut out = Vec::new();
        write_frame(&mut out, &params, &[0; 64], &[0; 64 * 4], &[0; 64 * 4]);
    }
}
