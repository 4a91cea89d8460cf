//! A minimal AVI (RIFF) container writer for MJPEG streams.
//!
//! Concatenated JPEGs are valid MJPEG but most players want them wrapped
//! in an AVI with the MJPG FourCC. This writer produces a standard
//! single-stream `RIFF AVI ` file (hdrl/avih/strl/strh/strf + movi chunks
//! + idx1 index) that mainstream players and ffmpeg accept.

fn fourcc(s: &[u8; 4]) -> [u8; 4] {
    *s
}

fn u32le(v: u32) -> [u8; 4] {
    v.to_le_bytes()
}

struct ChunkWriter {
    buf: Vec<u8>,
}

impl ChunkWriter {
    fn new() -> ChunkWriter {
        ChunkWriter { buf: Vec::new() }
    }

    fn chunk(&mut self, id: &[u8; 4], payload: &[u8]) {
        self.buf.extend_from_slice(&fourcc(id));
        self.buf.extend_from_slice(&u32le(payload.len() as u32));
        self.buf.extend_from_slice(payload);
        if payload.len() % 2 == 1 {
            self.buf.push(0); // RIFF chunks are word-aligned
        }
    }

    fn list(&mut self, kind: &[u8; 4], body: &[u8]) {
        self.buf.extend_from_slice(b"LIST");
        self.buf.extend_from_slice(&u32le((body.len() + 4) as u32));
        self.buf.extend_from_slice(&fourcc(kind));
        self.buf.extend_from_slice(body);
    }
}

/// Length in bytes of the JPEG frame at the start of `data`, found by
/// walking the marker structure. Header payloads (e.g. low-quality DQT
/// tables) may contain `FF D9`-looking byte pairs, so a naive EOI scan
/// from the frame start is not safe; only the entropy-coded scan after
/// SOS is stuffing-protected.
pub(crate) fn frame_span(data: &[u8]) -> Option<usize> {
    if data.len() < 4 || data[0] != 0xFF || data[1] != 0xD8 {
        return None;
    }
    let mut i = 2;
    // Marker segments (each carries an explicit length) until SOS.
    loop {
        if i + 4 > data.len() || data[i] != 0xFF {
            return None;
        }
        let marker = data[i + 1];
        let len = u16::from_be_bytes([data[i + 2], data[i + 3]]) as usize;
        i += 2 + len;
        if marker == 0xDA {
            break;
        }
    }
    // Entropy-coded data: byte stuffing guarantees 0xFF is followed by
    // 0x00 until the real EOI.
    while i + 1 < data.len() {
        if data[i] == 0xFF && data[i + 1] == 0xD9 {
            return Some(i + 2);
        }
        i += if data[i] == 0xFF { 2 } else { 1 };
    }
    None
}

/// Split an MJPEG byte stream into its individual JPEG frames.
pub fn split_frames(stream: &[u8]) -> Vec<&[u8]> {
    let mut frames = Vec::new();
    let mut rest = stream;
    while let Some(len) = frame_span(rest) {
        frames.push(&rest[..len]);
        rest = &rest[len..];
    }
    frames
}

/// Wrap an MJPEG stream (concatenated JPEGs) into an AVI file.
///
/// `fps` is the nominal frame rate (the paper's CIF sequences are 25/30
/// fps class material).
pub fn wrap_avi(mjpeg: &[u8], width: u32, height: u32, fps: u32) -> Vec<u8> {
    let frames = split_frames(mjpeg);
    let n = frames.len() as u32;
    let fps = fps.max(1);
    let max_frame = frames.iter().map(|f| f.len()).max().unwrap_or(0) as u32;

    // avih: MainAVIHeader.
    let mut avih = Vec::new();
    avih.extend_from_slice(&u32le(1_000_000 / fps)); // µs per frame
    avih.extend_from_slice(&u32le(max_frame * fps)); // max bytes/sec (upper bound)
    avih.extend_from_slice(&u32le(0)); // padding granularity
    avih.extend_from_slice(&u32le(0x10)); // flags: AVIF_HASINDEX
    avih.extend_from_slice(&u32le(n)); // total frames
    avih.extend_from_slice(&u32le(0)); // initial frames
    avih.extend_from_slice(&u32le(1)); // streams
    avih.extend_from_slice(&u32le(max_frame)); // suggested buffer size
    avih.extend_from_slice(&u32le(width));
    avih.extend_from_slice(&u32le(height));
    avih.extend_from_slice(&[0u8; 16]); // reserved

    // strh: AVIStreamHeader (vids/MJPG).
    let mut strh = Vec::new();
    strh.extend_from_slice(b"vids");
    strh.extend_from_slice(b"MJPG");
    strh.extend_from_slice(&u32le(0)); // flags
    strh.extend_from_slice(&u32le(0)); // priority + language
    strh.extend_from_slice(&u32le(0)); // initial frames
    strh.extend_from_slice(&u32le(1)); // scale
    strh.extend_from_slice(&u32le(fps)); // rate
    strh.extend_from_slice(&u32le(0)); // start
    strh.extend_from_slice(&u32le(n)); // length (frames)
    strh.extend_from_slice(&u32le(max_frame)); // suggested buffer
    strh.extend_from_slice(&u32le(u32::MAX)); // quality (default)
    strh.extend_from_slice(&u32le(0)); // sample size (varies)
    strh.extend_from_slice(&[0u8; 8]); // rcFrame

    // strf: BITMAPINFOHEADER.
    let mut strf = Vec::new();
    strf.extend_from_slice(&u32le(40)); // biSize
    strf.extend_from_slice(&u32le(width));
    strf.extend_from_slice(&u32le(height));
    strf.extend_from_slice(&[1, 0, 24, 0]); // planes=1, bitcount=24
    strf.extend_from_slice(b"MJPG"); // compression
    strf.extend_from_slice(&u32le(width * height * 3)); // image size
    strf.extend_from_slice(&[0u8; 16]); // resolution/clr fields

    let mut strl = ChunkWriter::new();
    strl.chunk(b"strh", &strh);
    strl.chunk(b"strf", &strf);

    let mut hdrl = ChunkWriter::new();
    hdrl.chunk(b"avih", &avih);
    hdrl.list(b"strl", &strl.buf);

    // movi: one 00dc chunk per frame, tracking offsets for idx1.
    let mut movi = ChunkWriter::new();
    let mut offsets = Vec::with_capacity(frames.len());
    for f in &frames {
        // Offset of this chunk relative to the start of the 'movi' FourCC
        // (the convention most demuxers expect): 4 bytes for the FourCC
        // itself plus what has been written so far.
        offsets.push(4 + movi.buf.len() as u32);
        movi.chunk(b"00dc", f);
    }

    // idx1.
    let mut idx1 = Vec::with_capacity(frames.len() * 16);
    for (f, &off) in frames.iter().zip(&offsets) {
        idx1.extend_from_slice(b"00dc");
        idx1.extend_from_slice(&u32le(0x10)); // AVIIF_KEYFRAME
        idx1.extend_from_slice(&u32le(off));
        idx1.extend_from_slice(&u32le(f.len() as u32));
    }

    // Assemble RIFF.
    let mut body = ChunkWriter::new();
    body.list(b"hdrl", &hdrl.buf);
    body.list(b"movi", &movi.buf);
    body.chunk(b"idx1", &idx1);

    let mut out = Vec::with_capacity(body.buf.len() + 12);
    out.extend_from_slice(b"RIFF");
    out.extend_from_slice(&u32le((body.buf.len() + 4) as u32));
    out.extend_from_slice(b"AVI ");
    out.extend_from_slice(&body.buf);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{count_frames, encode_standalone};
    use crate::synthetic::SyntheticVideo;

    /// Quick sanity parse of an AVI produced by [`wrap_avi`]: returns the
    /// frame count from the idx1 index.
    fn avi_frame_count(avi: &[u8]) -> Option<usize> {
        if avi.len() < 12 || &avi[0..4] != b"RIFF" || &avi[8..12] != b"AVI " {
            return None;
        }
        // Find idx1 chunk.
        let pos = avi.windows(4).position(|w| w == b"idx1")?;
        let len = u32::from_le_bytes(avi[pos + 4..pos + 8].try_into().ok()?) as usize;
        Some(len / 16)
    }

    fn sample_stream(frames: u64) -> Vec<u8> {
        encode_standalone(&SyntheticVideo::new(32, 32, frames, 3), 70, frames, true)
    }

    #[test]
    fn split_recovers_frames() {
        let stream = sample_stream(3);
        let frames = split_frames(&stream);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames.len(), count_frames(&stream));
        for f in &frames {
            assert_eq!(&f[..2], &[0xFF, 0xD8]);
            assert_eq!(&f[f.len() - 2..], &[0xFF, 0xD9]);
        }
        // Frames cover the whole stream.
        let total: usize = frames.iter().map(|f| f.len()).sum();
        assert_eq!(total, stream.len());
    }

    #[test]
    fn avi_structure() {
        let stream = sample_stream(2);
        let avi = wrap_avi(&stream, 32, 32, 25);
        assert_eq!(&avi[0..4], b"RIFF");
        assert_eq!(&avi[8..12], b"AVI ");
        // Declared RIFF size matches the file.
        let declared = u32::from_le_bytes(avi[4..8].try_into().unwrap()) as usize;
        assert_eq!(declared + 8, avi.len());
        assert_eq!(avi_frame_count(&avi), Some(2));
        // MJPG FourCC present (strh + strf).
        assert!(avi.windows(4).filter(|w| w == b"MJPG").count() >= 2);
    }

    #[test]
    fn avi_frames_decodable_in_place() {
        // The embedded 00dc payloads are the original JPEGs.
        let stream = sample_stream(2);
        let avi = wrap_avi(&stream, 32, 32, 30);
        let movi = avi.windows(4).position(|w| w == b"movi").unwrap();
        let first = avi
            .windows(4)
            .skip(movi)
            .position(|w| w == b"00dc")
            .unwrap()
            + movi;
        let len = u32::from_le_bytes(avi[first + 4..first + 8].try_into().unwrap()) as usize;
        let payload = &avi[first + 8..first + 8 + len];
        let decoded = crate::decode::decode_frame(payload).unwrap();
        assert_eq!(decoded.frame.width, 32);
    }

    #[test]
    fn low_quality_headers_do_not_confuse_splitting() {
        // At extreme quality settings the DQT payload saturates at 0xFF
        // and can contain 0xD9-adjacent byte pairs; the marker-structure
        // walk must not mistake them for EOI.
        for q in [1u8, 2, 5, 10] {
            let stream = encode_standalone(&SyntheticVideo::new(32, 32, 2, 1), q, 2, true);
            let frames = split_frames(&stream);
            assert_eq!(frames.len(), 2, "quality {q}");
            let total: usize = frames.iter().map(|f| f.len()).sum();
            assert_eq!(total, stream.len(), "quality {q}");
        }
    }

    #[test]
    fn frame_span_rejects_garbage() {
        assert_eq!(frame_span(&[]), None);
        assert_eq!(frame_span(&[0xFF, 0xD8, 0xFF]), None);
        assert_eq!(frame_span(&[0x00, 0x01, 0x02, 0x03]), None);
    }

    #[test]
    fn empty_stream_yields_empty_avi() {
        let avi = wrap_avi(&[], 32, 32, 25);
        assert_eq!(avi_frame_count(&avi), Some(0));
    }
}
