//! Baseline JPEG entropy coding: zigzag scan, run-length coding, canonical
//! Huffman tables (ITU T.81 Annex K) and the bit-level writer/reader.

/// Zigzag order: `ZIGZAG[i]` is the natural-order index of the `i`-th
/// zigzag coefficient.
pub(crate) const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, //
    17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, //
    27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, //
    29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, //
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// A JPEG Huffman table specification: `bits[i]` codes of length `i+1`,
/// and the symbol values in code order.
#[derive(Debug, Clone)]
pub struct HuffSpec {
    pub bits: [u8; 16],
    pub values: &'static [u8],
}

/// Annex K DC luminance table.
pub const DC_LUMA: HuffSpec = HuffSpec {
    bits: [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    values: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
};

/// Annex K DC chrominance table.
pub const DC_CHROMA: HuffSpec = HuffSpec {
    bits: [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    values: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
};

/// Annex K AC luminance table.
pub const AC_LUMA: HuffSpec = HuffSpec {
    bits: [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125],
    values: &[
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61,
        0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52,
        0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25,
        0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
        0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64,
        0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x83,
        0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99,
        0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3,
        0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8,
        0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
};

/// Annex K AC chrominance table.
pub const AC_CHROMA: HuffSpec = HuffSpec {
    bits: [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119],
    values: &[
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61,
        0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33,
        0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18,
        0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
        0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63,
        0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7A,
        0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97,
        0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA,
        0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7,
        0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
};

/// A built canonical Huffman table: code and length per symbol.
#[derive(Debug, Clone)]
pub struct HuffTable {
    /// (code, length in bits) indexed by symbol; length 0 = absent.
    codes: Vec<(u16, u8)>,
}

impl HuffTable {
    /// Build canonical codes from a spec (ITU T.81 Annex C procedure).
    pub fn build(spec: &HuffSpec) -> HuffTable {
        let mut codes = vec![(0u16, 0u8); 256];
        let mut code = 0u16;
        let mut vi = 0usize;
        for (len_m1, &count) in spec.bits.iter().enumerate() {
            for _ in 0..count {
                let symbol = spec.values[vi];
                codes[symbol as usize] = (code, len_m1 as u8 + 1);
                code += 1;
                vi += 1;
            }
            code <<= 1;
        }
        HuffTable { codes }
    }

    /// Code for a symbol; panics if the symbol has no code (invalid
    /// encoder state).
    #[inline]
    pub(crate) fn code(&self, symbol: u8) -> (u16, u8) {
        let (c, l) = self.codes[symbol as usize];
        assert!(l > 0, "symbol {symbol:#x} has no Huffman code");
        (c, l)
    }
}

/// MSB-first bit writer with JPEG byte stuffing (0xFF → 0xFF 0x00).
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u8,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Append `len` bits (MSB first) of `bits`.
    pub fn put(&mut self, bits: u16, len: u8) {
        debug_assert!(len <= 16);
        self.acc = (self.acc << len) | (bits as u32 & ((1u32 << len) - 1));
        self.nbits += len;
        while self.nbits >= 8 {
            self.nbits -= 8;
            let byte = (self.acc >> self.nbits) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00); // byte stuffing
            }
        }
    }

    /// Pad the final partial byte with 1-bits (JPEG convention) and return
    /// the stuffed entropy-coded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put((1u16 << pad) - 1, pad);
        }
        self.out
    }
}

/// The (size, amplitude-bits) representation of a DC difference or AC
/// coefficient value (ITU T.81 F.1.2.1).
#[inline]
pub fn magnitude_bits(v: i32) -> (u8, u16) {
    if v == 0 {
        return (0, 0);
    }
    let abs = v.unsigned_abs();
    let size = 32 - abs.leading_zeros() as u8;
    let bits = if v < 0 {
        (v - 1) as u32 & ((1u32 << size) - 1)
    } else {
        v as u32
    };
    (size, bits as u16)
}

/// Encode one quantized block (natural order) into the bit stream.
/// `dc_pred` holds the previous DC value of the same component and is
/// updated. Returns nothing; bits land in `w`.
pub fn encode_block(
    w: &mut BitWriter,
    block: &[i16; 64],
    dc_pred: &mut i16,
    dc_table: &HuffTable,
    ac_table: &HuffTable,
) {
    // DC: difference coded.
    let diff = block[0] - *dc_pred;
    *dc_pred = block[0];
    let (size, bits) = magnitude_bits(diff as i32);
    let (code, len) = dc_table.code(size);
    w.put(code, len);
    if size > 0 {
        w.put(bits, size);
    }

    // AC: zigzag, run-length of zeros, (run, size) symbols.
    let mut run = 0u8;
    for &zz in ZIGZAG.iter().skip(1) {
        let v = block[zz];
        if v == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            let (code, len) = ac_table.code(0xF0); // ZRL
            w.put(code, len);
            run -= 16;
        }
        let (size, bits) = magnitude_bits(v as i32);
        let symbol = (run << 4) | size;
        let (code, len) = ac_table.code(symbol);
        w.put(code, len);
        w.put(bits, size);
        run = 0;
    }
    if run > 0 {
        let (code, len) = ac_table.code(0x00); // EOB
        w.put(code, len);
    }
}

/// MSB-first bit reader that undoes byte stuffing — only used to verify
/// the encoder in tests.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u32,
    nbits: u8,
}

impl<'a> BitReader<'a> {
    /// Read from stuffed entropy-coded bytes.
    pub fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn fill(&mut self) -> Option<()> {
        while self.nbits <= 24 {
            if self.pos >= self.data.len() {
                return if self.nbits > 0 { Some(()) } else { None };
            }
            let byte = self.data[self.pos];
            self.pos += 1;
            if byte == 0xFF {
                // Skip the stuffed 0x00.
                if self.data.get(self.pos) == Some(&0x00) {
                    self.pos += 1;
                }
            }
            self.acc = (self.acc << 8) | byte as u32;
            self.nbits += 8;
        }
        Some(())
    }

    /// Read `len` bits MSB-first.
    pub fn read(&mut self, len: u8) -> Option<u16> {
        if len == 0 {
            return Some(0);
        }
        self.fill();
        if self.nbits < len {
            return None;
        }
        self.nbits -= len;
        let mask = if len >= 16 {
            u32::MAX
        } else {
            (1u32 << len) - 1
        };
        let v = ((self.acc >> self.nbits) & mask) as u16;
        Some(v)
    }

    /// Decode one Huffman symbol via linear code-length search.
    pub(crate) fn read_symbol(&mut self, spec: &HuffSpec) -> Option<u8> {
        let table = HuffTable::build(spec);
        let mut code = 0u16;
        for len in 1..=16u8 {
            code = (code << 1) | self.read(1)?;
            // Linear scan: fine for tests.
            for sym in 0..=255u8 {
                let (c, l) = table.codes[sym as usize];
                if l == len && c == code {
                    return Some(sym);
                }
            }
        }
        None
    }
}

/// Decode the sign-extended amplitude (inverse of [`magnitude_bits`]).
pub fn extend_magnitude(bits: u16, size: u8) -> i32 {
    if size == 0 {
        return 0;
    }
    let v = bits as i32;
    if v < (1 << (size - 1)) {
        v - (1 << size) + 1
    } else {
        v
    }
}

/// Decode one block (natural order) — test-only inverse of
/// [`encode_block`].
pub fn decode_block(
    r: &mut BitReader,
    dc_pred: &mut i16,
    dc_spec: &HuffSpec,
    ac_spec: &HuffSpec,
) -> Option<[i16; 64]> {
    let mut out = [0i16; 64];
    let size = r.read_symbol(dc_spec)?;
    let bits = r.read(size)?;
    let diff = extend_magnitude(bits, size);
    *dc_pred = (*dc_pred as i32 + diff) as i16;
    out[0] = *dc_pred;

    let mut k = 1;
    while k < 64 {
        let symbol = r.read_symbol(ac_spec)?;
        if symbol == 0x00 {
            break; // EOB
        }
        let run = symbol >> 4;
        let size = symbol & 0x0F;
        if symbol == 0xF0 {
            k += 16;
            continue;
        }
        k += run as usize;
        if k >= 64 {
            return None;
        }
        let bits = r.read(size)?;
        out[ZIGZAG[k]] = extend_magnitude(bits, size) as i16;
        k += 1;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BitWriter {
        /// Bits written so far.
        fn bit_len(&self) -> usize {
            self.out.len() * 8 + self.nbits as usize
        }
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i]);
            seen[i] = true;
        }
        // Spot-check the canonical start of the pattern.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
    }

    #[test]
    fn table_specs_are_consistent() {
        for spec in [&DC_LUMA, &DC_CHROMA, &AC_LUMA, &AC_CHROMA] {
            let total: usize = spec.bits.iter().map(|&b| b as usize).sum();
            assert_eq!(total, spec.values.len());
            HuffTable::build(spec); // must not panic
        }
        assert_eq!(AC_LUMA.values.len(), 162);
        assert_eq!(AC_CHROMA.values.len(), 162);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let t = HuffTable::build(&AC_LUMA);
        let codes: Vec<(u16, u8)> = (0..256)
            .map(|s| t.codes[s])
            .filter(|&(_, l)| l > 0)
            .collect();
        for (i, &(ca, la)) in codes.iter().enumerate() {
            for &(cb, lb) in &codes[i + 1..] {
                let (short, slen, long, llen) = if la <= lb {
                    (ca, la, cb, lb)
                } else {
                    (cb, lb, ca, la)
                };
                let _ = llen;
                assert_ne!(
                    long >> (llen - slen),
                    short,
                    "prefix violation between codes"
                );
            }
        }
    }

    #[test]
    fn magnitude_bits_round_trip() {
        for v in -1024i32..=1024 {
            let (size, bits) = magnitude_bits(v);
            assert_eq!(extend_magnitude(bits, size), v, "value {v}");
        }
    }

    #[test]
    fn bitwriter_stuffs_ff() {
        let mut w = BitWriter::new();
        w.put(0xFF, 8);
        let out = w.finish();
        assert_eq!(out, vec![0xFF, 0x00]);
    }

    #[test]
    fn bitwriter_pads_with_ones() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        let out = w.finish();
        assert_eq!(out, vec![0b1011_1111]);
    }

    #[test]
    fn bit_reader_round_trip() {
        let mut w = BitWriter::new();
        w.put(0b1101, 4);
        w.put(0x2A5, 10);
        w.put(0xFF, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(4), Some(0b1101));
        assert_eq!(r.read(10), Some(0x2A5));
        assert_eq!(r.read(8), Some(0xFF));
    }

    #[test]
    fn block_encode_decode_round_trip() {
        let mut block = [0i16; 64];
        block[0] = 37; // DC
        block[1] = -3;
        block[8] = 12;
        block[10] = -1;
        block[63] = 2; // forces long zero runs (ZRL path)
        let dc = HuffTable::build(&DC_LUMA);
        let ac = HuffTable::build(&AC_LUMA);

        let mut w = BitWriter::new();
        let mut pred = 0i16;
        encode_block(&mut w, &block, &mut pred, &dc, &ac);
        // A second block exercises DC prediction.
        let mut block2 = block;
        block2[0] = 35;
        encode_block(&mut w, &block2, &mut pred, &dc, &ac);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        let mut dpred = 0i16;
        let d1 = decode_block(&mut r, &mut dpred, &DC_LUMA, &AC_LUMA).unwrap();
        assert_eq!(d1, block);
        let d2 = decode_block(&mut r, &mut dpred, &DC_LUMA, &AC_LUMA).unwrap();
        assert_eq!(d2, block2);
    }

    #[test]
    fn all_zero_block_is_two_symbols() {
        let block = [0i16; 64];
        let dc = HuffTable::build(&DC_LUMA);
        let ac = HuffTable::build(&AC_LUMA);
        let mut w = BitWriter::new();
        let mut pred = 0i16;
        encode_block(&mut w, &block, &mut pred, &dc, &ac);
        // DC size-0 (2 bits in the standard table) + EOB (4 bits) = 6 bits.
        assert_eq!(w.bit_len(), 6);
    }
}
