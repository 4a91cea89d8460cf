//! Hand-rolled wire codec for [`NetMsg`] — the byte layer under
//! [`crate::TcpNet`].
//!
//! The workspace is offline (no serde/bincode), so framing and message
//! encoding are explicit and small. Every message travels as one frame:
//!
//! ```text
//! magic (u32 LE) | version (u8) | length (u32 LE) | crc32 (u32 LE) | payload
//! ```
//!
//! `length` counts payload bytes only and is bounded by [`MAX_PAYLOAD`];
//! `crc32` is the IEEE CRC of the payload. The decoder trusts nothing a
//! peer sends: every read is bounds-checked, every tag validated, buffer
//! and vector lengths are reconciled against the bytes actually present,
//! and a corrupt or truncated frame yields a [`WireError`] — never a
//! panic, and (up to a CRC collision) never a silently wrong message.
//!
//! [`FrameReader`] is the receive-side incremental parser: bytes go in as
//! they arrive from the socket, whole validated payloads come out. On a
//! corrupt frame it *resynchronizes* — advancing one byte and scanning
//! for the next magic — so a connection can survive a damaged frame; the
//! caller decides whether to keep the connection (resync) or drop it.

use p2g_field::buffer::BufferData;
use p2g_field::{Age, Buffer, DimSel, Extents, FieldId, Region, ScalarType};
use p2g_graph::{KernelId, NodeId};

use crate::transport::NetMsg;

/// Frame magic, chosen to be unlikely in P2G payload data ("P2G!").
pub const MAGIC: u32 = 0x5032_4721;
/// Wire protocol version; bumped on any codec change.
pub const VERSION: u8 = 1;
/// Fixed frame header size: magic + version + length + crc32.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 4;
/// Upper bound on one frame's payload. A length field above this is
/// treated as corruption, bounding what a broken (or hostile) peer can
/// make the receiver allocate.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// A decode failure. Everything a remote peer can influence decodes to
/// one of these instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Frame header does not start with [`MAGIC`].
    BadMagic,
    /// Frame version is not [`VERSION`].
    BadVersion(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Payload CRC mismatch (bit corruption in transit).
    BadCrc { expected: u32, found: u32 },
    /// Payload ended before a field could be read.
    Truncated,
    /// Unknown message tag byte.
    UnknownTag(u8),
    /// Unknown scalar-type byte in a buffer.
    UnknownScalar(u8),
    /// Unknown dimension-selector tag in a region.
    UnknownDimSel(u8),
    /// Structurally invalid payload (length mismatch, bad UTF-8,
    /// trailing bytes, implausible count).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            WireError::BadCrc { expected, found } => {
                write!(f, "payload crc mismatch: expected {expected:08x}, found {found:08x}")
            }
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::UnknownScalar(t) => write!(f, "unknown scalar type {t}"),
            WireError::UnknownDimSel(t) => write!(f, "unknown dimension selector {t}"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- crc32

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 (the zlib/ethernet polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = (c >> 8) ^ CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

// ------------------------------------------------------- encode helpers

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        // Addresses and names are short; truncation would be a caller
        // bug, so cap loudly rather than silently.
        let bytes = s.as_bytes();
        debug_assert!(bytes.len() <= u16::MAX as usize, "string too long for wire");
        self.u16(bytes.len().min(u16::MAX as usize) as u16);
        self.0.extend_from_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
    }

    fn bytes(&mut self, b: &[u8]) {
        debug_assert!(b.len() <= u32::MAX as usize, "byte payload too long for wire");
        self.u32(b.len().min(u32::MAX as usize) as u32);
        self.0.extend_from_slice(&b[..b.len().min(u32::MAX as usize)]);
    }

    /// A `u32` count followed by each item: the one layout of every list
    /// on the wire ([`Reader::list`] reads it back).
    fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for x in items {
            item(self, x);
        }
    }

    fn region(&mut self, r: &Region) {
        debug_assert!(r.0.len() <= u8::MAX as usize, "region rank too high for wire");
        self.u8(r.0.len().min(u8::MAX as usize) as u8);
        for d in &r.0 {
            match *d {
                DimSel::Index(i) => {
                    self.u8(0);
                    self.u64(i as u64);
                }
                DimSel::Range { start, len } => {
                    self.u8(1);
                    self.u64(start as u64);
                    self.u64(len as u64);
                }
                DimSel::All => self.u8(2),
            }
        }
    }

    fn buffer(&mut self, b: &Buffer) {
        self.u8(scalar_tag(b.scalar_type()));
        let shape = b.shape();
        debug_assert!(shape.ndim() <= u8::MAX as usize, "buffer rank too high for wire");
        self.u8(shape.ndim().min(u8::MAX as usize) as u8);
        for d in 0..shape.ndim() {
            self.u64(shape.dim(d) as u64);
        }
        match b.data() {
            BufferData::U8(v) => self.0.extend_from_slice(v),
            BufferData::I16(v) => v.iter().for_each(|x| self.0.extend_from_slice(&x.to_le_bytes())),
            BufferData::I32(v) => v.iter().for_each(|x| self.0.extend_from_slice(&x.to_le_bytes())),
            BufferData::I64(v) => v.iter().for_each(|x| self.0.extend_from_slice(&x.to_le_bytes())),
            BufferData::F32(v) => v.iter().for_each(|x| self.0.extend_from_slice(&x.to_le_bytes())),
            BufferData::F64(v) => v.iter().for_each(|x| self.0.extend_from_slice(&x.to_le_bytes())),
        }
    }
}

fn scalar_tag(ty: ScalarType) -> u8 {
    match ty {
        ScalarType::U8 => 0,
        ScalarType::I16 => 1,
        ScalarType::I32 => 2,
        ScalarType::I64 => 3,
        ScalarType::F32 => 4,
        ScalarType::F64 => 5,
    }
}

fn scalar_from_tag(tag: u8) -> Result<ScalarType, WireError> {
    Ok(match tag {
        0 => ScalarType::U8,
        1 => ScalarType::I16,
        2 => ScalarType::I32,
        3 => ScalarType::I64,
        4 => ScalarType::F32,
        5 => ScalarType::F64,
        t => return Err(WireError::UnknownScalar(t)),
    })
}

// ------------------------------------------------------- decode helpers

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// A `usize` transported as u64; rejects values that cannot index
    /// memory on this host (a corrupt or hostile length).
    fn idx(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("index exceeds usize"))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("invalid utf-8"))
    }

    /// A length-prefixed byte blob; the bytes must actually be present, so
    /// a corrupt length cannot trigger a large allocation.
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// A list written by [`Writer::list`]. Every item takes at least one
    /// byte, so a count above the bytes left is corruption, refused before
    /// anything is allocated.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::Malformed("count exceeds payload"));
        }
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn region(&mut self) -> Result<Region, WireError> {
        let ndim = self.u8()? as usize;
        let mut dims = Vec::with_capacity(ndim.min(16));
        for _ in 0..ndim {
            dims.push(match self.u8()? {
                0 => DimSel::Index(self.idx()?),
                1 => DimSel::Range {
                    start: self.idx()?,
                    len: self.idx()?,
                },
                2 => DimSel::All,
                t => return Err(WireError::UnknownDimSel(t)),
            });
        }
        Ok(Region(dims))
    }

    fn buffer(&mut self) -> Result<Buffer, WireError> {
        let ty = scalar_from_tag(self.u8()?)?;
        let ndim = self.u8()? as usize;
        let mut dims = Vec::with_capacity(ndim.min(16));
        for _ in 0..ndim {
            dims.push(self.idx()?);
        }
        let shape = Extents::new(dims);
        let count = shape.len();
        // The element bytes must actually be present before allocating:
        // a corrupt shape cannot make us reserve gigabytes.
        let byte_len = count
            .checked_mul(ty.size_bytes())
            .ok_or(WireError::Malformed("buffer size overflows"))?;
        let raw = self.take(byte_len)?;
        let data = match ty {
            ScalarType::U8 => BufferData::U8(raw.to_vec()),
            ScalarType::I16 => BufferData::I16(
                raw.chunks_exact(2).map(|c| i16::from_le_bytes([c[0], c[1]])).collect(),
            ),
            ScalarType::I32 => BufferData::I32(
                raw.chunks_exact(4)
                    .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            ),
            ScalarType::I64 => BufferData::I64(
                raw.chunks_exact(8)
                    .map(|c| {
                        let mut a = [0u8; 8];
                        a.copy_from_slice(c);
                        i64::from_le_bytes(a)
                    })
                    .collect(),
            ),
            ScalarType::F32 => BufferData::F32(
                raw.chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            ),
            ScalarType::F64 => BufferData::F64(
                raw.chunks_exact(8)
                    .map(|c| {
                        let mut a = [0u8; 8];
                        a.copy_from_slice(c);
                        f64::from_le_bytes(a)
                    })
                    .collect(),
            ),
        };
        Buffer::from_data(data, shape).map_err(|_| WireError::Malformed("buffer shape mismatch"))
    }
}

// ------------------------------------------------------ message payloads

const TAG_STORE: u8 = 1;
// Tag 2 carried the in-process cluster's liveness beacon, which `Status`
// subsumed; it stays retired (decodes as an unknown tag), never reused.
const TAG_HELLO: u8 = 3;
const TAG_ASSIGN: u8 = 4;
const TAG_STATUS: u8 = 5;
const TAG_REPLAY: u8 = 6;
const TAG_FINISH: u8 = 7;
const TAG_RESULTS: u8 = 8;
const TAG_ACK: u8 = 9;
const TAG_OPEN_SESSION: u8 = 10;
const TAG_SESSION_OPENED: u8 = 11;
const TAG_SESSION_REJECTED: u8 = 12;
const TAG_SUBMIT_FRAME: u8 = 13;
const TAG_OUTPUT: u8 = 14;
const TAG_CREDIT: u8 = 15;
const TAG_CLOSE_SESSION: u8 = 16;
const TAG_SESSION_STATS: u8 = 17;

/// Encode one message into a frame *payload* (no header).
pub fn encode_payload(msg: &NetMsg) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(64));
    match msg {
        NetMsg::StoreForward {
            field,
            age,
            region,
            buffer,
        } => {
            w.u8(TAG_STORE);
            w.u32(field.0);
            w.u64(age.0);
            w.region(region);
            w.buffer(buffer);
        }
        NetMsg::Hello {
            node,
            workers,
            port,
        } => {
            w.u8(TAG_HELLO);
            w.u32(node.0);
            w.u32(*workers);
            w.u16(*port);
        }
        NetMsg::Assign {
            epoch,
            status_every_us,
            kernels,
            subscribers,
            peers,
        } => {
            w.u8(TAG_ASSIGN);
            w.u64(*epoch);
            w.u64(*status_every_us);
            w.list(kernels, |w, k| w.u32(k.0));
            w.list(subscribers, |w, (field, subs)| {
                w.u32(field.0);
                w.list(subs, |w, n| w.u32(n.0));
            });
            w.list(peers, |w, (n, addr)| {
                w.u32(n.0);
                w.str(addr);
            });
        }
        NetMsg::Status {
            epoch,
            seq,
            outstanding,
            unacked,
            applied,
            failed,
        } => {
            w.u8(TAG_STATUS);
            w.u64(*epoch);
            w.u64(*seq);
            w.i64(*outstanding);
            w.u64(*unacked);
            w.u64(*applied);
            w.u8(u8::from(*failed));
        }
        NetMsg::Replay { epoch } => {
            w.u8(TAG_REPLAY);
            w.u64(*epoch);
        }
        NetMsg::Finish => w.u8(TAG_FINISH),
        NetMsg::Results { entries } => {
            w.u8(TAG_RESULTS);
            w.list(entries, |w, (field, age, region, buffer)| {
                w.u32(field.0);
                w.u64(age.0);
                w.region(region);
                w.buffer(buffer);
            });
        }
        NetMsg::Ack { count } => {
            w.u8(TAG_ACK);
            w.u64(*count);
        }
        NetMsg::OpenSession {
            session,
            pipeline,
            params,
            priority,
            weight,
        } => {
            w.u8(TAG_OPEN_SESSION);
            w.u64(*session);
            w.str(pipeline);
            w.list(params, |w, (key, value)| {
                w.str(key);
                w.i64(*value);
            });
            w.u8(*priority);
            w.u32(*weight);
        }
        NetMsg::SessionOpened { session, credits } => {
            w.u8(TAG_SESSION_OPENED);
            w.u64(*session);
            w.u64(*credits);
        }
        NetMsg::SessionRejected { session, reason } => {
            w.u8(TAG_SESSION_REJECTED);
            w.u64(*session);
            w.str(reason);
        }
        NetMsg::SubmitFrame {
            session,
            age,
            payload,
        } => {
            w.u8(TAG_SUBMIT_FRAME);
            w.u64(*session);
            w.u64(*age);
            w.bytes(payload);
        }
        NetMsg::Output {
            session,
            age,
            payload,
        } => {
            w.u8(TAG_OUTPUT);
            w.u64(*session);
            w.u64(*age);
            match payload {
                Some(bytes) => {
                    w.u8(1);
                    w.bytes(bytes);
                }
                None => w.u8(0),
            }
        }
        NetMsg::Credit { session, granted } => {
            w.u8(TAG_CREDIT);
            w.u64(*session);
            w.u64(*granted);
        }
        NetMsg::CloseSession { session } => {
            w.u8(TAG_CLOSE_SESSION);
            w.u64(*session);
        }
        NetMsg::SessionStats {
            session,
            submitted,
            completed,
            dropped,
            in_flight,
            fps_milli,
            p50_latency_us,
            p95_latency_us,
            resident_ages,
            resident_bytes,
        } => {
            w.u8(TAG_SESSION_STATS);
            w.u64(*session);
            w.u64(*submitted);
            w.u64(*completed);
            w.u64(*dropped);
            w.u64(*in_flight);
            w.u64(*fps_milli);
            w.u64(*p50_latency_us);
            w.u64(*p95_latency_us);
            w.u64(*resident_ages);
            w.u64(*resident_bytes);
        }
    }
    w.0
}

/// Decode one frame payload back into a message. Strict: unknown tags,
/// short payloads and trailing bytes are all errors.
pub fn decode_payload(payload: &[u8]) -> Result<NetMsg, WireError> {
    let mut r = Reader::new(payload);
    let msg = match r.u8()? {
        TAG_STORE => NetMsg::StoreForward {
            field: FieldId(r.u32()?),
            age: Age(r.u64()?),
            region: r.region()?,
            buffer: r.buffer()?,
        },
        TAG_HELLO => NetMsg::Hello {
            node: NodeId(r.u32()?),
            workers: r.u32()?,
            port: r.u16()?,
        },
        TAG_ASSIGN => NetMsg::Assign {
            epoch: r.u64()?,
            status_every_us: r.u64()?,
            kernels: r.list(|r| Ok(KernelId(r.u32()?)))?,
            subscribers: r.list(|r| Ok((FieldId(r.u32()?), r.list(|r| Ok(NodeId(r.u32()?)))?)))?,
            peers: r.list(|r| Ok((NodeId(r.u32()?), r.str()?)))?,
        },
        TAG_STATUS => NetMsg::Status {
            epoch: r.u64()?,
            seq: r.u64()?,
            outstanding: r.i64()?,
            unacked: r.u64()?,
            applied: r.u64()?,
            failed: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("bad bool")),
            },
        },
        TAG_REPLAY => NetMsg::Replay { epoch: r.u64()? },
        TAG_FINISH => NetMsg::Finish,
        TAG_RESULTS => NetMsg::Results {
            entries: r
                .list(|r| Ok((FieldId(r.u32()?), Age(r.u64()?), r.region()?, r.buffer()?)))?,
        },
        TAG_ACK => NetMsg::Ack { count: r.u64()? },
        TAG_OPEN_SESSION => NetMsg::OpenSession {
            session: r.u64()?,
            pipeline: r.str()?,
            params: r.list(|r| Ok((r.str()?, r.i64()?)))?,
            priority: r.u8()?,
            weight: r.u32()?,
        },
        TAG_SESSION_OPENED => NetMsg::SessionOpened {
            session: r.u64()?,
            credits: r.u64()?,
        },
        TAG_SESSION_REJECTED => NetMsg::SessionRejected {
            session: r.u64()?,
            reason: r.str()?,
        },
        TAG_SUBMIT_FRAME => NetMsg::SubmitFrame {
            session: r.u64()?,
            age: r.u64()?,
            payload: r.bytes()?,
        },
        TAG_OUTPUT => {
            let session = r.u64()?;
            let age = r.u64()?;
            let payload = match r.u8()? {
                0 => None,
                1 => Some(r.bytes()?),
                _ => return Err(WireError::Malformed("bad option flag")),
            };
            NetMsg::Output {
                session,
                age,
                payload,
            }
        }
        TAG_CREDIT => NetMsg::Credit {
            session: r.u64()?,
            granted: r.u64()?,
        },
        TAG_CLOSE_SESSION => NetMsg::CloseSession { session: r.u64()? },
        TAG_SESSION_STATS => NetMsg::SessionStats {
            session: r.u64()?,
            submitted: r.u64()?,
            completed: r.u64()?,
            dropped: r.u64()?,
            in_flight: r.u64()?,
            fps_milli: r.u64()?,
            p50_latency_us: r.u64()?,
            p95_latency_us: r.u64()?,
            resident_ages: r.u64()?,
            resident_bytes: r.u64()?,
        },
        t => return Err(WireError::UnknownTag(t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(msg)
}

/// Wrap a payload in a complete frame (header + payload).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize, "payload exceeds frame limit");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode a message into a complete frame, ready to write to a socket.
pub fn encode_frame(msg: &NetMsg) -> Vec<u8> {
    frame(&encode_payload(msg))
}

/// Incremental receive-side frame parser with corruption resync.
///
/// Push socket bytes in with [`FrameReader::push`]; pull validated
/// payloads out with [`FrameReader::next_frame`]:
///
/// - `Ok(Some(payload))` — a complete frame passed magic/version/length/
///   CRC validation.
/// - `Ok(None)` — no complete frame buffered yet; push more bytes.
/// - `Err(e)` — corruption. The reader already advanced past the bad
///   byte and re-aligned on the next magic (or end of buffer); calling
///   again continues parsing. The caller chooses the policy: tolerate
///   (keep reading) or treat any corruption as fatal and drop the
///   connection.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Total corrupt frames discarded (resync events).
    pub corrupt_frames: u64,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Append bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Discard one byte, then re-align on the next magic sequence (or
    /// keep the unscanned tail if no magic is present yet).
    fn resync(&mut self) {
        self.corrupt_frames += 1;
        let magic = MAGIC.to_le_bytes();
        let from = 1.min(self.buf.len());
        let pos = self.buf[from..]
            .windows(4)
            .position(|w| w == magic)
            .map(|p| p + from)
            // No full magic found: keep only a tail that is a genuine
            // magic prefix (may be a magic split across reads). Always
            // advances at least one byte — a tail that equals the whole
            // buffer was already rejected by the caller's prefix check.
            .unwrap_or_else(|| {
                (self.buf.len().saturating_sub(3)..self.buf.len())
                    .find(|&i| {
                        let tail = &self.buf[i..];
                        tail == &magic[..tail.len()]
                    })
                    .unwrap_or(self.buf.len())
            });
        self.buf.drain(..pos.max(from));
    }

    /// Try to extract the next validated frame payload.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < HEADER_LEN {
            // Even a partial header must look like a magic prefix;
            // otherwise scan forward now rather than stalling.
            let magic = MAGIC.to_le_bytes();
            let probe = self.buf.len().min(4);
            if probe > 0 && self.buf[..probe] != magic[..probe] {
                self.resync();
                return Err(WireError::BadMagic);
            }
            return Ok(None);
        }
        let magic = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if magic != MAGIC {
            self.resync();
            return Err(WireError::BadMagic);
        }
        let version = self.buf[4];
        if version != VERSION {
            self.resync();
            return Err(WireError::BadVersion(version));
        }
        let len = u32::from_le_bytes([self.buf[5], self.buf[6], self.buf[7], self.buf[8]]);
        if len > MAX_PAYLOAD {
            self.resync();
            return Err(WireError::Oversize(len));
        }
        let total = HEADER_LEN + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let expected = u32::from_le_bytes([self.buf[9], self.buf[10], self.buf[11], self.buf[12]]);
        let found = crc32(&self.buf[HEADER_LEN..total]);
        if expected != found {
            self.resync();
            return Err(WireError::BadCrc { expected, found });
        }
        let payload = self.buf[HEADER_LEN..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_msg() -> NetMsg {
        NetMsg::StoreForward {
            field: FieldId(3),
            age: Age(7),
            region: Region(vec![
                DimSel::Index(2),
                DimSel::Range { start: 1, len: 4 },
                DimSel::All,
            ]),
            buffer: Buffer::from_vec(vec![1i32, -2, 3, 4]),
        }
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_variant_round_trips() {
        let msgs = vec![
            store_msg(),
            NetMsg::Hello {
                node: NodeId(2),
                workers: 4,
                port: 7201,
            },
            NetMsg::Assign {
                epoch: 3,
                status_every_us: 5_000,
                kernels: vec![KernelId(0), KernelId(5)],
                subscribers: vec![
                    (FieldId(0), vec![NodeId(0), NodeId(1)]),
                    (FieldId(2), vec![]),
                ],
                peers: vec![(NodeId(0), "127.0.0.1:7301".into())],
            },
            NetMsg::Status {
                epoch: 3,
                seq: 99,
                outstanding: -1,
                unacked: 10,
                applied: 9,
                failed: true,
            },
            NetMsg::Replay { epoch: 4 },
            NetMsg::Finish,
            NetMsg::Results {
                entries: vec![(
                    FieldId(1),
                    Age(0),
                    Region(vec![DimSel::All]),
                    Buffer::from_vec(vec![1.5f64, -2.5]),
                )],
            },
            NetMsg::Ack { count: 17 },
            NetMsg::OpenSession {
                session: 5,
                pipeline: "mjpeg".into(),
                params: vec![("width".into(), 352), ("height".into(), -288)],
                priority: 2,
                weight: 3,
            },
            NetMsg::SessionOpened {
                session: 5,
                credits: 8,
            },
            NetMsg::SessionRejected {
                session: 5,
                reason: "unknown pipeline".into(),
            },
            NetMsg::SubmitFrame {
                session: 5,
                age: 11,
                payload: vec![0xAB; 37],
            },
            NetMsg::Output {
                session: 5,
                age: 11,
                payload: Some(vec![1, 2, 3]),
            },
            NetMsg::Output {
                session: 5,
                age: 12,
                payload: None,
            },
            NetMsg::Credit {
                session: 5,
                granted: 19,
            },
            NetMsg::CloseSession { session: 5 },
            NetMsg::SessionStats {
                session: 5,
                submitted: 100,
                completed: 98,
                dropped: 2,
                in_flight: 2,
                fps_milli: 29_970,
                p50_latency_us: 1200,
                p95_latency_us: 5400,
                resident_ages: 12,
                resident_bytes: 1 << 20,
            },
        ];
        for msg in msgs {
            let framed = encode_frame(&msg);
            let mut rd = FrameReader::new();
            rd.push(&framed);
            let payload = rd.next_frame().expect("valid frame").expect("complete");
            assert_eq!(decode_payload(&payload).expect("decodes"), msg);
            assert!(rd.next_frame().unwrap().is_none(), "no residue");
        }
    }

    #[test]
    fn frames_survive_arbitrary_fragmentation() {
        let framed: Vec<u8> = [store_msg(), NetMsg::Replay { epoch: 1 }, NetMsg::Finish]
            .iter()
            .flat_map(encode_frame)
            .collect();
        for chunk in [1usize, 2, 3, 7, 13] {
            let mut rd = FrameReader::new();
            let mut got = Vec::new();
            for piece in framed.chunks(chunk) {
                rd.push(piece);
                while let Some(p) = rd.next_frame().expect("no corruption") {
                    got.push(decode_payload(&p).expect("decodes"));
                }
            }
            assert_eq!(got.len(), 3, "chunk size {chunk}");
            assert_eq!(got[0], store_msg());
        }
    }

    #[test]
    fn corrupt_frame_resyncs_to_next_frame() {
        let mut bytes = vec![0xDE, 0xAD, 0xBE, 0xEF]; // leading garbage
        let mut good = encode_frame(&NetMsg::Replay { epoch: 7 });
        bytes.append(&mut good);
        let mut broken = encode_frame(&store_msg());
        broken[HEADER_LEN + 3] ^= 0x40; // flip a payload bit: CRC must catch
        bytes.append(&mut broken);
        let mut tail = encode_frame(&NetMsg::Ack { count: 1 });
        bytes.append(&mut tail);

        let mut rd = FrameReader::new();
        rd.push(&bytes);
        let mut got = Vec::new();
        let mut errs = 0;
        loop {
            match rd.next_frame() {
                Ok(Some(p)) => got.push(decode_payload(&p).expect("decodes")),
                Ok(None) => break,
                Err(_) => errs += 1,
            }
        }
        assert_eq!(
            got,
            vec![NetMsg::Replay { epoch: 7 }, NetMsg::Ack { count: 1 }],
            "both intact frames recovered around the corruption"
        );
        assert!(errs >= 2, "garbage + corrupt frame were reported");
        assert!(rd.corrupt_frames >= 2);
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        let payload = encode_payload(&store_msg());
        for cut in 0..payload.len() {
            if let Ok(m) = decode_payload(&payload[..cut]) {
                panic!("truncated payload decoded to {m:?}");
            }
        }
    }

    #[test]
    fn oversize_length_is_rejected() {
        let mut framed = encode_frame(&NetMsg::Finish);
        framed[5..9].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut rd = FrameReader::new();
        rd.push(&framed);
        assert!(matches!(rd.next_frame(), Err(WireError::Oversize(_))));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(matches!(decode_payload(&[0xFF]), Err(WireError::UnknownTag(0xFF))));
        assert!(matches!(decode_payload(&[]), Err(WireError::Truncated)));
    }
}
