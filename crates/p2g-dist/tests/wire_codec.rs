//! Property tests for the hand-rolled wire codec: every `NetMsg` variant
//! round-trips through encode/frame/decode bit-exactly, and adversarial
//! corruption (bit flips, truncations, garbage) yields a decode error or
//! a skipped frame — never a panic and never a silently wrong message.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use p2g_dist::wire::{self, FrameReader};
use p2g_dist::NetMsg;
use p2g_field::buffer::BufferData;
use p2g_field::{Age, Buffer, DimSel, Extents, FieldId, Region};
use p2g_graph::{KernelId, NodeId};

/// Deterministic message generator driven by a single seed, so one u64
/// strategy exercises every variant including deeply nested payloads.
fn gen_msg(rng: &mut TestRng) -> NetMsg {
    match rng.next_below(16) {
        0 => NetMsg::StoreForward {
            field: FieldId(rng.next_u64() as u32),
            age: Age(rng.next_u64()),
            region: gen_region(rng),
            buffer: gen_buffer(rng),
        },
        1 => NetMsg::Hello {
            node: NodeId(rng.next_u64() as u32),
            workers: rng.next_u64() as u32,
            port: rng.next_u64() as u16,
        },
        2 => NetMsg::Assign {
            epoch: rng.next_u64(),
            status_every_us: rng.next_u64(),
            kernels: (0..rng.next_below(5))
                .map(|_| KernelId(rng.next_u64() as u32))
                .collect(),
            subscribers: (0..rng.next_below(4))
                .map(|_| {
                    (
                        FieldId(rng.next_u64() as u32),
                        (0..rng.next_below(4))
                            .map(|_| NodeId(rng.next_u64() as u32))
                            .collect(),
                    )
                })
                .collect(),
            peers: (0..rng.next_below(4))
                .map(|_| {
                    (
                        NodeId(rng.next_u64() as u32),
                        format!("127.0.0.1:{}", rng.next_u64() as u16),
                    )
                })
                .collect(),
        },
        3 => NetMsg::Status {
            epoch: rng.next_u64(),
            seq: rng.next_u64(),
            outstanding: rng.next_u64() as i64,
            unacked: rng.next_u64(),
            applied: rng.next_u64(),
            failed: rng.next_u64() & 1 == 1,
        },
        4 => NetMsg::Replay { epoch: rng.next_u64() },
        5 => NetMsg::Finish,
        6 => NetMsg::Results {
            entries: (0..rng.next_below(4))
                .map(|_| {
                    (
                        FieldId(rng.next_u64() as u32),
                        Age(rng.next_u64()),
                        gen_region(rng),
                        gen_buffer(rng),
                    )
                })
                .collect(),
        },
        7 => NetMsg::Ack { count: rng.next_u64() },
        8 => NetMsg::OpenSession {
            session: rng.next_u64(),
            pipeline: gen_string(rng),
            params: (0..rng.next_below(4))
                .map(|_| (gen_string(rng), rng.next_u64() as i64))
                .collect(),
            priority: rng.next_u64() as u8,
            weight: rng.next_u64() as u32,
        },
        9 => NetMsg::SessionOpened {
            session: rng.next_u64(),
            credits: rng.next_u64(),
        },
        10 => NetMsg::SessionRejected {
            session: rng.next_u64(),
            reason: gen_string(rng),
        },
        11 => NetMsg::SubmitFrame {
            session: rng.next_u64(),
            age: rng.next_u64(),
            payload: gen_bytes(rng),
        },
        12 => NetMsg::Output {
            session: rng.next_u64(),
            age: rng.next_u64(),
            payload: if rng.next_below(2) == 0 {
                None
            } else {
                Some(gen_bytes(rng))
            },
        },
        13 => NetMsg::Credit {
            session: rng.next_u64(),
            granted: rng.next_u64(),
        },
        14 => NetMsg::CloseSession { session: rng.next_u64() },
        _ => NetMsg::SessionStats {
            session: rng.next_u64(),
            submitted: rng.next_u64(),
            completed: rng.next_u64(),
            dropped: rng.next_u64(),
            in_flight: rng.next_u64(),
            fps_milli: rng.next_u64(),
            p50_latency_us: rng.next_u64(),
            p95_latency_us: rng.next_u64(),
            resident_ages: rng.next_u64(),
            resident_bytes: rng.next_u64(),
        },
    }
}

/// Arbitrary (possibly non-ASCII, possibly empty) short string.
fn gen_string(rng: &mut TestRng) -> String {
    (0..rng.next_below(12))
        .map(|_| char::from_u32(rng.next_below(0xD800) as u32).unwrap_or('?'))
        .collect()
}

/// Arbitrary short binary payload (frame bytes on the wire).
fn gen_bytes(rng: &mut TestRng) -> Vec<u8> {
    (0..rng.next_below(48)).map(|_| rng.next_u64() as u8).collect()
}

fn gen_region(rng: &mut TestRng) -> Region {
    Region(
        (0..rng.next_below(4))
            .map(|_| match rng.next_below(3) {
                0 => DimSel::Index(rng.next_below(1 << 20) as usize),
                1 => DimSel::Range {
                    start: rng.next_below(1 << 20) as usize,
                    len: rng.next_below(1 << 20) as usize,
                },
                _ => DimSel::All,
            })
            .collect(),
    )
}

fn gen_buffer(rng: &mut TestRng) -> Buffer {
    let len = rng.next_below(9) as usize;
    let data = match rng.next_below(6) {
        0 => BufferData::U8((0..len).map(|_| rng.next_u64() as u8).collect()),
        1 => BufferData::I16((0..len).map(|_| rng.next_u64() as i16).collect()),
        2 => BufferData::I32((0..len).map(|_| rng.next_u64() as i32).collect()),
        3 => BufferData::I64((0..len).map(|_| rng.next_u64() as i64).collect()),
        4 => BufferData::F32(
            (0..len).map(|_| f32::from_bits(rng.next_u64() as u32)).collect(),
        ),
        _ => BufferData::F64((0..len).map(|_| f64::from_bits(rng.next_u64())).collect()),
    };
    Buffer::from_data(data, Extents::new(vec![len])).expect("consistent shape")
}

/// Bit-exact message equality: `PartialEq` on NaN floats reports false
/// even for identical bit patterns, so compare re-encoded bytes instead.
fn same_bits(a: &NetMsg, b: &NetMsg) -> bool {
    wire::encode_payload(a) == wire::encode_payload(b)
}

/// Pull every decodable message out of the reader, tolerating corrupt
/// stretches (each `Err` has already resynced past the damage). Bounded
/// by the reader's guarantee that every call consumes progress.
fn drain(reader: &mut FrameReader) -> Vec<NetMsg> {
    let mut out = Vec::new();
    loop {
        match reader.next_frame() {
            Ok(Some(payload)) => {
                if let Ok(msg) = wire::decode_payload(&payload) {
                    out.push(msg);
                }
            }
            Ok(None) => break,
            Err(_) => continue,
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode → frame → FrameReader → decode is the identity for every
    /// message variant, at every fragmentation granularity.
    #[test]
    fn every_message_round_trips(seed in 0u64..u64::MAX, chunk in 1usize..64) {
        let mut rng = TestRng::from_seed(seed);
        let msg = gen_msg(&mut rng);
        let framed = wire::encode_frame(&msg);

        // Whole-frame decode.
        let mut reader = FrameReader::new();
        reader.push(&framed);
        let payload = reader.next_frame().expect("valid frame").expect("frame present");
        let got = wire::decode_payload(&payload).expect("payload decodes");
        prop_assert!(same_bits(&msg, &got), "whole-frame mismatch: {:?} vs {:?}", msg, got);
        prop_assert!(matches!(reader.next_frame(), Ok(None)));

        // Fragmented decode at an arbitrary chunk size.
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        for part in framed.chunks(chunk) {
            reader.push(part);
            seen.extend(drain(&mut reader));
        }
        prop_assert_eq!(seen.len(), 1, "one encode must yield one frame at chunk {}", chunk);
        prop_assert!(same_bits(&msg, &seen[0]), "fragmented mismatch at chunk {}", chunk);
        prop_assert_eq!(reader.corrupt_frames, 0);
    }

    /// A single bit flip anywhere in the frame never produces a
    /// *different* message: every byte is covered by magic, version,
    /// length, CRC, or the CRC'd payload, so damage is detected (frame
    /// skipped) rather than silently decoded.
    #[test]
    fn bit_flips_never_yield_wrong_message(seed in 0u64..u64::MAX, flip in 0usize..4096) {
        let mut rng = TestRng::from_seed(seed);
        let msg = gen_msg(&mut rng);
        let mut framed = wire::encode_frame(&msg);
        let bit = flip % (framed.len() * 8);
        framed[bit / 8] ^= 1 << (bit % 8);

        let mut reader = FrameReader::new();
        reader.push(&framed);
        for got in drain(&mut reader) {
            prop_assert!(
                same_bits(&msg, &got),
                "bit {} flip decoded to a different message", bit
            );
        }
    }

    /// Every strict prefix of a frame decodes to nothing: the reader
    /// waits for the rest — never a panic, never a message.
    #[test]
    fn truncation_never_yields_a_message(seed in 0u64..u64::MAX, cut in 0usize..4096) {
        let mut rng = TestRng::from_seed(seed);
        let msg = gen_msg(&mut rng);
        let framed = wire::encode_frame(&msg);
        let keep = cut % framed.len();
        let mut reader = FrameReader::new();
        reader.push(&framed[..keep]);
        prop_assert!(drain(&mut reader).is_empty(), "truncated frame decoded");
    }

    /// Arbitrary garbage never panics or wedges the reader, and a valid
    /// frame after the garbage is still recovered (resync).
    #[test]
    fn garbage_then_frame_resyncs(seed in 0u64..u64::MAX, len in 0usize..256) {
        let mut rng = TestRng::from_seed(seed);
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let msg = gen_msg(&mut rng);

        let mut reader = FrameReader::new();
        reader.push(&garbage);
        drain(&mut reader);
        reader.push(&wire::encode_frame(&msg));
        let found = drain(&mut reader).iter().any(|got| same_bits(&msg, got));
        prop_assert!(found, "frame after {} garbage bytes was lost", len);
    }

    /// Raw payload decode (no frame) of random bytes errors, never panics.
    #[test]
    fn random_payloads_error_not_panic(seed in 0u64..u64::MAX, len in 0usize..512) {
        let mut rng = TestRng::from_seed(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = wire::decode_payload(&bytes); // Ok or Err both fine; panic is the failure
    }
}

/// One message of every `NetMsg` variant (both `Output` payload states),
/// each with small distinct field values.
fn golden_msgs() -> Vec<NetMsg> {
    let region = Region(vec![
        DimSel::Index(3),
        DimSel::Range { start: 8, len: 8 },
        DimSel::All,
    ]);
    let i16s = Buffer::from_data(BufferData::I16(vec![-2, 7, 300]), Extents::new(vec![3]))
        .expect("consistent shape");
    let f32s = Buffer::from_data(BufferData::F32(vec![0.5, -1.25]), Extents::new(vec![1, 2]))
        .expect("consistent shape");
    vec![
        NetMsg::StoreForward {
            field: FieldId(2),
            age: Age(5),
            region: region.clone(),
            buffer: i16s.clone(),
        },
        NetMsg::Hello {
            node: NodeId(1),
            workers: 4,
            port: 47100,
        },
        NetMsg::Assign {
            epoch: 3,
            status_every_us: 2000,
            kernels: vec![KernelId(0), KernelId(6)],
            subscribers: vec![
                (FieldId(1), vec![NodeId(0), NodeId(2)]),
                (FieldId(4), vec![]),
            ],
            peers: vec![(NodeId(0), "127.0.0.1:9".to_string())],
        },
        NetMsg::Status {
            epoch: 2,
            seq: 17,
            outstanding: -3,
            unacked: 4,
            applied: 99,
            failed: true,
        },
        NetMsg::Replay { epoch: 8 },
        NetMsg::Finish,
        NetMsg::Results {
            entries: vec![
                (FieldId(0), Age(1), region, i16s),
                (FieldId(3), Age(0), Region(vec![DimSel::All]), f32s),
            ],
        },
        NetMsg::Ack { count: 12 },
        NetMsg::OpenSession {
            session: 7,
            pipeline: "mjpeg".to_string(),
            params: vec![("width".to_string(), 64), ("q".to_string(), -1)],
            priority: 2,
            weight: 3,
        },
        NetMsg::SessionOpened {
            session: 7,
            credits: 8,
        },
        NetMsg::SessionRejected {
            session: 7,
            reason: "full".to_string(),
        },
        NetMsg::SubmitFrame {
            session: 7,
            age: 1,
            payload: vec![1, 2, 3],
        },
        NetMsg::Output {
            session: 7,
            age: 1,
            payload: Some(vec![0xFF, 0xD8]),
        },
        NetMsg::Output {
            session: 7,
            age: 2,
            payload: None,
        },
        NetMsg::Credit {
            session: 7,
            granted: 16,
        },
        NetMsg::CloseSession { session: 7 },
        NetMsg::SessionStats {
            session: 7,
            submitted: 1,
            completed: 2,
            dropped: 3,
            in_flight: 4,
            fps_milli: 5,
            p50_latency_us: 6,
            p95_latency_us: 7,
            resident_ages: 8,
            resident_bytes: 9,
        },
    ]
}

/// The wire format is pinned byte for byte: the payload of one message
/// of every variant must encode to exactly these bytes (hex), so a codec
/// refactor cannot change what goes on the wire or what
/// `results_digest` hashes.
#[test]
fn every_variant_encodes_to_its_pinned_bytes() {
    const GOLDEN: [&str; 17] = [
        "010200000005000000000000000300030000000000000001080000000000000008000000000000000201010300000000000000feff07002c01",
        "030100000004000000fcb7",
        "040300000000000000d0070000000000000200000000000000060000000200000001000000020000000000000002000000040000000000000001000000000000000b003132372e302e302e313a39",
        "0502000000000000001100000000000000fdffffffffffffff0400000000000000630000000000000001",
        "060800000000000000",
        "07",
        "08020000000000000001000000000000000300030000000000000001080000000000000008000000000000000201010300000000000000feff07002c0103000000000000000000000001020402010000000000000002000000000000000000003f0000a0bf",
        "090c00000000000000",
        "0a070000000000000005006d6a70656702000000050077696474684000000000000000010071ffffffffffffffff0203000000",
        "0b07000000000000000800000000000000",
        "0c0700000000000000040066756c6c",
        "0d0700000000000000010000000000000003000000010203",
        "0e070000000000000001000000000000000102000000ffd8",
        "0e0700000000000000020000000000000000",
        "0f07000000000000001000000000000000",
        "100700000000000000",
        "110700000000000000010000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000070000000000000008000000000000000900000000000000",
    ];
    let msgs = golden_msgs();
    assert_eq!(msgs.len(), GOLDEN.len());
    for (msg, want) in msgs.iter().zip(GOLDEN) {
        let got: String = wire::encode_payload(msg)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(got, want, "payload bytes of {msg:?}");
        assert_eq!(
            &wire::decode_payload(&wire::encode_payload(msg)).unwrap(),
            msg
        );
    }
}
