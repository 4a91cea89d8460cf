//! Layer probes: timed calls into one layer's public functions with the
//! rest of the system out of the way. Each probe repeats its operation
//! for a time budget and reports the median over the repetitions, so a
//! probe costs the same on a fast host and a slow one.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use p2g_core::dist::wire::{decode_payload, encode_frame, FrameReader};
use p2g_core::dist::{NetMsg, RetryConfig, TcpNet, Transport};
use p2g_core::graph::spec::ProgramSpec;
use p2g_core::graph::NodeId;
use p2g_core::prelude::*;
use p2g_core::runtime::analyzer::{DependencyAnalyzer, SharedFields};
use p2g_core::runtime::events::{Event, StoreEvent};
use p2g_core::runtime::ready::{Ranked, ReadyQueue};
use p2g_core::runtime::KernelOptions;

use crate::stats::{median, quantile, sort};

/// CIF luma geometry: 1584 blocks of 64 samples.
const CIF_BLOCKS: usize = 1584;
const CIF_I420: usize = 352 * 288 * 3 / 2;
const I420_64: usize = 64 * 64 * 3 / 2;

/// Repeat `round` until `budget` is spent (at least three times) and
/// return the median of what it returns.
fn median_over(budget: Duration, mut round: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        samples.push(round());
    }
    median(&samples)
}

fn block_region(block: usize) -> Region {
    Region(vec![
        DimSel::Range {
            start: block,
            len: 1,
        },
        DimSel::Range { start: 0, len: 64 },
    ])
}

/// Deterministic filler bytes for payloads.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// `field.*` over a CIF-shaped `[1584, 64]` i16 age: block stores as the
/// DCT kernels issue them, block fetches as `vlc/write`'s producers are
/// read, and the collection of a complete age.
pub struct FieldBlocks {
    pub store_block_ns: f64,
    pub fetch_block_ns: f64,
    pub collect_age_ns: f64,
}

pub fn field_blocks(budget: Duration) -> FieldBlocks {
    let def = FieldDef::with_extents("y_result", ScalarType::I16, Extents::new([CIF_BLOCKS, 64]));
    let mut field = Field::new(FieldId(0), def);
    let regions: Vec<Region> = (0..CIF_BLOCKS).map(block_region).collect();
    let block = Buffer::from_vec(vec![7i16; 64])
        .reshape(Extents::new([1, 64]))
        .expect("64 samples");
    let (mut store, mut fetch, mut collect) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut age = 0u64;
    while age < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for r in &regions {
            field
                .store(Age(age), r, &block)
                .expect("write-once block store");
        }
        store.push(t.elapsed().as_nanos() as f64 / CIF_BLOCKS as f64);
        let t = Instant::now();
        for r in &regions {
            std::hint::black_box(field.fetch(Age(age), r).expect("written block"));
        }
        fetch.push(t.elapsed().as_nanos() as f64 / CIF_BLOCKS as f64);
        let t = Instant::now();
        assert!(field.collect_age(Age(age)));
        collect.push(t.elapsed().as_nanos() as f64);
        age += 1;
    }
    FieldBlocks {
        store_block_ns: median(&store),
        fetch_block_ns: median(&fetch),
        collect_age_ns: median(&collect),
    }
}

/// `field.store_plane_mb_per_s`: one whole-plane store per age, the shape
/// of a frame submit.
pub fn field_store_plane(budget: Duration) -> f64 {
    let def = FieldDef::with_extents("y_input", ScalarType::U8, Extents::new([CIF_BLOCKS, 64]));
    let mut field = Field::new(FieldId(0), def);
    let plane = Buffer::from_vec(seeded_bytes(1, CIF_BLOCKS * 64))
        .reshape(Extents::new([CIF_BLOCKS, 64]))
        .expect("plane samples");
    let mut age = 0u64;
    median_over(budget, || {
        let t = Instant::now();
        for _ in 0..16 {
            field
                .store(Age(age), &Region::all(2), &plane)
                .expect("plane store");
            field.collect_age(Age(age));
            age += 1;
        }
        (16 * CIF_BLOCKS * 64) as f64 / 1e6 / t.elapsed().as_secs_f64()
    })
}

/// `field.store_elem_ns`: one-element i32 stores, K-means' `assign`.
pub fn field_store_elem(budget: Duration) -> f64 {
    const N: usize = 2000;
    let def = FieldDef::with_extents("assignments", ScalarType::I32, Extents::new([N]));
    let mut field = Field::new(FieldId(0), def);
    let points: Vec<Region> = (0..N).map(|x| Region::point(&[x])).collect();
    let one = Buffer::from_vec(vec![3i32]);
    let mut age = 0u64;
    median_over(budget, || {
        let t = Instant::now();
        for p in &points {
            field.store(Age(age), p, &one).expect("element store");
        }
        let ns = t.elapsed().as_nanos() as f64 / N as f64;
        field.collect_age(Age(age));
        age += 1;
        ns
    })
}

fn fresh_fields(spec: &ProgramSpec) -> SharedFields {
    Arc::new(
        spec.fields
            .iter()
            .enumerate()
            .map(|(i, d)| parking_lot::RwLock::new(Field::new(FieldId(i as u32), d.clone())))
            .collect(),
    )
}

/// Apply a store to the shared fields and describe it the way a worker
/// does when it publishes the event.
fn applied_store(
    fields: &SharedFields,
    fid: u32,
    age: u64,
    region: &Region,
    buf: &Buffer,
) -> Event {
    let mut field = fields[fid as usize].write();
    let o = field.store(Age(age), region, buf).expect("storm store");
    let extents = field
        .extents(Age(age))
        .cloned()
        .expect("age resident after store");
    Event::Store(StoreEvent {
        field: FieldId(fid),
        age: Age(age),
        region: region.resolved_against(&extents),
        extents,
        elements: o.stored,
        age_complete: o.age_complete,
        resized: o.resized,
        inline_dispatched: None,
    })
}

/// Feed a pre-built storm through a fresh analyzer; nanoseconds per event.
fn analyze(spec: Arc<ProgramSpec>, fields: SharedFields, ages: u64, storm: &[Event]) -> f64 {
    let options = vec![KernelOptions::default(); spec.kernels.len()];
    let mut an =
        DependencyAnalyzer::new(spec, options, HashSet::new(), fields, RunLimits::ages(ages));
    an.seed();
    let t = Instant::now();
    for ev in storm {
        std::hint::black_box(an.on_event(ev).expect("analyzer accepts event"));
    }
    t.elapsed().as_nanos() as f64 / storm.len() as f64
}

/// `analyzer.event_ns_block`: the MJPEG storm — three plane stores per
/// age release 2376 DCT instances, whose block stores gate `vlc/write`.
pub fn analyzer_blocks(budget: Duration) -> f64 {
    const AGES: u64 = 4;
    let spec = Arc::new(p2g_mjpeg::mjpeg_stream_spec(352, 288));
    let fid = |name: &str| {
        spec.fields
            .iter()
            .position(|f| f.name == name)
            .expect("mjpeg field") as u32
    };
    let zeroed = |ty, blocks| Buffer::zeroed(ty, Extents::new([blocks, 64]));
    median_over(budget, || {
        let fields = fresh_fields(&spec);
        let mut storm = vec![applied_store(
            &fields,
            fid("params"),
            0,
            &Region::all(1),
            &Buffer::from_vec(vec![75i32]),
        )];
        for a in 0..AGES {
            for (input, result, blocks) in [
                ("y_input", "y_result", CIF_BLOCKS),
                ("u_input", "u_result", CIF_BLOCKS / 4),
                ("v_input", "v_result", CIF_BLOCKS / 4),
            ] {
                let plane = zeroed(ScalarType::U8, blocks);
                storm.push(applied_store(
                    &fields,
                    fid(input),
                    a,
                    &Region::all(2),
                    &plane,
                ));
                let block = zeroed(ScalarType::I16, 1);
                for b in 0..blocks {
                    storm.push(applied_store(
                        &fields,
                        fid(result),
                        a,
                        &block_region(b),
                        &block,
                    ));
                }
            }
        }
        analyze(spec.clone(), fields, AGES, &storm)
    })
}

/// `analyzer.event_ns_elem`: the K-means storm — n one-element
/// assignment stores and k centroid rows per age around the aging cycle.
pub fn analyzer_elems(budget: Duration) -> f64 {
    const N: usize = 2000;
    const K: usize = 100;
    const AGES: u64 = 4;
    let spec = Arc::new(p2g_kmeans::pipeline::kmeans_spec(N, K, 2));
    median_over(budget, || {
        let fields = fresh_fields(&spec);
        let f64s = |rows| Buffer::zeroed(ScalarType::F64, Extents::new([rows, 2]));
        let mut storm = vec![
            applied_store(&fields, 0, 0, &Region::all(2), &f64s(N)),
            applied_store(&fields, 1, 0, &Region::all(2), &f64s(K)),
        ];
        for a in 0..AGES {
            for x in 0..N {
                let one = Buffer::from_vec(vec![(x % K) as i32]);
                storm.push(applied_store(&fields, 2, a, &Region::point(&[x]), &one));
            }
            if a + 1 < AGES {
                for c in 0..K {
                    let row = Region(vec![
                        DimSel::Range { start: c, len: 1 },
                        DimSel::Range { start: 0, len: 2 },
                    ]);
                    storm.push(applied_store(&fields, 1, a + 1, &row, &f64s(1)));
                }
            }
        }
        analyze(spec.clone(), fields, AGES, &storm)
    })
}

struct Token(u64);

impl Ranked for Token {
    fn rank_age(&self) -> u64 {
        self.0
    }
    fn rank_kernel(&self) -> u32 {
        0
    }
}

/// `ready.push_pop_ns_*`: one push and one pop on a queue holding 64
/// entries, from `threads` threads at once; nanoseconds per pair as each
/// thread sees it.
pub fn ready_push_pop(threads: usize, budget: Duration) -> f64 {
    const PAIRS: u64 = 20_000;
    median_over(budget, || {
        let queue: ReadyQueue<Token> = ReadyQueue::new();
        for i in 0..64 {
            queue.push(Token(i));
        }
        let barrier = Barrier::new(threads);
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let t = Instant::now();
                        for i in 0..PAIRS {
                            queue.push(Token(64 + i));
                            std::hint::black_box(queue.try_pop());
                        }
                        t.elapsed().as_nanos() as f64 / PAIRS as f64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .collect()
        });
        per_thread.iter().sum::<f64>() / threads as f64
    })
}

pub struct Wire {
    pub encode_us_64: f64,
    pub decode_us_64: f64,
    pub encode_mb_per_s_cif: f64,
}

/// `wire.*`: a `SubmitFrame` through `encode_frame`, and back through
/// `FrameReader` + `decode_payload`.
pub fn wire(seed: u64, budget: Duration) -> Wire {
    let submit = |len| NetMsg::SubmitFrame {
        session: 1,
        age: 42,
        payload: seeded_bytes(seed, len),
    };
    let small = submit(I420_64);
    let bytes = encode_frame(&small);
    let encode_us_64 = median_over(budget / 3, || {
        let t = Instant::now();
        for _ in 0..64 {
            std::hint::black_box(encode_frame(std::hint::black_box(&small)));
        }
        t.elapsed().as_nanos() as f64 / 64.0 / 1e3
    });
    let decode_us_64 = median_over(budget / 3, || {
        let t = Instant::now();
        for _ in 0..64 {
            let mut reader = FrameReader::new();
            reader.push(&bytes);
            let payload = reader
                .next_frame()
                .expect("clean frame")
                .expect("whole frame buffered");
            std::hint::black_box(decode_payload(&payload).expect("valid payload"));
        }
        t.elapsed().as_nanos() as f64 / 64.0 / 1e3
    });
    let large = submit(CIF_I420);
    let encode_mb_per_s_cif = median_over(budget / 3, || {
        let t = Instant::now();
        for _ in 0..8 {
            std::hint::black_box(encode_frame(std::hint::black_box(&large)));
        }
        (8 * CIF_I420) as f64 / 1e6 / t.elapsed().as_secs_f64()
    });
    Wire {
        encode_us_64,
        decode_us_64,
        encode_mb_per_s_cif,
    }
}

pub struct Tcp {
    pub rtt_us_p50: f64,
    pub rtt_us_p95: f64,
    pub resend_ratio: f64,
}

/// `tcp.*`: small-message ping-pong between two loopback endpoints.
pub fn tcp_rtt(budget: Duration) -> Result<Tcp, String> {
    let retry = RetryConfig::default();
    let (a, b) = (NodeId(1), NodeId(2));
    let bind = |n| TcpNet::bind(n, retry, 0).map_err(|e| format!("tcp probe bind: {e}"));
    let (net_a, net_b) = (bind(a)?, bind(b)?);
    let loopback = |net: &TcpNet| std::net::SocketAddr::from(([127, 0, 0, 1], net.port()));
    net_a.set_peer(b, loopback(&net_b));
    net_b.set_peer(a, loopback(&net_a));
    let ping = |granted| NetMsg::Credit {
        session: 1,
        granted,
    };

    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut rtts = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                if let Some((_, msg)) = net_b.recv_timeout(b, Duration::from_millis(20)) {
                    net_b.send_with_retry(b, a, msg, &retry);
                }
            }
        });
        let start = Instant::now();
        let mut seq = 0u64;
        // The first exchanges pay for the connections; leave them out.
        while rtts.len() < 200 || start.elapsed() < budget {
            let t = Instant::now();
            if !net_a.send_with_retry(a, b, ping(seq), &retry) {
                break;
            }
            if net_a.recv_timeout(a, Duration::from_secs(2)).is_none() {
                break;
            }
            if seq >= 20 {
                rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            seq += 1;
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    let (mut messages, mut retries) = (0u64, 0u64);
    for net in [&net_a, &net_b] {
        for stats in net.link_stats().values() {
            messages += stats.messages;
            retries += stats.retries;
        }
    }
    net_a.shutdown();
    net_b.shutdown();
    if rtts.len() < 200 {
        return Err(format!(
            "tcp probe lost its echo after {} round trips",
            rtts.len()
        ));
    }
    sort(&mut rtts);
    Ok(Tcp {
        rtt_us_p50: median(&rtts),
        rtt_us_p95: quantile(&rtts, 0.95),
        resend_ratio: retries as f64 / messages.max(1) as f64,
    })
}
