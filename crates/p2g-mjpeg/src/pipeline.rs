//! The P2G MJPEG pipeline (paper Figure 8): `init` and `read/splityuv`
//! feed per-component block fields, one DCT kernel instance per 8×8
//! macro-block transforms and quantizes, and an ordered `vlc/write` kernel
//! entropy-codes each frame into the output stream.
//!
//! Field/kernel layout (ages are frame numbers):
//!
//! ```text
//! init ──► params(0)
//! read/splityuv ──► y_input(a)[1584][64] ─► yDCT(a)[x] ─► y_result(a)[x][64] ─┐
//!               └─► u_input(a)[396][64]  ─► uDCT(a)[x] ─► u_result ───────────┼─► vlc/write(a)
//!               └─► v_input(a)[396][64]  ─► vDCT(a)[x] ─► v_result ───────────┘
//! ```

use std::sync::Arc;

use parking_lot::Mutex;

use p2g_field::{Buffer, Extents, FieldDef, FieldId, Region, ScalarType, Value};
use p2g_graph::spec::{
    AgeExpr, FetchDecl, IndexSel, IndexVar, KernelId, KernelSpec, ProgramSpec, StoreDecl,
};
use p2g_runtime::{Program, RuntimeError, Session, SessionSink};

use crate::dct::{
    aan_divisors, dct_quantize_aan_div, dct_quantize_naive, scaled_quant_table, QUANT_CHROMA,
    QUANT_LUMA,
};
use crate::jpeg::{write_frame, JpegParams};
use crate::synthetic::FrameSource;
use crate::yuv::YuvFrame;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct MjpegConfig {
    /// IJG quality (1..=100).
    pub quality: u8,
    /// Upper bound on encoded frames (the paper uses 50).
    pub max_frames: u64,
    /// Use the AAN FastDCT instead of the paper's naive DCT.
    pub fast_dct: bool,
    /// Data-granularity chunk size for the DCT kernels (Figure 4, Age=2).
    pub dct_chunk: usize,
    /// Soft per-instance deadline for the DCT kernels. When set, they run
    /// under a `Poison` fault policy: a block that overruns sees
    /// `ctx.cancelled()` turn true, bails out, and its *frame* is dropped
    /// from the stream (the poison reaches the frame's `vlc/write`
    /// instance) — a real-time encoder skips a late frame rather than
    /// stalling the whole pipeline behind it.
    pub frame_deadline: Option<std::time::Duration>,
    /// Chaos knob for tests: stall luma block 0 of this frame — the body
    /// polls `ctx.cancelled()` until its deadline passes. Only meaningful
    /// together with `frame_deadline`.
    pub stall_frame: Option<u64>,
}

impl Default for MjpegConfig {
    fn default() -> MjpegConfig {
        MjpegConfig {
            quality: 75,
            max_frames: 50,
            fast_dct: false,
            dct_chunk: 1,
            frame_deadline: None,
            stall_frame: None,
        }
    }
}

/// Shared output stream the `vlc/write` kernel appends encoded frames to.
#[derive(Debug, Default, Clone)]
pub struct MjpegSink {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MjpegSink {
    /// Empty sink.
    pub fn new() -> MjpegSink {
        MjpegSink::default()
    }

    /// Take the encoded MJPEG stream.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.buf.lock())
    }

    /// Current stream length in bytes.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn append(&self, bytes: &[u8]) {
        self.buf.lock().extend_from_slice(bytes);
    }
}

/// Build the MJPEG program spec for a frame geometry.
pub fn mjpeg_spec(width: usize, height: usize) -> ProgramSpec {
    spec_internal(width, height, true)
}

/// The streaming-session variant of [`mjpeg_spec`]: identical fields and
/// compute kernels but no `read/splityuv` source — input planes arrive by
/// injection ([`p2g_runtime::Session::submit`]) instead of being pulled by
/// a source kernel, so the pipeline is a pure frame-in/frame-out tenant.
pub fn mjpeg_stream_spec(width: usize, height: usize) -> ProgramSpec {
    spec_internal(width, height, false)
}

fn spec_internal(width: usize, height: usize, with_source: bool) -> ProgramSpec {
    let params = JpegParams::new(width, height, 50);
    let yb = params.luma_blocks();
    let cb = params.chroma_blocks();

    let mut spec = ProgramSpec::new();
    let f_params = spec.add_field(FieldDef::with_extents(
        "params",
        ScalarType::I32,
        Extents::new([1]),
    ));
    let f_yin = spec.add_field(FieldDef::with_extents(
        "y_input",
        ScalarType::U8,
        Extents::new([yb, 64]),
    ));
    let f_uin = spec.add_field(FieldDef::with_extents(
        "u_input",
        ScalarType::U8,
        Extents::new([cb, 64]),
    ));
    let f_vin = spec.add_field(FieldDef::with_extents(
        "v_input",
        ScalarType::U8,
        Extents::new([cb, 64]),
    ));
    let f_yres = spec.add_field(FieldDef::with_extents(
        "y_result",
        ScalarType::I16,
        Extents::new([yb, 64]),
    ));
    let f_ures = spec.add_field(FieldDef::with_extents(
        "u_result",
        ScalarType::I16,
        Extents::new([cb, 64]),
    ));
    let f_vres = spec.add_field(FieldDef::with_extents(
        "v_result",
        ScalarType::I16,
        Extents::new([cb, 64]),
    ));

    // init: store params(0).
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "init".into(),
        index_vars: 0,
        has_age_var: false,
        fetches: vec![],
        stores: vec![StoreDecl {
            field: f_params,
            age: AgeExpr::Const(0),
            dims: vec![IndexSel::All],
        }],
    });

    if with_source {
        // read/splityuv: source with age var; stores the three input
        // planes.
        spec.add_kernel(KernelSpec {
            id: KernelId(0),
            name: "read/splityuv".into(),
            index_vars: 0,
            has_age_var: true,
            fetches: vec![],
            stores: [f_yin, f_uin, f_vin]
                .into_iter()
                .map(|f| StoreDecl {
                    field: f,
                    age: AgeExpr::Rel(0),
                    dims: vec![IndexSel::All, IndexSel::All],
                })
                .collect(),
        });
    }

    // The three DCT kernels: one instance per block.
    for (name, fin, fout) in [
        ("yDCT", f_yin, f_yres),
        ("uDCT", f_uin, f_ures),
        ("vDCT", f_vin, f_vres),
    ] {
        spec.add_kernel(KernelSpec {
            id: KernelId(0),
            name: name.into(),
            index_vars: 1,
            has_age_var: true,
            fetches: vec![
                FetchDecl {
                    field: fin,
                    age: AgeExpr::Rel(0),
                    dims: vec![IndexSel::Var(IndexVar(0)), IndexSel::All],
                },
                FetchDecl {
                    field: f_params,
                    age: AgeExpr::Const(0),
                    dims: vec![IndexSel::Const(0)],
                },
            ],
            stores: vec![StoreDecl {
                field: fout,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::Var(IndexVar(0)), IndexSel::All],
            }],
        });
    }

    // vlc/write: consumes all three result planes per age.
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "vlc/write".into(),
        index_vars: 0,
        has_age_var: true,
        fetches: [f_yres, f_ures, f_vres]
            .into_iter()
            .map(|f| FetchDecl {
                field: f,
                age: AgeExpr::Rel(0),
                dims: vec![IndexSel::All, IndexSel::All],
            })
            .collect(),
        stores: vec![],
    });

    spec
}

/// Build the runnable MJPEG program. Returns the program and the sink the
/// encoded stream lands in.
pub fn build_mjpeg_program(
    source: Arc<dyn FrameSource>,
    config: MjpegConfig,
) -> Result<(Program, MjpegSink), RuntimeError> {
    let width = source.width();
    let height = source.height();
    let spec = mjpeg_spec(width, height);
    let mut program = Program::new(spec)?;
    let sink = MjpegSink::new();
    let max_frames = config.max_frames;
    let quality = config.quality;

    program.body("init", move |ctx| {
        ctx.store(0, Buffer::from_vec(vec![quality as i32]));
        Ok(())
    });

    let src = source.clone();
    program.body("read/splityuv", move |ctx| {
        let n = ctx.age().0;
        if n >= max_frames {
            return Ok(()); // store nothing: end of stream
        }
        let Some(frame) = src.frame(n) else {
            return Ok(());
        };
        let yb = frame.luma_blocks();
        let cb = frame.chroma_blocks();
        let to2d = |data: Vec<u8>, blocks: usize| {
            Buffer::from_vec(data)
                .reshape(Extents::new([blocks, 64]))
                .expect("plane is blocks*64 samples")
        };
        ctx.store(0, to2d(frame.luma_plane_blocks(), yb));
        ctx.store(1, to2d(frame.u_plane_blocks(), cb));
        ctx.store(2, to2d(frame.v_plane_blocks(), cb));
        Ok(())
    });

    install_dct_bodies(&mut program, &config);

    let out = sink.clone();
    program.body("vlc/write", move |ctx| {
        let params = JpegParams::new(width, height, quality);
        let y = ctx.input(0).as_i16().ok_or("y_result must be i16")?;
        let u = ctx.input(1).as_i16().ok_or("u_result must be i16")?;
        let v = ctx.input(2).as_i16().ok_or("v_result must be i16")?;
        let mut frame = Vec::new();
        write_frame(&mut frame, &params, y, u, v);
        out.append(&frame);
        Ok(())
    });
    // Frames must land in the stream in display order.
    program.set_ordered("vlc/write");
    apply_frame_deadline(&mut program, &config);

    Ok((program, sink))
}

/// Install the three DCT kernel bodies (shared by the batch and streaming
/// builders), including the chunking and stall-injection knobs. Each body
/// derives the quantization table and AAN divisors for `config.quality` —
/// the value `init` stores into `params` — once, when it is built, instead
/// of once per block; any other `params` value derives its own.
fn install_dct_bodies(program: &mut Program, config: &MjpegConfig) {
    let fast = config.fast_dct;
    let quality = config.quality;
    for (name, base) in [
        ("yDCT", &QUANT_LUMA),
        ("uDCT", &QUANT_CHROMA),
        ("vDCT", &QUANT_CHROMA),
    ] {
        let base = *base;
        let stall = if name == "yDCT" {
            config.stall_frame
        } else {
            None
        };
        let table = scaled_quant_table(&base, quality);
        let divisors = aan_divisors(&table);
        program.body(name, move |ctx| {
            if stall == Some(ctx.age().0) && ctx.index(0) == 0 {
                // Injected stall: overrun the frame deadline, bail out
                // once it has passed.
                while !ctx.cancelled() {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                return Err("stalled block cancelled past frame deadline".into());
            }
            let q = match ctx.input(1).value(0) {
                Value::I32(q) => q as u8,
                other => return Err(format!("bad params value {other:?}")),
            };
            let own;
            let (table, divisors) = if q == quality {
                (&table, &divisors)
            } else {
                let t = scaled_quant_table(&base, q);
                own = (t, aan_divisors(&t));
                (&own.0, &own.1)
            };
            let samples = ctx
                .input(0)
                .as_u8()
                .ok_or_else(|| "input block must be u8".to_string())?;
            let mut block = [0u8; 64];
            block.copy_from_slice(samples);
            let coeffs = if fast {
                dct_quantize_aan_div(&block, divisors)
            } else {
                dct_quantize_naive(&block, table)
            };
            ctx.store(0, Buffer::from_vec(coeffs.to_vec()));
            Ok(())
        });
        if config.dct_chunk > 1 {
            program.set_chunk_size(name, config.dct_chunk);
        }
    }
}

/// Deadline-aware degradation: an overrunning DCT block poisons its frame
/// (the stream drops it) instead of aborting or stalling.
fn apply_frame_deadline(program: &mut Program, config: &MjpegConfig) {
    if let Some(deadline) = config.frame_deadline {
        let policy = p2g_runtime::FaultPolicy::retries(0)
            .poison()
            .with_deadline(deadline);
        for name in ["yDCT", "uDCT", "vDCT"] {
            program.set_fault_policy(name, policy.clone());
        }
    }
}

/// Build the streaming-session MJPEG program: same compute pipeline as
/// [`build_mjpeg_program`] but without a source kernel — frames are
/// injected per age by [`p2g_runtime::Session::submit`] (see
/// [`stream_frame_parts`]) and each encoded frame is staged in the
/// session `sink` keyed by its age, so the session's age watch can hand it
/// to [`p2g_runtime::Session::poll_output`] when the frame completes.
/// `config.max_frames` is ignored: the stream is unbounded, bounded only
/// by what the session admits.
pub fn build_mjpeg_stream_program(
    width: usize,
    height: usize,
    config: MjpegConfig,
    sink: Arc<SessionSink>,
) -> Result<Program, RuntimeError> {
    let spec = mjpeg_stream_spec(width, height);
    let mut program = Program::new(spec)?;
    let quality = config.quality;

    program.body("init", move |ctx| {
        ctx.store(0, Buffer::from_vec(vec![quality as i32]));
        Ok(())
    });

    install_dct_bodies(&mut program, &config);

    program.body("vlc/write", move |ctx| {
        let params = JpegParams::new(width, height, quality);
        let y = ctx.input(0).as_i16().ok_or("y_result must be i16")?;
        let u = ctx.input(1).as_i16().ok_or("u_result must be i16")?;
        let v = ctx.input(2).as_i16().ok_or("v_result must be i16")?;
        let mut frame = Vec::new();
        write_frame(&mut frame, &params, y, u, v);
        sink.push(ctx.age().0, frame);
        Ok(())
    });
    program.set_ordered("vlc/write");
    apply_frame_deadline(&mut program, &config);

    Ok(program)
}

/// Split a frame into the `(field, region, buffer)` parts a streaming
/// MJPEG session expects: the three input planes as `[blocks, 64]`
/// buffers, resolved against the session's field table.
pub fn stream_frame_parts(
    session: &Session,
    frame: &YuvFrame,
) -> Vec<(FieldId, Region, Buffer)> {
    let to2d = |data: Vec<u8>, blocks: usize| {
        Buffer::from_vec(data)
            .reshape(Extents::new([blocks, 64]))
            .expect("plane is blocks*64 samples")
    };
    let field = |name: &str| {
        session
            .field_id(name)
            .expect("session runs an MJPEG stream program")
    };
    vec![
        (
            field("y_input"),
            Region::all(2),
            to2d(frame.luma_plane_blocks(), frame.luma_blocks()),
        ),
        (
            field("u_input"),
            Region::all(2),
            to2d(frame.u_plane_blocks(), frame.chroma_blocks()),
        ),
        (
            field("v_input"),
            Region::all(2),
            to2d(frame.v_plane_blocks(), frame.chroma_blocks()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{count_frames, encode_standalone};
    use crate::synthetic::SyntheticVideo;
    use p2g_runtime::{NodeBuilder, RunLimits};

    fn run_pipeline(
        source: SyntheticVideo,
        config: MjpegConfig,
        workers: usize,
    ) -> (Vec<u8>, p2g_runtime::instrument::RunReport) {
        let frames = config.max_frames;
        let (program, sink) = build_mjpeg_program(Arc::new(source), config).unwrap();
        let node = NodeBuilder::new(program).workers(workers);
        let report = node
            .launch(RunLimits::ages(frames + 1).with_gc_window(4))
            .and_then(|n| n.wait())
            .unwrap();
        (sink.take(), report)
    }

    #[test]
    fn spec_validates_and_matches_paper_shape() {
        let spec = mjpeg_spec(352, 288);
        spec.validate().unwrap();
        assert_eq!(spec.kernels.len(), 6);
        assert_eq!(spec.fields.len(), 7);
    }

    #[test]
    fn pipeline_output_matches_standalone_encoder() {
        let src = SyntheticVideo::new(32, 32, 3, 11);
        let config = MjpegConfig {
            quality: 75,
            max_frames: 3,
            fast_dct: false,
            dct_chunk: 1,
            ..MjpegConfig::default()
        };
        let (p2g_stream, _) = run_pipeline(src.clone(), config, 4);
        let reference = encode_standalone(&src, 75, 3, false);
        assert_eq!(p2g_stream, reference, "P2G must be bit-exact with baseline");
        assert_eq!(count_frames(&p2g_stream), 3);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let config = MjpegConfig {
            quality: 60,
            max_frames: 2,
            fast_dct: true,
            dct_chunk: 1,
            ..MjpegConfig::default()
        };
        let (a, _) = run_pipeline(SyntheticVideo::new(32, 32, 2, 3), config.clone(), 1);
        let (b, _) = run_pipeline(SyntheticVideo::new(32, 32, 2, 3), config, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn instance_counts_follow_block_geometry() {
        // 32x32: 16 luma blocks, 4 chroma blocks per frame.
        let config = MjpegConfig {
            quality: 75,
            max_frames: 2,
            fast_dct: true,
            dct_chunk: 1,
            ..MjpegConfig::default()
        };
        let (_, report) = run_pipeline(SyntheticVideo::new(32, 32, 5, 1), config, 2);
        let ins = &report.instruments;
        assert_eq!(ins.kernel("init").unwrap().instances, 1);
        // 2 frames + 1 end-of-stream probe.
        assert_eq!(ins.kernel("read/splityuv").unwrap().instances, 3);
        assert_eq!(ins.kernel("yDCT").unwrap().instances, 2 * 16);
        assert_eq!(ins.kernel("uDCT").unwrap().instances, 2 * 4);
        assert_eq!(ins.kernel("vDCT").unwrap().instances, 2 * 4);
        assert_eq!(ins.kernel("vlc/write").unwrap().instances, 2);
    }

    #[test]
    fn source_shorter_than_max_frames_ends_stream() {
        let config = MjpegConfig {
            quality: 75,
            max_frames: 10,
            fast_dct: true,
            dct_chunk: 1,
            ..MjpegConfig::default()
        };
        let (stream, report) = run_pipeline(SyntheticVideo::new(32, 32, 2, 1), config, 2);
        assert_eq!(count_frames(&stream), 2);
        assert_eq!(report.instruments.kernel("vlc/write").unwrap().instances, 2);
    }

    #[test]
    fn chunked_dct_is_bit_exact() {
        let src = SyntheticVideo::new(32, 32, 2, 7);
        let reference = encode_standalone(&src, 75, 2, false);
        let config = MjpegConfig {
            quality: 75,
            max_frames: 2,
            fast_dct: false,
            dct_chunk: 8,
            ..MjpegConfig::default()
        };
        let (stream, _) = run_pipeline(src, config, 4);
        assert_eq!(stream, reference);
    }

    /// The DCT bodies prebuild their tables for `config.quality` only; a
    /// `params` value that differs must still quantize at its own quality.
    #[test]
    fn dct_bodies_quantize_at_the_fetched_quality() {
        use crate::dct::dct_quantize_aan;
        use p2g_field::Age;
        let src = SyntheticVideo::new(32, 32, 1, 3);
        let config = MjpegConfig {
            quality: 75,
            max_frames: 1,
            fast_dct: true,
            dct_chunk: 4,
            ..MjpegConfig::default()
        };
        let (mut program, _) = build_mjpeg_program(Arc::new(src.clone()), config).unwrap();
        program.body("init", |ctx| {
            ctx.store(0, Buffer::from_vec(vec![50i32]));
            Ok(())
        });
        let (_, fields) = NodeBuilder::new(program)
            .workers(2)
            .launch(RunLimits::ages(2))
            .and_then(|n| n.collect())
            .unwrap();
        let table = scaled_quant_table(&QUANT_LUMA, 50);
        let expected: Vec<i16> = src
            .frame(0)
            .unwrap()
            .luma_plane_blocks()
            .chunks_exact(64)
            .flat_map(|b| dct_quantize_aan(b.try_into().unwrap(), &table))
            .collect();
        let y = fields.fetch("y_result", Age(0), &Region::all(2)).unwrap();
        assert_eq!(y.as_i16().unwrap(), &expected[..]);
    }

    #[test]
    fn batched_and_adaptive_execution_is_bit_exact() {
        use p2g_runtime::AdaptiveGranularity;
        let src = SyntheticVideo::new(32, 32, 3, 5);
        let reference = encode_standalone(&src, 75, 3, true);
        let config = MjpegConfig {
            quality: 75,
            max_frames: 3,
            fast_dct: true,
            dct_chunk: 8,
            ..MjpegConfig::default()
        };
        let (program, sink) = build_mjpeg_program(Arc::new(src), config).unwrap();
        let report = NodeBuilder::new(program)
            .workers(4)
            .launch(
                RunLimits::ages(4)
                    .with_gc_window(4)
                    .with_adaptive(AdaptiveGranularity::default()),
            )
            .and_then(|n| n.wait())
            .unwrap();
        assert_eq!(
            sink.take(),
            reference,
            "chunked + adaptive run must stay bit-exact"
        );
        let ydct = report.instruments.kernel("yDCT").unwrap();
        assert!(
            ydct.units < ydct.instances,
            "chunked DCT units must hold several instances"
        );
    }

    #[test]
    fn frame_deadline_drops_stalled_frame_keeps_rest() {
        use p2g_runtime::Termination;
        use std::time::Duration;

        let src = SyntheticVideo::new(32, 32, 3, 11);
        let config = MjpegConfig {
            quality: 75,
            max_frames: 3,
            fast_dct: false,
            dct_chunk: 1,
            frame_deadline: Some(Duration::from_millis(40)),
            stall_frame: Some(1),
        };
        let (stream, report) = run_pipeline(src.clone(), config, 4);

        // Frame 1 stalled past its deadline and was dropped; frames 0 and
        // 2 still encode, and frame 0 is bit-exact with the baseline.
        assert_eq!(count_frames(&stream), 2, "exactly the late frame drops");
        let frame0 = encode_standalone(&src, 75, 1, false);
        assert_eq!(&stream[..frame0.len()], &frame0[..]);

        assert_eq!(report.termination, Termination::Degraded);
        assert!(report.instruments.total_deadline_misses() >= 1);
        // The poison reached the frame's vlc/write instance.
        assert!(report
            .instruments
            .poisoned_instances()
            .contains_key(&("vlc/write".to_string(), 1)));
    }

    /// The same stall inside a chunked unit: the stalled block fails its
    /// own instance only, so its unit peers and every other frame encode
    /// exactly.
    #[test]
    fn frame_deadline_with_chunked_dct_drops_only_stalled_frame() {
        use crate::avi::split_frames;
        use std::time::Duration;

        let src = SyntheticVideo::new(32, 32, 3, 11);
        let config = MjpegConfig {
            quality: 75,
            max_frames: 3,
            fast_dct: false,
            dct_chunk: 4,
            frame_deadline: Some(Duration::from_millis(40)),
            stall_frame: Some(1),
        };
        let (stream, report) = run_pipeline(src.clone(), config, 4);

        let reference = encode_standalone(&src, 75, 3, false);
        let reference = split_frames(&reference);
        assert_eq!(split_frames(&stream), vec![reference[0], reference[2]]);
        let poisoned = report.instruments.poisoned_instances();
        assert_eq!(
            poisoned.get(&("yDCT".to_string(), 1)),
            Some(&vec![vec![0]]),
            "only the stalled block fails"
        );
        let ydct = report.instruments.kernel("yDCT").unwrap();
        assert!(ydct.units < ydct.instances, "yDCT must run chunked units");
    }

    #[test]
    fn cif_geometry_instances() {
        // One CIF frame: the paper's per-frame instance counts (1584 luma,
        // 396 chroma DCT instances).
        let config = MjpegConfig {
            quality: 75,
            max_frames: 1,
            fast_dct: true, // keep the test fast
            dct_chunk: 1,
            ..MjpegConfig::default()
        };
        let (stream, report) = run_pipeline(SyntheticVideo::foreman_like(1), config, 8);
        let ins = &report.instruments;
        assert_eq!(ins.kernel("yDCT").unwrap().instances, 1584);
        assert_eq!(ins.kernel("uDCT").unwrap().instances, 396);
        assert_eq!(ins.kernel("vDCT").unwrap().instances, 396);
        assert_eq!(count_frames(&stream), 1);
    }
}
