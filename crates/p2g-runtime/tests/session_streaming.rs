//! Tests of the resident streaming runtime: admission control and
//! backpressure, flat-memory age GC over long streams, multi-tenant
//! fairness on the shared pool, batch tenants beside a session, dropped-
//! frame reporting, and trace invariants over a session-mode run.

use std::sync::Arc;
use std::time::Duration;

use p2g_field::{Buffer, Extents, FieldDef, FieldId, Region, ScalarType};
use p2g_graph::spec::{
    mul_sum_example, AgeExpr, FetchDecl, IndexSel, KernelId, KernelSpec, ProgramSpec, StoreDecl,
};
use p2g_runtime::{
    FaultPolicy, FieldStore, NodeBuilder, Program, RunLimits, Session, SessionConfig,
    SessionRuntime, SessionSink, SubmitError, Termination,
};

const IN_FIELD: FieldId = FieldId(0);

/// A minimal streaming tenant: `double` consumes the injected `in` plane,
/// `emit` (ordered, terminal) stages the doubled values in the session
/// sink. `fail_age` makes `double` fail at that age (poisoned under the
/// installed policy); `delay` slows `double` down to provoke backpressure.
fn stream_program(
    sink: Arc<SessionSink>,
    fail_age: Option<u64>,
    delay: Option<Duration>,
) -> Program {
    let mut spec = ProgramSpec::new();
    let f_in = spec.add_field(FieldDef::with_extents(
        "in",
        ScalarType::I32,
        Extents::new([4]),
    ));
    let f_out = spec.add_field(FieldDef::with_extents(
        "out",
        ScalarType::I32,
        Extents::new([4]),
    ));
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "double".into(),
        index_vars: 0,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: f_in,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::All],
        }],
        stores: vec![StoreDecl {
            field: f_out,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::All],
        }],
    });
    spec.add_kernel(KernelSpec {
        id: KernelId(0),
        name: "emit".into(),
        index_vars: 0,
        has_age_var: true,
        fetches: vec![FetchDecl {
            field: f_out,
            age: AgeExpr::Rel(0),
            dims: vec![IndexSel::All],
        }],
        stores: vec![],
    });
    let mut program = Program::new(spec).unwrap();
    program.body("double", move |ctx| {
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        if fail_age == Some(ctx.age().0) {
            return Err("injected failure".into());
        }
        let out: Vec<i32> = ctx
            .input(0)
            .as_i32()
            .unwrap()
            .iter()
            .map(|v| v * 2)
            .collect();
        ctx.store(0, Buffer::from_vec(out));
        Ok(())
    });
    program.body("emit", move |ctx| {
        let bytes: Vec<u8> = ctx
            .input(0)
            .as_i32()
            .unwrap()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        sink.push(ctx.age().0, bytes);
        Ok(())
    });
    program.set_ordered("emit");
    if fail_age.is_some() {
        program.set_fault_policy("double", FaultPolicy::retries(0).poison());
    }
    program
}

fn frame(age: u64) -> Vec<(FieldId, Region, Buffer)> {
    vec![(
        IN_FIELD,
        Region::all(1),
        Buffer::from_vec(vec![age as i32, 1, 2, 3]),
    )]
}

fn drain_outputs(session: &Session, expect: u64) -> Vec<u64> {
    let mut ages = Vec::new();
    while ages.len() < expect as usize {
        let out = session
            .recv(Duration::from_secs(20))
            .expect("session output before timeout");
        ages.push(out.age);
    }
    ages
}

/// The tentpole soak: thousands of frames through one session with a small
/// GC window must complete with resident memory flat — the live slab count
/// stays bounded by the window, nowhere near the frame count.
#[test]
fn soak_age_gc_keeps_memory_flat() {
    const FRAMES: u64 = 2_000;
    let runtime = SessionRuntime::new(4);
    let sink = SessionSink::new();
    let program = stream_program(sink.clone(), None, None);
    let session = runtime
        .open(
            program,
            SessionConfig::new("emit")
                .sink(sink)
                .max_in_flight(8)
                .gc_window(8),
        )
        .unwrap();

    let mut ages = Vec::new();
    let mut peak_resident = 0usize;
    for n in 0..FRAMES {
        session.submit(frame(n)).unwrap();
        while let Some(out) = session.poll_output() {
            assert_eq!(
                out.payload.as_deref().map(|b| b.len()),
                Some(16),
                "4 doubled i32s per frame"
            );
            ages.push(out.age);
        }
        if n % 64 == 0 {
            peak_resident = peak_resident.max(session.resident_ages());
        }
    }
    ages.extend(drain_outputs(&session, FRAMES - ages.len() as u64));

    // Outputs arrive in strict age order (ordered terminal kernel + the
    // analyzer watch fires ages in order).
    assert_eq!(ages, (0..FRAMES).collect::<Vec<_>>());
    assert!(
        peak_resident < 200,
        "resident (field, age) slabs must stay near the GC window over \
         {FRAMES} frames, saw peak {peak_resident}"
    );

    let report = session.finish(Duration::from_secs(20)).unwrap();
    assert_eq!(report.frames_submitted, FRAMES);
    assert_eq!(report.frames_completed, FRAMES);
    assert_eq!(report.frames_dropped, 0);
    let peak_live = report.report.instruments.peak_live_ages();
    assert!(
        peak_live > 0 && peak_live < 200,
        "analyzer live-age gauge must stay bounded, saw {peak_live}"
    );
    assert!(
        report.report.instruments.gc_ages_collected() > FRAMES,
        "age GC must have retired most of the stream's slabs"
    );
    runtime.shutdown();
}

/// Two tenants on one pool: a heavy session saturating the workers must
/// not starve a light one — both finish their streams.
#[test]
fn two_tenants_share_the_pool_without_starvation() {
    const HEAVY: u64 = 300;
    const LIGHT: u64 = 100;
    let runtime = SessionRuntime::new(2);

    let sink_a = SessionSink::new();
    let heavy = runtime
        .open(
            stream_program(sink_a.clone(), None, Some(Duration::from_micros(200))),
            SessionConfig::new("emit")
                .sink(sink_a)
                .max_in_flight(64)
                .gc_window(8),
        )
        .unwrap();
    let sink_b = SessionSink::new();
    let light = runtime
        .open(
            stream_program(sink_b.clone(), None, None),
            SessionConfig::new("emit")
                .sink(sink_b)
                .max_in_flight(4)
                .gc_window(8),
        )
        .unwrap();

    std::thread::scope(|s| {
        s.spawn(|| {
            for n in 0..HEAVY {
                heavy.submit(frame(n)).unwrap();
            }
        });
        s.spawn(|| {
            for n in 0..LIGHT {
                light.submit(frame(n)).unwrap();
                // The light tenant's outputs must keep flowing while the
                // heavy tenant floods the pool.
                if n % 10 == 9 {
                    light
                        .recv(Duration::from_secs(20))
                        .expect("light session output while heavy session floods");
                }
            }
        });
    });

    let heavy_report = heavy.finish(Duration::from_secs(30)).unwrap();
    let light_report = light.finish(Duration::from_secs(30)).unwrap();
    assert_eq!(heavy_report.frames_completed, HEAVY);
    assert_eq!(light_report.frames_completed, LIGHT);
    runtime.shutdown();
}

/// Admission control: with the in-flight window full, `try_submit` refuses
/// with `WouldBlock`; the window reopens once a frame completes; a closed
/// session refuses with `Closed`.
#[test]
fn backpressure_blocks_submissions_at_the_window() {
    let runtime = SessionRuntime::new(1);
    let sink = SessionSink::new();
    let program = stream_program(sink.clone(), None, Some(Duration::from_millis(30)));
    let session = runtime
        .open(
            program,
            SessionConfig::new("emit")
                .sink(sink)
                .max_in_flight(2)
                .gc_window(4),
        )
        .unwrap();

    session.submit(frame(0)).unwrap();
    session.submit(frame(1)).unwrap();
    assert_eq!(session.try_submit(frame(2)), Err(SubmitError::WouldBlock));

    // Blocking submit waits for the window instead of failing.
    let t = session.submit(frame(2)).unwrap();
    assert_eq!(t.age, 2);
    assert!(session.in_flight() <= 2);

    session.close();
    assert_eq!(session.try_submit(frame(3)), Err(SubmitError::Closed));
    assert_eq!(session.submit(frame(3)), Err(SubmitError::Closed));

    let report = session.finish(Duration::from_secs(20)).unwrap();
    assert_eq!(report.frames_submitted, 3);
    assert_eq!(report.frames_completed, 3);
    runtime.shutdown();
}

/// A frame whose kernel poisons under the fault policy completes as a
/// *dropped* output (payload `None`) instead of stalling the stream, and
/// the session report counts it.
#[test]
fn poisoned_frame_surfaces_as_dropped_output() {
    const FRAMES: u64 = 10;
    let runtime = SessionRuntime::new(2);
    let sink = SessionSink::new();
    let program = stream_program(sink.clone(), Some(3), None);
    let session = runtime
        .open(
            program,
            SessionConfig::new("emit")
                .sink(sink)
                .max_in_flight(4)
                .gc_window(16),
        )
        .unwrap();

    for n in 0..FRAMES {
        session.submit(frame(n)).unwrap();
    }
    let mut dropped = Vec::new();
    for _ in 0..FRAMES {
        let out = session
            .recv(Duration::from_secs(20))
            .expect("every frame completes, dropped or not");
        if out.dropped() {
            dropped.push(out.age);
        }
    }
    assert_eq!(dropped, vec![3], "exactly the failing age drops");

    let report = session.finish(Duration::from_secs(20)).unwrap();
    assert_eq!(report.frames_completed, FRAMES);
    assert_eq!(report.frames_dropped, 1);
    runtime.shutdown();
}

/// A traced session run passes every trace invariant, including the GC
/// no-store-after-retire check over the `AgeRetired` records.
#[test]
fn session_trace_passes_invariant_checks() {
    const FRAMES: u64 = 120;
    let runtime = SessionRuntime::new(2);
    let sink = SessionSink::new();
    let program = stream_program(sink.clone(), None, None);
    let session = runtime
        .open(
            program,
            SessionConfig::new("emit")
                .sink(sink)
                .max_in_flight(8)
                .gc_window(4)
                .with_trace(),
        )
        .unwrap();

    for n in 0..FRAMES {
        session.submit(frame(n)).unwrap();
    }
    drain_outputs(&session, FRAMES);
    let report = session.finish(Duration::from_secs(20)).unwrap();
    let trace = report.report.trace.as_ref().expect("tracing was enabled");
    assert!(
        trace.of_kind("AgeRetired").next().is_some(),
        "a small GC window over {FRAMES} frames must retire slabs"
    );
    p2g_runtime::trace_check::all(&report.report);
    runtime.shutdown();
}

/// The Figure-5 mul_sum program (mul2 doubles, plus5 adds five).
fn mul_sum_program() -> Program {
    let mut program = Program::new(mul_sum_example()).unwrap();
    program.body("init", |ctx| {
        ctx.store(0, Buffer::from_vec((10..15).collect::<Vec<i32>>()));
        Ok(())
    });
    program.body("mul2", |ctx| {
        let v = ctx.input(0).as_i32().unwrap()[0];
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_mul(2)]));
        Ok(())
    });
    program.body("plus5", |ctx| {
        let v = ctx.input(0).as_i32().unwrap()[0];
        ctx.store(0, Buffer::from_vec(vec![v.wrapping_add(5)]));
        Ok(())
    });
    program.body("print", |_| Ok(()));
    program
}

/// The written regions of one field age.
type Written = Vec<(Region, Buffer)>;

/// Every written region of both mul_sum fields, by field and age.
fn mul_sum_contents(fields: &FieldStore) -> Vec<(&'static str, u64, Written)> {
    let mut out = Vec::new();
    for name in ["m_data", "p_data"] {
        let field = fields.field_by_name(name).unwrap();
        let mut ages: Vec<_> = field.resident_ages().collect();
        ages.sort();
        for age in ages {
            out.push((name, age.0, field.snapshot_written(age)));
        }
    }
    out
}

/// `launch_batch`, batch tenants on a shared pool: two of them share a
/// 2-worker runtime with an open stream session. Each tenant quiesces with
/// the fields a solo `workers(2)` node computes, and the session keeps
/// delivering its frames in age order throughout.
#[test]
fn batch_tenants_beside_a_session_match_a_solo_node() {
    const AGES: u64 = 8;
    const FRAMES: u64 = 60;
    let (report, solo) = NodeBuilder::new(mul_sum_program())
        .workers(2)
        .launch(RunLimits::ages(AGES))
        .and_then(|n| n.collect())
        .unwrap();
    assert_eq!(report.termination, Termination::Quiescent);
    let expected = mul_sum_contents(&solo);
    assert!(!expected.is_empty());

    let runtime = SessionRuntime::new(2);
    let sink = SessionSink::new();
    let session = runtime
        .open(
            stream_program(sink.clone(), None, None),
            SessionConfig::new("emit")
                .sink(sink)
                .max_in_flight(4)
                .gc_window(8),
        )
        .unwrap();
    for n in 0..FRAMES / 2 {
        session.submit(frame(n)).unwrap();
    }
    let tenants: Vec<_> = (0..2)
        .map(|_| {
            runtime
                .launch_batch(mul_sum_program(), RunLimits::ages(AGES))
                .unwrap()
        })
        .collect();
    for n in FRAMES / 2..FRAMES {
        session.submit(frame(n)).unwrap();
    }
    for tenant in tenants {
        let (report, fields) = tenant.collect().unwrap();
        assert_eq!(report.termination, Termination::Quiescent);
        assert_eq!(mul_sum_contents(&fields), expected);
    }
    assert_eq!(
        drain_outputs(&session, FRAMES),
        (0..FRAMES).collect::<Vec<_>>()
    );
    let report = session.finish(Duration::from_secs(20)).unwrap();
    assert_eq!(report.frames_completed, FRAMES);
    runtime.shutdown();
}
